"""How hidden soft regions show up in surface strain fields.

Two identical coupons under the same displacement-controlled tension,
one homogeneous and one with two soft rectangular patches. The surface
strain field of the damaged coupon carries a clear local signature even
though the stiffness change is invisible geometry-wise.
"""

import numpy as np

import femupdate as fu

E0 = 200_000.0  # MPa, nominal steel modulus


def main():
    mesh = fu.build_coupon_mesh(length_mm=100, width_mm=20, thickness_mm=2, nx=40, ny=10)
    patches = fu.partition_longitudinal(mesh, 9)
    patches = fu.stamp_defect_patches(
        patches,
        mesh,
        [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))],
    )
    print(f"coupon: {mesh.n_elements} QUAD4 elements, {patches.patch_count} modulus patches")

    bcs = fu.BoundaryConditions("xmin", u_applied=0.1)
    model = fu.ForwardModel(mesh, patches, poisson_ratio=0.3, bcs=bcs)

    homogeneous = np.full(patches.patch_count, E0)
    damaged = homogeneous.copy()
    damaged[9] = damaged[10] = 0.3 * E0  # the stamped defect patches

    intact = model.surface_strain_arrays(homogeneous)[0]
    softened = model.surface_strain_arrays(damaged)[0]

    print("\nsurface exx statistics (displacement-controlled tension, u = 0.1 mm):")
    for name, exx in (("intact", intact), ("damaged", softened)):
        print(f"  {name:>8}: min {exx.min():.3e}  max {exx.max():.3e}  max/min {exx.max() / exx.min():6.3f}")

    rel = np.abs(softened - intact) / np.abs(intact)
    print(f"\npeak relative exx change caused by the soft patches: {rel.max():.1%}")
    hot = model.surface_points[np.argmax(rel)]
    print(f"strongest signature at (x, y) = ({hot[0]:.1f}, {hot[1]:.1f}) mm")

    # strains concentrate in the soft rows and relax beside them
    inside = rel > 0.5 * rel.max()
    print(f"{inside.sum()} of {rel.size} sample points carry more than half the peak signature")


if __name__ == "__main__":
    main()
