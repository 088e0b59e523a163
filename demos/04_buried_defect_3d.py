"""Seeing into a solid: a back-half defect found from front-face strains.

A HEX8 coupon hides a soft region in its back half. Only the front face
(z = T) is measured, as a stereo-DIC system would. The buried stiffness
drop still perturbs the front-face strain field, and a coarse 3-region
inversion localizes it. Takes seconds at this coarse resolution.
"""

import time

import numpy as np

import femupdate as fu

E0 = 200_000.0


def main():
    mesh = fu.build_coupon_mesh(100, 20, 8, nx=16, ny=5, nz=3)
    patches = fu.partition_longitudinal(mesh, 2)
    # back-half box: z only up to T/2, invisible from the front surface
    patches = fu.stamp_defect_patches(patches, mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))])
    bcs = fu.BoundaryConditions("xmin", "xmax", 0.1)
    model = fu.ForwardModel(mesh, patches, 0.3, bcs)

    truth = np.array([E0, E0, 0.25 * E0])
    homogeneous = np.array([E0, E0, E0])
    intact = model.surface_strain_arrays(homogeneous)[0]
    signature = np.abs(model.surface_strain_arrays(truth)[0] - intact) / np.abs(intact)
    print(f"front-face exx perturbation from the buried defect: {float(signature.max()):.1%}")

    grid = fu.grid_for_footprint((100, 20), counts=(14, 4))
    measurement = fu.generate_synthetic(model, truth, grid)

    context = fu.CostContext(model, measurement)
    lower = np.full(3, 0.01 * E0)
    upper = np.full(3, 3.0 * E0)
    lower[0] = upper[0] = E0

    start = time.perf_counter()
    recovered, history = fu.run_hybrid(
        context,
        lower,
        upper,
        fu.GAConfig(population_size=16, generations_max=20, rng_seed=2),
        fu.GradConfig(max_iterations=80),
        initial_guess=np.full(3, E0),
    )
    print(f"inversion finished in {time.perf_counter() - start:.0f} s, "
          f"{history.total_forward_solves} forward solves")

    labels = ["front section", "rear section", "buried region"]
    print(f"\n{'region':>14} {'truth/E0':>9} {'recovered/E0':>13}")
    for name, t, r in zip(labels, truth, recovered):
        print(f"{name:>14} {t / E0:>9.2f} {r / E0:>13.4f}")
    print(f"\nburied region recovered {1 - recovered[2] / min(recovered[:2]):.0%} softer than intact")


if __name__ == "__main__":
    main()
