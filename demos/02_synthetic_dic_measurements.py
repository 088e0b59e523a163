"""Generating DIC-like measurements from a ground-truth model.

The forward strain field is sampled onto a regular grid inset from the
specimen edge (real DIC subsets fail near boundaries), then perturbed
with Gaussian noise scaled to each component's RMS. The result writes to
a plain CSV that round-trips losslessly.
"""

import tempfile
from pathlib import Path

import numpy as np

import femupdate as fu

E0 = 200_000.0


def main():
    mesh = fu.build_coupon_mesh(100, 20, 2, 40, 10)
    patches = fu.partition_longitudinal(mesh, 9)
    patches = fu.stamp_defect_patches(patches, mesh, [fu.DefectSpec((45, 5), (60, 15))])

    truth = np.full(patches.patch_count, E0)
    truth[-1] = 0.25 * E0
    bcs = fu.BoundaryConditions("xmin", 0.1)
    model = fu.ForwardModel(mesh, patches, 0.3, bcs)

    grid = fu.grid_for_footprint((100, 20), counts=(40, 10))
    print(f"measurement grid: {grid.describe()}")

    clean = fu.generate_synthetic(model, truth, grid, noise_sigma=0.0)
    noisy = fu.generate_synthetic(model, truth, grid, noise_sigma=0.02, rng_seed=42)

    for name in ("exx", "eyy", "exy"):
        c = getattr(clean, name)
        n = getattr(noisy, name)
        rms = np.sqrt(np.mean(c**2))
        print(f"  {name}: clean RMS {rms:.3e}, applied noise std {np.std(n - c):.3e}")

    path = Path(tempfile.mkdtemp()) / "measurement.csv"
    fu.write_measurement_csv(noisy, path)
    loaded = fu.load_measurement_csv(path)
    print(f"\nwrote {path} ({path.stat().st_size} bytes)")
    print(f"round trip exact: {np.array_equal(loaded.exx, noisy.exx)}")
    print(f"recorded noise level {loaded.noise_sigma}, seed {loaded.rng_seed}")


if __name__ == "__main__":
    main()
