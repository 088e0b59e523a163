"""End-to-end modulus identification on a desk-scale coupon.

Synthetic strain measurements come from a coupon with one soft patch;
the hybrid optimizer (GA exploration, then projected Gauss-Newton on
exact sensitivities) recovers every patch modulus from the surface field
alone. Takes roughly ten seconds.

Note the scale pin: under displacement control, scaling every modulus
by the same factor leaves strains unchanged, so section 0 is fixed at
the reference value and the optimizer identifies the rest against it.
"""

import time

import numpy as np

import femupdate as fu

E0 = 200_000.0


def main():
    mesh = fu.build_coupon_mesh(100, 20, 2, 20, 6)
    patches = fu.partition_longitudinal(mesh, 5)
    patches = fu.stamp_defect_patches(patches, mesh, [fu.DefectSpec((40, 5), (60, 15))])

    truth = np.full(patches.patch_count, E0)
    truth[5] = 0.3 * E0
    bcs = fu.BoundaryConditions("xmin", "xmax", 0.1)
    grid = fu.grid_for_footprint((100, 20), counts=(20, 6))
    model = fu.ForwardModel(mesh, patches, 0.3, bcs)
    measurement = fu.generate_synthetic(model, truth, grid)

    context = fu.CostContext(model, measurement)
    lower = np.full(patches.patch_count, 0.01 * E0)
    upper = np.full(patches.patch_count, 3.0 * E0)
    lower[0] = upper[0] = E0  # fix the unobservable overall scale

    guess = np.full(patches.patch_count, E0)
    print(f"initial misfit at homogeneous guess: {context.cost(guess):.3e}")

    start = time.perf_counter()
    recovered, history = fu.run_hybrid(
        context,
        lower,
        upper,
        fu.GAConfig(population_size=24, generations_max=25, rng_seed=8),
        fu.GradConfig(max_iterations=200),
        initial_guess=guess,
    )
    elapsed = time.perf_counter() - start

    ga_final = history.stage_records("GA")[-1]
    print(f"GA stage:       cost {ga_final.best_cost:.3e} after {ga_final.iteration} generations")
    print(f"gradient stage: cost {history.final.best_cost:.3e}")
    print(f"{history.total_forward_solves} forward solves in {elapsed:.1f} s\n")

    print(f"{'patch':>5} {'truth':>10} {'recovered':>12} {'error':>9}")
    for k, (t, r) in enumerate(zip(truth, recovered)):
        print(f"{k:>5} {t:>10.0f} {r:>12.1f} {abs(r - t) / t:>9.2e}")


if __name__ == "__main__":
    main()
