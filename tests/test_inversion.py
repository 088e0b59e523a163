"""Cost function, exact and finite-difference gradients and Jacobians, GA and
Gauss-Newton stages."""

import functools
import hashlib
import re
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import femupdate as fu
from femupdate.inversion import STAGE_GA, STAGE_GRADIENT
from femupdate.solver import _factor as REAL_FACTOR

E0 = 200000.0

# frozen regression pin: sphere, 5 dims, [-5, 5], pop 40, 100 generations,
# seed 7, initial guess at (4, ..., 4)
SPHERE_PIN = 4.568426655684866e-05


def small_context(noise=0.0, seed=None, nx=10, ny=4, strain_floor=1e-6):
    mesh = fu.build_coupon_mesh(100, 20, 2, nx, ny)
    pmap = fu.partition_longitudinal(mesh, 3)
    pmap = fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((40, 5), (60, 15))])
    bcs = fu.BoundaryConditions("xmin", 0.1)
    truth = np.full(4, E0)
    truth[3] = 0.3 * E0
    grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
    model = fu.ForwardModel(mesh, pmap, 0.3, bcs)
    field = fu.generate_synthetic(model, truth, grid, noise_sigma=noise, rng_seed=seed)
    context = fu.CostContext(model, field, strain_floor)
    lower = np.full(4, 0.01 * E0)
    upper = np.full(4, 3.0 * E0)
    lower[0] = upper[0] = E0  # fix the modulus scale at the reference section
    return context, truth, lower, upper


def front_face_context():
    """3D coupon with a buried soft block, measured on the z = T face."""
    mesh = fu.build_coupon_mesh(100, 20, 8, 10, 4, 2)
    pmap = fu.partition_longitudinal(mesh, 2)
    pmap = fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))])
    bcs = fu.BoundaryConditions("xmin", 0.1)
    truth = np.array([E0, E0, 0.25 * E0])
    grid = fu.grid_for_footprint((100, 20), counts=(9, 4))
    model = fu.ForwardModel(mesh, pmap, 0.3, bcs)
    field = fu.generate_synthetic(model, truth, grid, noise_sigma=0.01, rng_seed=5)
    return fu.CostContext(model, field, strain_floor=3e-5), truth


def gradient(context, design):
    """Cost and gradient 2 J^T r from ``cost_and_derivatives``."""
    f, r, jac, _ = context.cost_and_derivatives(design)
    return f, 2.0 * (jac.T @ r)


def without_second(context):
    """``context.cost_and_derivatives`` without its second derivative, so
    ``run_gradient`` on it takes plain Gauss-Newton steps."""
    return lambda x: (*context.cost_and_derivatives(x)[:3], None)


def assert_adjoint_matches_fd(context, designs, lower, upper):
    """The gradient 2 J^T r against the central-difference oracle, 1e-6 relative in the max norm."""
    for design in designs:
        f, g = gradient(context, design)
        assert f == context.cost(design)  # bitwise: the same operations
        g_fd = fu.fd_gradient(context.cost, design, lower, upper)
        rel = np.abs(g - g_fd).max() / np.abs(g_fd).max()
        assert rel < 1e-6, f"adjoint vs FD relative error {rel:.2e}"


@functools.cache
def one_patch_model():
    mesh = fu.build_coupon_mesh(100, 20, 2, 4, 2)
    return fu.ForwardModel(mesh, fu.partition_longitudinal(mesh, 1), 0.3, fu.BoundaryConditions("xmin", 0.1))


def residual_cost(exp, num, strain_floor):
    """Sum of squares of ``CostContext.residuals``: ``num`` (exx, eyy, exy)
    against the measurement ``exp`` on a row of grid points."""
    n = exp[0].size
    grid = fu.MeasurementGrid((20.0, 10.0), (60.0 / n, 1.0), (n, 1))
    context = fu.CostContext(one_patch_model(), fu.ExperimentalField(0, grid, *exp), strain_floor)
    return float(np.sum(context.residuals(np.concatenate(num)) ** 2))


class TestRelativeResidualCost:
    def test_hand_example_single_point(self):
        exp = (np.array([2e-3]), np.array([1e-3]), np.array([5e-4]))
        num = (np.array([1e-3]), np.array([1e-3]), np.array([5e-4]))
        assert residual_cost(exp, num, 1e-6) == pytest.approx(0.25, rel=1e-15)

    def test_floor_caps_small_denominators(self):
        exp = (np.array([1e-9]), np.array([0.0]), np.array([0.0]))
        num = (np.array([0.0]), np.array([0.0]), np.array([0.0]))
        # denominator is the floor, not 1e-9
        assert residual_cost(exp, num, 1e-6) == pytest.approx((1e-9 / 1e-6) ** 2)

    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            residual_cost((np.ones(1),) * 3, (np.ones(1),) * 3, 0.0)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, 0.0, -1.0])
    def test_floor_must_be_positive_and_finite(self, floor):
        # a NaN floor made every cost NaN, an infinite one every cost 0.0
        with pytest.raises(ValueError, match="strain_floor"):
            residual_cost((np.ones(1),) * 3, (np.ones(1),) * 3, floor)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        exp = tuple(rng.normal(0, 1e-3, n) for _ in range(3))
        num = tuple(rng.normal(0, 1e-3, n) for _ in range(3))
        perm = rng.permutation(n)
        f1 = residual_cost(exp, num, 1e-6)
        f2 = residual_cost(tuple(a[perm] for a in exp), tuple(a[perm] for a in num), 1e-6)
        assert f2 == pytest.approx(f1, rel=1e-12)

    def test_residual_scaling_is_quadratic(self):
        rng = np.random.default_rng(1)
        n = 40
        exp = tuple(rng.normal(0, 1e-3, n) for _ in range(3))
        delta = tuple(rng.normal(0, 1e-4, n) for _ in range(3))
        num1 = tuple(e - d for e, d in zip(exp, delta))
        num3 = tuple(e - 3.0 * d for e, d in zip(exp, delta))
        f1 = residual_cost(exp, num1, 1e-6)
        f3 = residual_cost(exp, num3, 1e-6)
        assert f3 == pytest.approx(9.0 * f1, rel=1e-12)


class TestEvaluateCost:
    def test_zero_at_generating_design(self):
        context, truth, _, _ = small_context()
        assert context.cost(truth) < 1e-20

    def test_matches_straight_line_formula(self):
        context, truth, lower, upper = small_context()
        rng = np.random.default_rng(2)
        for _ in range(3):
            design = rng.uniform(0.5, 1.5, 4) * truth
            nxx, nyy, nxy = context.numerical_grid_field(design)
            m = context.measurement
            total = 0.0
            for j in range(m.grid.n_points):
                for exp, num in ((m.exx[j], nxx[j]), (m.eyy[j], nyy[j]), (m.exy[j], nxy[j])):
                    d = max(abs(exp), context.strain_floor)
                    total += ((exp - num) / d) ** 2
            assert context.cost(design) == pytest.approx(total, rel=1e-12)

    def test_positive_when_any_patch_off_by_ten_percent(self):
        context, truth, _, _ = small_context()
        for k in range(1, 4):
            design = truth.copy()
            design[k] *= 1.10
            assert context.cost(design) > 1e-6

    def test_nonpositive_moduli_rejected(self):
        context, truth, _, _ = small_context()
        bad = truth.copy()
        bad[1] = -1.0
        with pytest.raises(ValueError):
            context.cost(bad)


class TestNoiseFloor:
    def test_none_for_noiseless_data(self):
        context, *_ = small_context()
        assert context.noise_floor() is None

    def test_none_for_a_strain_floor_below_the_noise(self):
        """On this coupon 1 % noise is 1.0e-5 on exx (sigma times its RMS):
        with the 1e-6 default floor there is no estimate, with 1.5e-5 there
        is one."""
        below, *_ = small_context(noise=0.01, seed=4, strain_floor=1e-6)
        above, *_ = small_context(noise=0.01, seed=4, strain_floor=1.5e-5)
        assert below.noise_floor() is None
        assert above.noise_floor() is not None

    def test_matches_monte_carlo_at_the_truth(self):
        """Over 200 noise draws the cost at the truth has the mean and
        standard deviation ``noise_floor`` predicts, within 10 %. The strain
        floor lies above the noise, as in the benchmark and acceptance runs:
        below it, measured strains near zero would make the estimate 21.5
        against a Monte Carlo mean of 15.3 on this coupon at a 1e-6 floor,
        and ``noise_floor`` gives none."""
        context, truth, _, _ = small_context(strain_floor=3e-5)
        costs, floors = [], []
        for seed in range(200):
            field = fu.generate_synthetic(context.forward, truth, context.grid, noise_sigma=0.01, rng_seed=seed)
            noisy = fu.CostContext(context.forward, field, strain_floor=3e-5)
            costs.append(noisy.cost(truth))
            floors.append(noisy.noise_floor())
        expected, sd = np.mean(floors, axis=0)
        assert np.mean(costs) == pytest.approx(expected, rel=0.1)
        assert np.std(costs, ddof=1) == pytest.approx(sd, rel=0.1)


class TestFdGradient:
    def test_quadratic_analytic(self):
        c = np.array([1.0, -2.0, 0.5, 3.0])
        cost = lambda x: float(np.sum((x - c) ** 2))
        lower = np.full(4, -10.0)
        upper = np.full(4, 10.0)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        g = fu.fd_gradient(cost, x, lower, upper)
        assert_allclose(g, 2 * (x - c), rtol=1e-8)

    def test_one_sided_at_bound_second_order(self):
        c = np.array([2.0, -2.0])
        cost = lambda x: float(np.sum((x - c) ** 2))
        lower = np.array([-5.0, -5.0])
        upper = np.array([5.0, 5.0])
        x = np.array([5.0, -5.0])  # both coordinates pinned to a bound
        g = fu.fd_gradient(cost, x, lower, upper)
        assert_allclose(g, 2 * (x - c), rtol=1e-7)

    def test_pinned_coordinate_gets_zero(self):
        cost = lambda x: float(np.sum(x**2))
        lower = np.array([1.0, -5.0])
        upper = np.array([1.0, 5.0])
        g = fu.fd_gradient(cost, np.array([1.0, 2.0]), lower, upper)
        assert g[0] == 0.0
        assert g[1] == pytest.approx(4.0, rel=1e-8)

    def test_gradient_smallest_at_truth(self):
        context, truth, lower, upper = small_context()
        cost = context.cost
        g_truth = np.abs(fu.fd_gradient(cost, truth, lower, upper)).max()
        rng = np.random.default_rng(3)
        for _ in range(5):
            direction = rng.choice([-1.0, 1.0], size=4)
            perturbed = np.clip(truth * (1 + 0.01 * direction), lower, upper)
            perturbed[0] = truth[0]
            g_pert = np.abs(fu.fd_gradient(cost, perturbed, lower, upper)).max()
            assert g_truth < g_pert

    def test_richardson_error_reduction(self):
        """Central differences drop error ~4x per halved step vs a 4-point oracle."""
        rng = np.random.default_rng(9)
        x = rng.uniform(0.2, 0.8, 4)
        lower = np.zeros(4)
        upper = np.ones(4)

        def cost(v):
            return float(np.sum(np.sin(1.3 * v)) + np.exp(0.2 * np.sum(v)) + v[0] ** 2 * v[1])

        def four_point(v, h):
            g = np.zeros_like(v)
            for k in range(v.size):
                e = np.zeros_like(v)
                e[k] = 1.0
                g[k] = (
                    -cost(v + 2 * h * e) + 8 * cost(v + h * e) - 8 * cost(v - h * e) + cost(v - 2 * h * e)
                ) / (12 * h)
            return g

        h = 1e-2  # parameter range is 1, so fd_step_rel equals the step
        oracle = four_point(x, 1e-4)
        err_h = np.linalg.norm(fu.fd_gradient(cost, x, lower, upper, fd_step_rel=h) - oracle)
        err_h2 = np.linalg.norm(fu.fd_gradient(cost, x, lower, upper, fd_step_rel=h / 2) - oracle)
        assert err_h / err_h2 >= 3.5


class TestAdjointGradient:
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_matches_fd_oracle_2d(self, noise):
        context, truth, _, _ = small_context(noise=noise, seed=4)
        lower = np.full(4, 0.01 * E0)  # unpinned box: the oracle sees every coordinate
        upper = np.full(4, 3.0 * E0)
        rng = np.random.default_rng(5)
        designs = [rng.uniform(0.3, 2.0, 4) * E0 for _ in range(5)]
        assert_adjoint_matches_fd(context, designs, lower, upper)

    def test_matches_fd_oracle_3d_front_face(self):
        context, truth = front_face_context()
        lower = np.full(3, 0.01 * E0)
        upper = np.full(3, 3.0 * E0)
        rng = np.random.default_rng(6)
        designs = [rng.uniform(0.2, 2.0, 3) * E0 for _ in range(5)]
        assert_adjoint_matches_fd(context, designs, lower, upper)

    def test_cost_is_bitwise_cost(self):
        context, truth, _, _ = small_context()
        f, g = gradient(context, truth)
        assert f == context.cost(truth) == 0.0
        assert np.abs(g).max() < 1e-12 * np.abs(gradient(context, 1.2 * truth)[1]).max()

    def test_nonpositive_moduli_rejected(self):
        context, truth, _, _ = small_context()
        bad = truth.copy()
        bad[2] = 0.0
        with pytest.raises(ValueError):
            context.cost_and_derivatives(bad)


class TestJacobian:
    """Every column of J = dr/dE from ``cost_and_derivatives`` against central
    differences of r, 1e-6 relative in the max norm."""

    @pytest.mark.parametrize("fixture", ["2d_11_patches", "3d_3_patches"])
    def test_columns_match_central_differences(self, fixture):
        context = eleven_patch_context() if fixture.startswith("2d") else front_face_context()[0]
        p = context.forward.patch_map.patch_count
        design = np.random.default_rng(12).uniform(0.3, 2.0, p) * E0
        f, r, jac, _ = context.cost_and_derivatives(design)
        assert jac.shape == (r.size, p)
        assert f == pytest.approx(r @ r, rel=1e-12)
        h = 1e-6 * 3.0 * E0  # fd_gradient's step on the box [0.01, 3] E0
        for k in range(p):
            plus, minus = design.copy(), design.copy()
            plus[k] += h
            minus[k] -= h
            fd = (context.cost_and_derivatives(plus)[1] - context.cost_and_derivatives(minus)[1]) / (2.0 * h)
            rel = np.abs(jac[:, k] - fd).max() / np.abs(fd).max()
            assert rel < 1e-6, f"column {k}: J vs central differences relative error {rel:.2e}"

    def test_sensitivities_zero_at_prescribed_dofs(self):
        context = front_face_context()[0]
        forward = context.forward
        values = np.array([1.0, 1.2, 0.3]) * E0
        u, du, _ = forward.displacement_derivatives(values)
        assert np.array_equal(u, forward.solve_displacement(values))
        assert du.shape == (u.size, 3)
        prescribed = np.setdiff1d(np.arange(u.size), forward.free_dofs)
        assert np.all(du[prescribed] == 0.0)


class TestRunGa:
    def test_sphere_regression_pin(self):
        cost = lambda x: np.sum(x * x, axis=-1)
        lower = np.full(5, -5.0)
        upper = np.full(5, 5.0)
        config = fu.GAConfig(population_size=40, generations_max=100, rng_seed=7)
        best, history = fu.run_ga(cost, lower, upper, config, initial_guess=np.full(5, 4.0))
        assert history.final.best_cost < 1e-2
        assert history.final.best_cost == pytest.approx(SPHERE_PIN, rel=1e-12)

    def test_degenerate_population_constant(self):
        # zero-width bounds force every individual onto the same point
        lower = upper = np.array([2.0, 3.0])
        cost = lambda x: np.sum(x, axis=-1)
        config = fu.GAConfig(population_size=8, generations_max=5, rng_seed=1)
        best, history = fu.run_ga(cost, lower, upper, config)
        costs = [r.best_cost for r in history.records]
        assert costs == [5.0] * len(costs)
        assert_allclose(best, [2.0, 3.0])

    def test_same_seed_identical_history(self):
        cost = lambda x: np.sum((x - 1.0) ** 2, axis=-1)
        lower = np.full(3, -4.0)
        upper = np.full(3, 4.0)
        config = fu.GAConfig(population_size=12, generations_max=20, rng_seed=5)
        _, h1 = fu.run_ga(cost, lower, upper, config)
        _, h2 = fu.run_ga(cost, lower, upper, config)
        assert len(h1.records) == len(h2.records)
        for r1, r2 in zip(h1.records, h2.records):
            assert r1.best_cost == r2.best_cost
            assert np.array_equal(r1.design, r2.design)

    def test_hook_sees_the_runner_up_and_stops_at_generation_0(self):
        score = lambda x: np.sum((x - 1.0) ** 2, axis=-1)
        stacks = []

        def cost(x):
            stacks.append(x.copy())
            return score(x)

        lower, upper = np.full(3, -4.0), np.full(3, 4.0)
        config = fu.GAConfig(population_size=12, generations_max=20, rng_seed=5)
        seen = []
        _, history = fu.run_ga(cost, lower, upper, config, after_generation=lambda r, u: seen.append((r, u)) or True)
        _, alone = fu.run_ga(cost, lower, upper, config)
        assert [r.iteration for r, _ in seen] == [0]
        assert [r for r, _ in seen] == history.records  # the very records, once each
        for mine, ref in zip(history.records, alone.records[:1], strict=True):
            assert (mine.best_cost, mine.design.tobytes()) == (ref.best_cost, ref.design.tobytes())
        # the generation-0 stack is the whole population, all distinct: the
        # runner-up is its second-lowest-cost design
        population = stacks[0]
        assert population.shape == (12, 3)
        second = population[np.argsort(score(population), kind="stable")[1]]
        assert seen[0][1].tobytes() == second.tobytes()

    def test_best_cost_non_increasing(self):
        cost = lambda x: np.sum(x * x, axis=-1)
        config = fu.GAConfig(population_size=20, generations_max=30, rng_seed=2)
        _, history = fu.run_ga(cost, np.full(4, -3.0), np.full(4, 3.0), config)
        costs = [r.best_cost for r in history.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_solve_count_audited(self):
        calls = [0]
        designs = set()

        def cost(x):
            calls[0] += len(x)
            designs.update(row.tobytes() for row in x)
            return np.sum(x * x, axis=-1)

        config = fu.GAConfig(population_size=10, generations_max=8, rng_seed=3)
        _, history = fu.run_ga(cost, np.full(3, -1.0), np.full(3, 1.0), config)
        assert history.total_forward_solves == calls[0]
        assert history.final.forward_solve_count == calls[0]
        generations = len(history.records) - 1
        assert calls[0] == len(designs)
        assert calls[0] <= config.population_size * (generations + 1)

    def test_each_distinct_design_scored_once(self):
        seen = []

        def cost(x):
            x = np.atleast_2d(x)
            seen.extend(row.tobytes() for row in x)
            return np.sum((x - 0.3) ** 2, axis=-1)

        # elites and children that skip crossover and mutation repeat earlier designs
        config = fu.GAConfig(population_size=10, generations_max=12, rng_seed=6)
        _, history = fu.run_ga(cost, np.full(3, -1.0), np.full(3, 1.0), config)
        assert len(seen) == len(set(seen))
        assert len(seen) < config.population_size * len(history.records)  # elites and copies reused
        for r in history.records:
            assert r.best_cost == cost(r.design)

    def test_one_stack_per_generation_same_history(self):
        stacks = []

        def cost(x):
            stacks.append(x.copy())
            return np.sum((x - 0.3) ** 2, axis=-1)

        config = fu.GAConfig(population_size=10, generations_max=12, rng_seed=6)
        _, history = fu.run_ga(cost, np.full(3, -1.0), np.full(3, 1.0), config)
        assert len(stacks) <= len(history.records)  # at most one call per generation
        rows = [row.tobytes() for stack in stacks for row in stack]
        assert len(rows) == len(set(rows)) == history.total_forward_solves
        # the same costs as one design at a time, so the same history
        _, single = fu.run_ga(lambda x: np.array([cost(row[None])[0] for row in x]),
                              np.full(3, -1.0), np.full(3, 1.0), config)
        assert [r.best_cost for r in single.records] == [r.best_cost for r in history.records]

    def test_failed_candidates_scored_inf(self):
        failing = set()

        def cost(x):
            # the stack contract: a design whose solve fails scores +inf
            fails = x[:, 0] > 0.5
            failing.update(row.tobytes() for row in x[fails])
            return np.where(fails, np.inf, np.sum(x * x, axis=-1))

        config = fu.GAConfig(population_size=12, generations_max=10, rng_seed=2)
        best, history = fu.run_ga(cost, np.full(2, -1.0), np.full(2, 1.0), config)
        assert np.isfinite(history.final.best_cost)
        assert best[0] <= 0.5
        assert len(failing) > 0
        assert history.failed_evaluations == len(failing)

    def test_nan_cost_scored_inf(self):
        """A design whose cost is NaN is never a generation's best: it scores
        +inf and counts as a failed evaluation."""
        failing = set()

        def cost(x):
            fails = x[:, 0] > 0.8
            failing.update(row.tobytes() for row in x[fails])
            return np.where(fails, np.nan, np.sum(x * x, axis=-1))

        config = fu.GAConfig(population_size=8, generations_max=10, rng_seed=1)
        best, history = fu.run_ga(cost, np.zeros(2), np.ones(2), config)
        assert all(np.isfinite(r.best_cost) and r.design[0] <= 0.8 for r in history.records)
        assert best[0] <= 0.8
        assert len(failing) > 0
        assert history.failed_evaluations == len(failing)

    def test_bounds_validation(self):
        config = fu.GAConfig(population_size=6, generations_max=2)
        with pytest.raises(ValueError):
            fu.run_ga(lambda x: np.zeros(len(x)), np.array([0.0, np.inf]), np.array([1.0, np.inf]), config)

    @pytest.mark.parametrize("shape", [(), (5,), (6, 1)], ids=["scalar", "short", "column"])
    def test_cost_fn_of_the_wrong_shape_rejected(self, shape):
        """The generation-0 stack holds six distinct designs; a cost_fn that
        returns anything but six costs for it raises."""
        config = fu.GAConfig(population_size=6, generations_max=2)
        with pytest.raises(ValueError, match=re.escape(f"cost_fn returned shape {shape} for 6 designs")):
            fu.run_ga(lambda x: np.zeros(shape), np.zeros(2), np.ones(2), config)

    def test_config_validation(self):
        fu.GAConfig(population_size=4, generations_max=1)  # the smallest legal GA
        with pytest.raises(ValueError):
            fu.GAConfig(population_size=3)
        with pytest.raises(ValueError):
            fu.GAConfig(generations_max=0)
        fu.GradConfig(max_iterations=1)  # the smallest legal Gauss-Newton
        with pytest.raises(ValueError, match="^max_iterations must be positive$"):
            fu.GradConfig(max_iterations=0)


def eleven_patch_context():
    """The 2D acceptance problem: 40 x 10 coupon, 9 sections and 2 defects
    (11 patches), measured on a 40 x 10 grid with 1% noise."""
    mesh = fu.build_coupon_mesh(100, 20, 2, 40, 10)
    defects = [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))]
    pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 9), mesh, defects)
    bcs = fu.BoundaryConditions("xmin", 0.1)
    truth = np.full(11, E0)
    truth[9:] = 0.3 * E0
    grid = fu.grid_for_footprint((100, 20), counts=(40, 10))
    model = fu.ForwardModel(mesh, pmap, 0.3, bcs)
    field = fu.generate_synthetic(model, truth, grid, noise_sigma=0.01, rng_seed=3)
    return fu.CostContext(model, field, strain_floor=3e-5)


@pytest.fixture(scope="module", params=["2d_11_patches", "3d_3_patches"])
def stacked(request):
    """A cost context and a stack of designs on it, one design repeated."""
    context = eleven_patch_context() if request.param.startswith("2d") else front_face_context()[0]
    p = context.forward.patch_map.patch_count
    designs = np.random.default_rng(8).uniform(0.05, 3.0, (6, p)) * E0
    designs[4] = designs[1]
    return context, designs


def failing_on_call(monkeypatch, fail_at=None):
    """Count the calls of ``solver._factor`` and make call number ``fail_at``
    (from 0) raise SingularSystemError; returns the list of calls made."""
    from femupdate import solver

    calls = []

    def factor(k):
        calls.append(1)
        if len(calls) - 1 == fail_at:
            raise fu.SingularSystemError("stiffness factorization failed")
        return REAL_FACTOR(k)

    monkeypatch.setattr(solver, "_factor", factor)
    return calls


class TestCostStack:
    """``CostContext.cost`` and ``ForwardModel.solve_displacement`` on a
    stack of designs (m, P): one factorization per design, and every result
    bitwise the one of its design alone."""

    def test_stack_equals_single_designs(self, stacked):
        context, designs = stacked
        costs = context.cost(designs)
        assert isinstance(costs, np.ndarray) and costs.shape == (len(designs),)
        assert np.array_equal(costs, [context.cost(x) for x in designs])
        u = context.forward.solve_displacement(designs)
        assert u.shape == (len(designs), context.forward.strain_sampling.shape[1])
        for x, row in zip(designs, u):
            assert np.array_equal(row, context.forward.solve_displacement(x))

    def test_empty_stack(self, stacked, monkeypatch):
        """No design, no factorization: the costs and displacements of an
        empty stack are empty."""
        context, designs = stacked
        calls = failing_on_call(monkeypatch)
        assert context.cost(designs[:0]).shape == (0,)
        assert context.forward.solve_displacement(designs[:0]).shape == (0, context.forward.strain_sampling.shape[1])
        assert calls == []

    def test_one_factorization_per_design(self, stacked, monkeypatch):
        context, designs = stacked
        calls = failing_on_call(monkeypatch)
        context.cost(designs)
        assert len(calls) == len(designs)

    def test_failed_factorization_scores_inf_others_unchanged(self, stacked, monkeypatch):
        context, designs = stacked
        alone = [context.cost(x) for x in designs]
        failing_on_call(monkeypatch, fail_at=2)
        costs = context.cost(designs)
        assert costs[2] == np.inf
        assert np.array_equal(np.delete(costs, 2), np.delete(alone, 2))
        failing_on_call(monkeypatch, fail_at=2)
        u = context.forward.solve_displacement(designs)
        assert np.all(np.isnan(u[2]))
        assert np.all(np.isfinite(np.delete(u, 2, axis=0)))
        failing_on_call(monkeypatch, fail_at=0)
        with pytest.raises(fu.SingularSystemError):  # a single design raises
            context.cost(designs[2])

    def test_equilibrium_failure_scores_inf_others_unchanged(self, stacked, monkeypatch):
        """A factor of a perturbed S(E) for one design: that design fails
        the equilibrium check, the others pass unchanged."""
        from femupdate import solver

        context, designs = stacked
        alone = [context.cost(x) for x in designs]
        real, calls = solver.splu, []

        def perturbed(k, *args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                k = k.copy()
                k.data *= 1.0 + 1e-3
            return real(k, *args, **kwargs)

        monkeypatch.setattr(solver, "splu", perturbed)
        costs = context.cost(designs)
        assert costs[3] == np.inf
        assert np.array_equal(np.delete(costs, 3), np.delete(alone, 3))

    def test_non_finite_solution_scores_inf_others_unchanged(self, stacked, monkeypatch):
        """A factor whose solve gives NaN: a single design raises
        SingularSystemError("solution is non-finite"), not the equilibrium
        check's NumericalError; in a stack that design scores +inf and the
        others are bitwise their costs alone."""
        from femupdate import solver

        context, designs = stacked
        alone = [context.cost(x) for x in designs]
        calls, nan_at = [], [0]

        def factor(k):
            calls.append(1)
            lu = REAL_FACTOR(k)
            if len(calls) - 1 != nan_at[0]:
                return lu
            return types.SimpleNamespace(solve=lambda rhs: np.full_like(lu.solve(rhs), np.nan))

        monkeypatch.setattr(solver, "_factor", factor)
        with pytest.raises(fu.SingularSystemError, match="^solution is non-finite$"):
            context.cost(designs[2])
        calls.clear()
        nan_at[0] = 3
        costs = context.cost(designs)
        assert costs[3] == np.inf
        assert np.array_equal(np.delete(costs, 3), np.delete(alone, 3))

    def test_run_ga_counts_the_failed_design_once(self, monkeypatch):
        context, truth, lower, upper = small_context()
        config = fu.GAConfig(population_size=10, generations_max=4, rng_seed=1)
        calls = failing_on_call(monkeypatch, fail_at=5)
        _, history = fu.run_ga(context.cost, lower, upper, config)
        assert history.failed_evaluations == 1
        assert history.total_forward_solves == len(calls)
        assert np.isfinite(history.final.best_cost)


def bowl(c):
    """|x - c|^2 as a least-squares problem: r = x - c, J = I, no second derivative."""
    return lambda x: (float(np.sum((x - c) ** 2)), x - c, np.eye(x.size), None)


def nearly_linear():
    """r = A x - b + 1e-4 |x|^2 on six residuals, b noisy with sd 0.05, so
    the noise floor is (6 * 0.05^2, sqrt(12) * 0.05^2). Gauss-Newton from
    x = 0 lands next to the minimum in one step; without a floor it goes on
    to a tolerance stop. Returns (cost_and_jacobian, calls): calls holds
    the points evaluated."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 2))
    b = a @ np.array([0.3, -0.2]) + 0.05 * rng.normal(size=6)
    calls = []

    def cost_and_jacobian(x):
        calls.append(x.copy())
        r = a @ x - b + 1e-4 * (x @ x)
        return float(r @ r), r, a + 2e-4 * x, None

    return cost_and_jacobian, calls


def inverse_modulus(c):
    """r = 1/x - 1/c, a strain against its modulus: in ln x the residual
    bends, so a Gauss-Newton step toward a soft c overshoots. Returns
    (cost_and_jacobian, cost_and_derivatives): the first gives no second
    derivative (None), the second gives
    r'' = 2 x'^2 / x^3 - x'' / x^2 along a path of x."""
    def cost_and_jacobian(x):
        r = 1.0 / x - 1.0 / c
        return float(r @ r), r, np.diag(-1.0 / x**2), None

    def cost_and_derivatives(x):
        return (*cost_and_jacobian(x)[:3], lambda rate, acceleration: 2.0 * rate**2 / x**3 - acceleration / x**2)

    return cost_and_jacobian, cost_and_derivatives


NEARLY_LINEAR_FLOOR = (6 * 0.05**2, np.sqrt(12) * 0.05**2)


def rows(records, solves_before=0):
    """Records as comparable tuples, their forward-solve counts offset by ``solves_before``."""
    return [(r.stage, r.iteration, r.best_cost, r.design.tobytes(), solves_before + r.forward_solve_count)
            for r in records]


# Final cost of the Barzilai-Borwein gradient stage that projected
# Gauss-Newton replaced, on small_context from 1.4 x truth with the default
# GradConfig (33 forward solves). Frozen.
BB_FINAL_COST = 1.4364680772645086e-12


class TestRunGradient:
    def test_bowl_from_corner(self):
        c = np.array([1.0, -2.0, 0.5])
        x, history = fu.run_gradient(bowl(c), np.full(3, -5.0), np.full(3, -5.0), np.full(3, 5.0), fu.GradConfig())
        assert np.abs(x - c).max() < 1e-6

    def test_start_at_minimum_terminates_immediately(self):
        c = np.array([0.5, 0.5])
        x, history = fu.run_gradient(bowl(c), c.copy(), np.full(2, -1.0), np.full(2, 1.0), fu.GradConfig())
        assert len(history.records) == 1  # no accepted step needed
        assert np.array_equal(x, c)

    def test_converges_to_box_projection(self):
        c = np.array([10.0, -8.0, 2.0])
        x, _ = fu.run_gradient(bowl(c), np.zeros(3), np.full(3, -5.0), np.full(3, 5.0), fu.GradConfig())
        assert_allclose(x, np.clip(c, -5, 5), atol=1e-6)

    def test_pinned_coordinate_gradient_is_zeroed(self):
        c = np.array([0.7, -0.4, 0.2])
        lower = np.array([1.0, -1.0, -1.0])
        upper = np.array([1.0, 1.0, 1.0])

        def tilted(pinned_component):
            def cost_and_jacobian(x):
                f, r, jac, _ = bowl(c)(x)
                jac[0, 0] = pinned_component  # the pinned column, so its gradient 2 J^T r
                return f, r, jac, None
            return cost_and_jacobian

        x0, h0 = fu.run_gradient(tilted(0.0), np.zeros(3), lower, upper, fu.GradConfig())
        x1, h1 = fu.run_gradient(tilted(1e3), np.zeros(3), lower, upper, fu.GradConfig())
        assert x0[0] == x1[0] == 1.0
        assert_allclose(x0[1:], c[1:], atol=1e-6)
        assert len(h0.records) == len(h1.records)
        for r0, r1 in zip(h0.records, h1.records):
            assert r0.best_cost == r1.best_cost
            assert np.array_equal(r0.design, r1.design)

    def test_costs_non_increasing_and_in_bounds(self):
        context, truth, lower, upper = small_context()
        start = np.clip(truth * 1.4, lower, upper)
        x, history = fu.run_gradient(without_second(context), start, lower, upper, fu.GradConfig(max_iterations=20))
        costs = [r.best_cost for r in history.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        for r in history.records:
            assert np.all(r.design >= lower - 1e-12)
            assert np.all(r.design <= upper + 1e-12)

    def test_reaches_the_replaced_stage_cost_in_few_solves(self):
        context, truth, lower, upper = small_context()
        start = np.clip(truth * 1.4, lower, upper)
        _, history = fu.run_gradient(without_second(context), start, lower, upper, fu.GradConfig())
        assert history.final.best_cost <= BB_FINAL_COST
        assert history.total_forward_solves <= 12

    def test_zero_jacobian_column_leaves_coordinate_unmoved(self):
        c = np.array([0.7, -0.4, 0.2])

        def cost_and_jacobian(x):
            f, r, jac, _ = bowl(c)(x)
            r[1] = 0.0
            jac[:, 1] = 0.0  # the cost does not depend on x[1]
            return f - (x[1] - c[1]) ** 2, r, jac, None

        start = np.array([0.1, 0.3, -0.5])
        x, history = fu.run_gradient(cost_and_jacobian, start, np.full(3, -1.0), np.full(3, 1.0), fu.GradConfig())
        assert len(history.records) > 1
        for r in history.records:
            assert np.all(np.isfinite(r.design))
            assert r.design[1] == start[1]
        assert_allclose(x[[0, 2]], c[[0, 2]], atol=1e-6)

    def test_bound_whose_step_leaves_the_box_is_fixed(self):
        # a linear least-squares problem whose minimum (-2, 2) lies outside
        # the box: at the start (-1, 0) the descent direction keeps x[0] in
        # the box, but the Gauss-Newton step would take it out, so x[0] is
        # fixed and one step reaches the minimum on the face x[0] = -1
        a = np.array([[1.0, 0.9], [0.0, np.sqrt(0.19)]])
        b = a @ np.array([-2.0, 2.0])

        def cost_and_jacobian(x):
            r = a @ x - b
            return float(r @ r), r, a, None

        x, history = fu.run_gradient(cost_and_jacobian, np.array([-1.0, 0.0]), np.full(2, -1.0),
                                     np.full(2, 3.0), fu.GradConfig())
        assert len(history.records) == 2
        assert_allclose(x, [-1.0, 1.1], rtol=1e-12)

    def test_line_search_failure_sets_stalled_flag(self):
        # kink at the start point: every move increases the cost, but the
        # gradient there (sign(0) = 0, as a symmetric difference sees it)
        # is only the tiny linear tilt
        def cost_and_jacobian(x):
            g = np.sign(x - 0.3) - 1e-9
            return float(abs(x[0] - 0.3) - 1e-9 * x[0]), 0.5 * g, np.eye(1), None

        x, history = fu.run_gradient(
            cost_and_jacobian, np.array([0.3]), np.array([0.0]), np.array([1.0]), fu.GradConfig()
        )
        assert history.gradient_stalled
        assert x[0] == 0.3

    def test_failed_trial_solves_are_rejected(self):
        failing = []
        c = np.array([0.9, -0.4])

        def cost_and_jacobian(x):
            if x[0] > 0.5:  # the unconstrained minimum lies where every solve fails
                failing.append(x.copy())
                raise fu.SingularSystemError("stiffness is numerically singular")
            return bowl(c)(x)

        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        start = np.array([-0.5, 0.5])
        x, history = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig(max_iterations=30))
        assert history.final.best_cost < bowl(c)(start)[0]
        assert x[0] <= 0.5
        assert len(failing) > 0
        assert history.failed_evaluations == len(failing)
        with pytest.raises(fu.SingularSystemError):  # a failure at the start point is not a trial
            fu.run_gradient(cost_and_jacobian, np.array([0.8, 0.0]), lower, upper, fu.GradConfig())

    def test_failed_trials_not_repaid_each_step(self):
        # the same problem as above: after a line search that rejected a
        # failed trial, the next one starts no longer than the accepted step
        c = np.array([0.9, -0.4])

        def cost_and_jacobian(x):
            if x[0] > 0.5:
                raise fu.SingularSystemError("stiffness is numerically singular")
            return bowl(c)(x)

        _, history = fu.run_gradient(
            cost_and_jacobian, np.array([-0.5, 0.5]), np.full(2, -1.0), np.full(2, 1.0),
            fu.GradConfig(max_iterations=30),
        )
        accepted = len(history.records) - 1
        assert accepted > 0
        assert history.failed_evaluations <= 2 * accepted

    def test_positive_box_steps_in_log(self):
        """r(x) = ln x - ln c is linear in ln x, so from x = 1 on a positive
        box one step lands on c; a linear step from 1 would end at 1 + ln c."""
        c = np.array([0.05, 3.0, 70.0])

        def cost_and_jacobian(x):
            r = np.log(x) - np.log(c)
            return float(r @ r), r, np.diag(1.0 / x), None

        x, history = fu.run_gradient(cost_and_jacobian, np.ones(3), np.full(3, 1e-2), np.full(3, 1e2),
                                     fu.GradConfig())
        assert len(history.records) == 2
        assert history.total_forward_solves == 2
        assert_allclose(x, c, rtol=1e-14)

    def test_pinned_positive_coordinate_keeps_its_value(self):
        c = np.array([1.0, 3.0, 70.0])
        lower, upper = np.array([7.3, 1e-2, 1e-2]), np.array([7.3, 1e2, 1e2])

        def cost_and_jacobian(x):
            r = np.log(x) - np.log(c)
            return float(r @ r), r, np.diag(1.0 / x), None

        x, history = fu.run_gradient(cost_and_jacobian, np.array([7.3, 1.0, 1.0]), lower, upper, fu.GradConfig())
        assert len(history.records) > 1
        for r in history.records:
            assert r.design[0].tobytes() == np.float64(7.3).tobytes()
        assert_allclose(x[1:], c[1:], rtol=1e-14)

    def test_overflowing_log_step_clips_to_the_upper_bound(self):
        """From x = 1e-5 toward a minimum at 1e6 the log step is ~1e11, whose
        exp overflows; the trial point is the upper bound, with no
        RuntimeWarning (an error under the suite's warning filters)."""
        def cost_and_jacobian(x):
            r = x - 1e6
            return float(r @ r), r, np.eye(1), None

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, history = fu.run_gradient(cost_and_jacobian, np.array([1e-5]), np.array([1e-6]), np.array([1e2]),
                                         fu.GradConfig())
        assert x[0] == 1e2
        assert len(history.records) == 2

    def test_noisy_coupon_reaches_the_noise_floor_in_five_solves(self):
        """Gauss-Newton from the homogeneous guess on the noisy coupon: 5
        solves (7 with linear steps in E), ending within the noise floor."""
        context, truth, lower, upper = small_context(noise=0.01, seed=3, strain_floor=3e-5)
        x, history = fu.run_gradient(without_second(context), np.full(4, E0), lower, upper,
                                     fu.GradConfig(max_iterations=120))
        expected, sd = context.noise_floor()
        assert history.total_forward_solves <= 5
        assert (history.final.best_cost - expected) / sd <= 5.0
        assert np.abs(x - truth).max() / E0 < 0.01

    @pytest.mark.parametrize("noise_floor", [NEARLY_LINEAR_FLOOR, (0.2, 0.05)], ids=["start-above", "start-within"])
    def test_noise_floor_stops_before_a_negligible_step(self, noise_floor):
        """Once the cost lies within the noise floor and the next step would
        lower it by less than 1 % of sd, the run ends without evaluating a
        further point; its records are the first of the run without the
        floor. A start within the floor whose step would lower the cost by
        more still takes it."""
        cost_and_jacobian, calls = nearly_linear()
        lower, upper, start = np.full(2, -1.0), np.full(2, 1.0), np.zeros(2)
        _, alone = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig())
        assert alone.total_forward_solves > 2
        calls.clear()
        x, history = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig(),
                                     noise_floor=noise_floor)
        assert len(calls) == history.total_forward_solves == 2
        assert rows(history.records) == rows(alone.records[:2])
        assert np.array_equal(x, alone.records[1].design)
        expected, sd = noise_floor
        assert (history.final.best_cost - expected) / sd <= 5.0

    def test_noise_floor_below_every_cost_changes_nothing(self):
        """With z > 5 at every iterate the floor never stops the run: its
        records are bitwise those of the run without it."""
        cost_and_jacobian, _ = nearly_linear()
        lower, upper, start = np.full(2, -1.0), np.full(2, 1.0), np.zeros(2)
        x_alone, alone = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig())
        expected, sd = 0.0, 1e-4
        x, history = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig(),
                                     noise_floor=(expected, sd))
        assert all((r.best_cost - expected) / sd > 5.0 for r in history.records)
        assert rows(history.records) == rows(alone.records)
        assert history.total_forward_solves == alone.total_forward_solves
        assert np.array_equal(x, x_alone)

    def test_rejected_acceleration_leaves_plain_gauss_newton(self):
        """A geodesic acceleration that fails the ratio test 2 |a| <= 0.75 |d|
        is dropped: the run is bitwise that of a provider with no second
        derivative."""
        cost_and_jacobian, _ = inverse_modulus(np.array([0.3, 0.25, 2.0]))
        asked = []

        def too_curved(x):
            return (*cost_and_jacobian(x)[:3], lambda rate, acceleration: asked.append(1) or np.full(3, 1e3))

        lower, upper, start = np.full(3, 1e-2), np.full(3, 1e2), np.ones(3)
        x_plain, plain = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig())
        x, history = fu.run_gradient(too_curved, start, lower, upper, fu.GradConfig())
        assert asked
        assert rows(history.records) == rows(plain.records)
        assert np.array_equal(x, x_plain)

    def test_acceleration_follows_a_bending_path(self):
        """On r = 1/x - 1/c the step in ln x bends; with its exact second
        derivative the accelerated run reaches c in fewer solves."""
        c = np.array([0.8, 0.9, 1.2])
        cost_and_jacobian, cost_and_derivatives = inverse_modulus(c)
        lower, upper, start = np.full(3, 1e-2), np.full(3, 1e2), np.ones(3)
        _, plain = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig())
        x, history = fu.run_gradient(cost_and_derivatives, start, lower, upper, fu.GradConfig())
        assert history.total_forward_solves < plain.total_forward_solves
        assert_allclose(x, c, rtol=1e-10)

    def test_solve_count_audited(self):
        calls = [0]
        c = np.array([0.2, -0.4])

        def cost_and_jacobian(x):
            calls[0] += 1
            return bowl(c)(x)

        _, history = fu.run_gradient(cost_and_jacobian, np.zeros(2), np.full(2, -1.0), np.full(2, 1.0), fu.GradConfig())
        assert history.total_forward_solves == calls[0]
        # trailing evaluations only come from a final line search that failed
        assert history.final.forward_solve_count <= calls[0]

    def test_counts_the_models_factorizations_one_factor_at_a_time(self, monkeypatch):
        """On a CostContext, with the model on the history, after the start
        design was solved (as ``femupdate invert`` solves its residual maps
        at the guess): the first evaluation takes that solve, the count is
        the factorizations made, one per later evaluation, and no
        factorization starts while another factor is alive."""
        from femupdate import solver

        context, truth, lower, upper = small_context(noise=0.01, seed=3, strain_floor=3e-5)
        real = solver.splu
        alive, alive_at_factor, evaluations = [0], [], []

        class Factor:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs):
                return self._lu.solve(rhs)

        def released():
            alive[0] -= 1

        def splu(*args, **kwargs):
            alive_at_factor.append(alive[0])
            factor = Factor(real(*args, **kwargs))
            alive[0] += 1
            weakref.finalize(factor, released)
            return factor

        def provider(x):
            evaluations.append(1)
            return context.cost_and_derivatives(x)

        monkeypatch.setattr(solver, "splu", splu)
        start = np.full(4, E0)
        context.forward.solve_displacement(start)
        del alive_at_factor[:]
        history = fu.ConvergenceHistory(model=context.forward)
        fu.run_gradient(provider, start, lower, upper, fu.GradConfig(max_iterations=120), history,
                        context.noise_floor())
        assert len(evaluations) > 1
        assert len(alive_at_factor) == history.total_forward_solves == len(evaluations) - 1
        assert alive_at_factor == [0] * len(alive_at_factor)
        assert alive[0] == 1  # the last evaluation's, held by the model for the maps at the end


def never_evaluated(x):
    raise AssertionError("evaluated before the inputs were checked")


def start_optimizer(optimizer, lower, upper, start):
    lower, upper, start = np.array(lower), np.array(upper), np.array(start)
    if optimizer == "ga":
        return fu.run_ga(never_evaluated, lower, upper, fu.GAConfig(population_size=6, generations_max=2), start)
    return fu.run_gradient(never_evaluated, start, lower, upper, fu.GradConfig())


class TestInputChecks:
    """Both optimizers check bounds and start design in one helper, before
    their first evaluation."""

    @pytest.mark.parametrize("optimizer", ["ga", "gradient"])
    @pytest.mark.parametrize("lower, upper, message", [
        ([2e5, 3e5, 3e5], [2e5, 1e4, 1e4], "lower bounds exceed upper bounds"),
        ([1e4, -np.inf, 1e4], [3e5, 3e5, 3e5], "bounds must be finite"),
        ([1e4, 1e4, 1e4], [3e5, np.nan, 3e5], "bounds must be finite"),
    ])
    def test_bad_bounds_rejected(self, optimizer, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            start_optimizer(optimizer, lower, upper, [2e5, 1e5, 1e5])

    @pytest.mark.parametrize("optimizer, name", [("ga", "initial_guess"), ("gradient", "start_design")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_named(self, optimizer, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            start_optimizer(optimizer, np.full(3, 1e4), np.full(3, 3e5), [2e5, bad, 1e5])

    @pytest.mark.parametrize("optimizer", ["ga", "gradient"])
    @pytest.mark.parametrize("lower, upper", [
        (np.full(3, 1e4), np.full(2, 3e5)),
        (np.full((1, 3), 1e4), np.full((1, 3), 3e5)),
    ], ids=["lengths-3-2", "2-d"])
    def test_bounds_of_unlike_shapes_rejected(self, optimizer, lower, upper):
        with pytest.raises(ValueError, match="^lower and upper must be 1-D of one length"):
            start_optimizer(optimizer, lower, upper, [2e5, 1e5, 1e5])

    @pytest.mark.parametrize("optimizer, name", [("ga", "initial_guess"), ("gradient", "start_design")])
    @pytest.mark.parametrize("start", [[0.5], [2e5, 1e5], [[2e5, 1e5, 1e5]]], ids=["one", "two", "2-d"])
    def test_start_of_another_shape_named(self, optimizer, name, start):
        with pytest.raises(ValueError, match=rf"^{name} must have shape \(3,\)"):
            start_optimizer(optimizer, np.zeros(3), np.full(3, 3e5), start)

    @pytest.mark.parametrize("lower, upper, guess, message", [
        (np.zeros(3), np.ones(2), None, "lower and upper must be 1-D of one length"),
        (np.zeros(3), np.ones(3), np.full(2, 0.5), r"initial_guess must have shape \(3,\)"),
    ], ids=["bounds", "guess"])
    def test_hybrid_rejects_unlike_shapes_before_any_solve(self, lower, upper, guess, message):
        context = types.SimpleNamespace(cost=never_evaluated, cost_and_derivatives=never_evaluated,
                                        noise_floor=lambda: None)
        with pytest.raises(ValueError, match=message):
            fu.run_hybrid(context, lower, upper, fu.GAConfig(population_size=6), fu.GradConfig(), initial_guess=guess)

    def test_hybrid_rejects_a_non_finite_guess_before_any_solve(self):
        context = types.SimpleNamespace(cost=never_evaluated, cost_and_derivatives=never_evaluated,
                                        noise_floor=lambda: None)
        with pytest.raises(ValueError, match="initial_guess must be finite"):
            fu.run_hybrid(context, np.array([-2.0]), np.array([2.0]), fu.GAConfig(population_size=6),
                          fu.GradConfig(), initial_guess=np.array([np.nan]))


def earlier_history():
    """A history that already holds two records, 9 forward solves and 2
    failed evaluations."""
    history = fu.ConvergenceHistory(total_forward_solves=9, failed_evaluations=2)
    history.append("EARLIER", 0, 5.0, np.ones(2))
    history.append("EARLIER", 1, 4.0, np.ones(2))
    return history


class TestSharedHistory:
    """An optimizer given a history appends to it: the records already there
    stay, its own follow with their counts offset by the solves before."""

    def test_run_gradient_appends_after_earlier_records(self):
        c = np.array([0.9, -0.4])
        calls = [0]

        def cost_and_jacobian(x):
            calls[0] += 1
            if x[0] > 0.5:  # failed trials are counted as solves too
                raise fu.SingularSystemError("stiffness is numerically singular")
            return bowl(c)(x)

        lower, upper, start = np.full(2, -1.0), np.full(2, 1.0), np.array([-0.5, 0.5])
        _, alone = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig(max_iterations=30))
        own_calls, calls[0] = calls[0], 0
        assert alone.failed_evaluations > 0
        given = earlier_history()
        earlier = list(given.records)
        x, history = fu.run_gradient(cost_and_jacobian, start, lower, upper, fu.GradConfig(max_iterations=30),
                                     history=given)
        assert history is given
        assert [id(r) for r in history.records[:2]] == [id(r) for r in earlier]
        assert rows(history.records[2:]) == rows(alone.records, 9)
        assert history.total_forward_solves == 9 + calls[0] == 9 + own_calls
        assert history.failed_evaluations == 2 + alone.failed_evaluations
        assert np.array_equal(x, alone.final.design)

    def test_run_ga_appends_after_earlier_records(self):
        calls = [0]

        def cost(x):
            calls[0] += len(x)
            return np.sum((x - 0.3) ** 2, axis=-1)

        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        config = fu.GAConfig(population_size=10, generations_max=8, rng_seed=3)
        _, alone = fu.run_ga(cost, lower, upper, config)
        own_calls, calls[0] = calls[0], 0
        given = earlier_history()
        earlier = list(given.records)
        best, history = fu.run_ga(cost, lower, upper, config, history=given)
        assert history is given
        assert [id(r) for r in history.records[:2]] == [id(r) for r in earlier]
        assert rows(history.records[2:]) == rows(alone.records, 9)
        assert history.total_forward_solves == 9 + calls[0] == 9 + own_calls
        assert history.failed_evaluations == 2

    def test_run_ga_returns_its_own_last_record(self):
        """Records a hook appends (as run_hybrid's Gauss-Newton runs do) come
        after the generation they ran at; the GA returns its own best."""
        cost = lambda x: np.sum((x - 0.3) ** 2, axis=-1)
        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        config = fu.GAConfig(population_size=10, generations_max=8, rng_seed=3)
        alone_best, alone = fu.run_ga(cost, lower, upper, config)
        given = fu.ConvergenceHistory()
        best, history = fu.run_ga(cost, lower, upper, config, history=given,
                                  after_generation=lambda r, _: given.append("HOOK", r.iteration, -1.0, np.zeros(2)))
        assert [r.stage for r in history.records] == [STAGE_GA, "HOOK"] * len(alone.records)
        assert rows(history.stage_records(STAGE_GA)) == rows(alone.records)
        assert history.final.stage == "HOOK"
        assert np.array_equal(best, alone_best)


class TiltedDoubleWell:
    """Least squares in one coordinate, r(x) = (x^2 - 1, 0.3 (x - 1)): the
    global minimum is 0 at x = 1, a local one lies near x = -0.95. Stands in
    for a CostContext: ``cost`` scores a stack (m, 1); the data are
    noiseless, so there is no noise floor. It has no forward model, so a
    history counts one forward solve per evaluated design."""

    forward = None

    def noise_floor(self):
        return None

    def cost(self, designs):
        x = designs[:, 0]
        return (x * x - 1) ** 2 + (0.3 * (x - 1)) ** 2

    def cost_and_derivatives(self, design):
        x = float(design[0])
        r = np.array([x * x - 1, 0.3 * (x - 1)])
        return float(np.sum(r**2)), r, np.array([[2 * x], [0.3]]), None


class LeftHalfFails(TiltedDoubleWell):
    """The tilted double well whose solves fail for x < 0: the GA scores
    those designs +inf and Gauss-Newton rejects them as trial points."""

    def cost(self, designs):
        return np.where(designs[:, 0] < 0, np.inf, super().cost(designs))

    def cost_and_derivatives(self, design):
        if design[0] < 0:
            raise fu.SingularSystemError("stiffness is numerically singular")
        return super().cost_and_derivatives(design)


class CostlierGaussNewton(TiltedDoubleWell):
    """The tilted double well whose ``cost_and_derivatives`` reports 1 more
    than ``cost`` at the same design, so every Gauss-Newton end costs more
    than a GA best below 1. Its Jacobian is negated for x < 0, so the step
    from there points uphill and the line search stalls."""

    def cost_and_derivatives(self, design):
        cost, r, j, second = super().cost_and_derivatives(design)
        return cost + 1.0, r, -j if design[0] < 0 else j, second


class NoisyTiltedDoubleWell(TiltedDoubleWell):
    """The tilted double well with a noise floor: two residuals of standard
    deviation 0.05, so the cost at the truth has mean 0.005 and sd 0.005.
    The local minimum costs ~0.35, z ~ 70."""

    def noise_floor(self):
        return 0.005, 0.005


# sha256 of the noiseless double-well runs of
# ``TestRunHybrid::test_noiseless_runs_keep_their_records_bitwise``, taken
# before ``run_hybrid`` first ran Gauss-Newton from the guess on noisy data.
NOISELESS_DOUBLE_WELL_SHA256 = "90237e2c7baf701235187cbbe15383f966651c2edfb51c77d2de77c13b6ae690"


def generation0_runner_up(cost, lower, upper, ga, guess):
    """The runner-up ``run_ga`` hands its hook at generation 0."""
    seen = []
    fu.run_ga(cost, lower, upper, ga, guess, after_generation=lambda r, u: seen.append(u) or True)
    return seen[0]


def gauss_newton_starts(history):
    """Index and start design of each Gauss-Newton run, in run order."""
    return [(i, r.design) for i, r in enumerate(history.records) if r.stage == STAGE_GRADIENT and r.iteration == 0]


def assert_no_start_twice(history):
    starts = [d.tobytes() for _, d in gauss_newton_starts(history)]
    assert len(set(starts)) == len(starts)


@pytest.fixture(scope="module")
def hybrid_run():
    context, truth, lower, upper = small_context()
    ga = fu.GAConfig(population_size=16, generations_max=15, rng_seed=4)
    grad = fu.GradConfig(max_iterations=120)
    final, history = fu.run_hybrid(context, lower, upper, ga, grad, initial_guess=np.full(4, E0))
    return context, truth, lower, upper, ga, grad, final, history


class TestRunHybrid:

    def test_recovers_truth(self, hybrid_run):
        _, truth, _, _, _, _, final, history = hybrid_run
        assert np.abs(final - truth).max() / E0 < 0.01
        assert history.final.best_cost <= history.stage_records(STAGE_GA)[-1].best_cost

    def test_stages_are_tagged_and_counted(self, hybrid_run):
        *_, final, history = hybrid_run
        stages = {r.stage for r in history.records}
        assert stages == {STAGE_GA, STAGE_GRADIENT}
        counts = [r.forward_solve_count for r in history.records]
        assert all(b >= a for a, b in zip(counts, counts[1:]))  # shared cumulative counter
        assert_no_start_twice(history)

    def test_hybrid_not_worse_than_ga_alone(self, hybrid_run):
        context, truth, lower, upper, ga, grad, final, history = hybrid_run
        _, ga_history = fu.run_ga(context.cost, lower, upper, ga,
                                  initial_guess=np.full(4, E0))
        assert history.final.best_cost <= ga_history.final.best_cost
        # same seed: each GA generation of the hybrid is that of the GA-only run
        hybrid_ga = history.stage_records(STAGE_GA)
        assert len(hybrid_ga) <= len(ga_history.records)
        for mine, alone in zip(hybrid_ga, ga_history.records):
            assert mine.iteration == alone.iteration
            assert mine.best_cost == alone.best_cost
            assert np.array_equal(mine.design, alone.design)

    def test_stops_when_two_handoffs_agree(self, hybrid_run):
        """The generation-0 handoff meets its partner, Gauss-Newton from the
        generation-0 runner-up, at one minimizer, so the GA stops before it
        breeds."""
        context, truth, lower, upper, ga, grad, final, history = hybrid_run
        ga_records = history.stage_records(STAGE_GA)
        assert ga_records[-1].iteration == 0
        runner_up = generation0_runner_up(context.cost, lower, upper, ga, np.full(4, E0))
        assert runner_up.tobytes() != ga_records[0].design.tobytes()
        _, partner = fu.run_gradient(context.cost_and_derivatives, runner_up, lower, upper, grad)
        _, handoff = fu.run_gradient(context.cost_and_derivatives, ga_records[0].design, lower, upper, grad)
        # the partner, then the handoff, both after the GA record of generation 0
        solves = ga_records[0].forward_solve_count
        assert rows(history.records) == (
            rows(ga_records)
            + rows(partner.records, solves)
            + rows(handoff.records, solves + partner.total_forward_solves)
        )
        assert np.array_equal(final, handoff.final.design)
        assert_no_start_twice(history)
        # fewer solves than the GA run to its cap and one Gauss-Newton run after it
        ga_best, ga_history = fu.run_ga(context.cost, lower, upper, ga, initial_guess=np.full(4, E0))
        _, gn_history = fu.run_gradient(context.cost_and_derivatives, ga_best, lower, upper, grad)
        assert history.total_forward_solves < ga_history.total_forward_solves + gn_history.total_forward_solves

    def test_no_rerun_from_a_design_already_handed_off(self):
        """On a tilted double well the generation-0 partner ends in the local
        minimum and the handoff in the global one, so the GA goes on. Its best
        does not move by generation 4, so that handoff reuses the end of the
        generation-0 one (no solves, no second run from one design) and the GA
        stops there; the end is logged once more as the result."""
        problem, lower, upper, guess = TiltedDoubleWell(), np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        ga, grad = fu.GAConfig(population_size=6, generations_max=20, rng_seed=7), fu.GradConfig()
        final, history = fu.run_hybrid(problem, lower, upper, ga, grad, initial_guess=guess)
        ga_records = history.stage_records(STAGE_GA)
        assert ga_records[-1].iteration == 4
        assert ga_records[4].design.tobytes() == ga_records[0].design.tobytes()
        runner_up = generation0_runner_up(problem.cost, lower, upper, ga, guess)
        _, partner = fu.run_gradient(problem.cost_and_derivatives, runner_up, lower, upper, grad)
        _, handoff = fu.run_gradient(problem.cost_and_derivatives, ga_records[0].design, lower, upper, grad)
        assert partner.final.design[0] < 0 < handoff.final.design[0]
        assert rows(history.records) == (
            rows(ga_records[:1])
            + rows(partner.records, ga_records[0].forward_solve_count)
            + rows(handoff.records, ga_records[0].forward_solve_count + partner.total_forward_solves)
            + rows(ga_records[1:])
            + rows(handoff.records[-1:], ga_records[-1].forward_solve_count - handoff.final.forward_solve_count)
        )
        _, alone = fu.run_ga(problem.cost, lower, upper, ga, guess)
        gn_solves = partner.total_forward_solves + handoff.total_forward_solves
        assert history.total_forward_solves == alone.records[4].forward_solve_count + gn_solves
        assert_no_start_twice(history)
        assert final[0] == handoff.final.design[0] == pytest.approx(1.0)

    def test_partner_in_another_basin_leaves_the_two_handoff_rule(self):
        """On a tilted double well the generation-0 runner-up lies in the
        basin of the local minimum and the generation-0 best in that of the
        global one: partner and handoff disagree, so the GA goes on until the
        handoffs of generations 0 and 4 agree."""
        problem, lower, upper, guess = TiltedDoubleWell(), np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        ga = fu.GAConfig(population_size=6, generations_max=20, rng_seed=2)
        final, history = fu.run_hybrid(problem, lower, upper, ga, fu.GradConfig(), initial_guess=guess)
        ga_records = history.stage_records(STAGE_GA)
        assert ga_records[-1].iteration == 4
        runner_up = generation0_runner_up(problem.cost, lower, upper, ga, guess)
        runs = [fu.run_gradient(problem.cost_and_derivatives, start, lower, upper, fu.GradConfig())[1]
                for start in (runner_up, ga_records[0].design, ga_records[4].design)]
        assert runs[0].final.design[0] < 0 < runs[1].final.design[0]
        g0, g4 = ga_records[0].forward_solve_count, ga_records[4].forward_solve_count
        assert rows(history.records) == (
            rows(ga_records[:1]) + rows(runs[0].records, g0) + rows(runs[1].records, g0 + runs[0].total_forward_solves)
            + rows(ga_records[1:]) + rows(runs[2].records, g4)
        )
        # the GA records are those of run_ga alone (their counts also hold the Gauss-Newton solves)
        _, alone = fu.run_ga(problem.cost, lower, upper, ga, guess)
        own = [(r.iteration, r.best_cost, r.design.tobytes()) for r in ga_records]
        assert own == [(r.iteration, r.best_cost, r.design.tobytes()) for r in alone.records[:5]]
        assert_no_start_twice(history)
        assert final[0] == pytest.approx(1.0)

    def test_runner_up_scoring_inf_is_never_a_gauss_newton_start(self):
        """Every generation-0 design but the guess fails: there is no runner-up,
        so generation 0 gets no check, and the handoffs of generations 4 and
        8 agree. No Gauss-Newton run starts from a design that failed."""
        problem, lower, upper, guess = LeftHalfFails(), np.array([-2.0]), np.array([2.0]), np.array([1.5])
        ga = fu.GAConfig(population_size=4, generations_max=20, rng_seed=26)
        assert generation0_runner_up(problem.cost, lower, upper, ga, guess) is None
        final, history = fu.run_hybrid(problem, lower, upper, ga, fu.GradConfig(), initial_guess=guess)
        ga_records = history.stage_records(STAGE_GA)
        assert ga_records[-1].iteration == 8
        assert ga_records[0].forward_solve_count == 4
        assert history.failed_evaluations >= 3
        starts = gauss_newton_starts(history)
        assert starts[0][0] == 5  # after the GA records of generations 0-4
        assert [d.tobytes() for _, d in starts] == [ga_records[4].design.tobytes(), ga_records[8].design.tobytes()]
        assert all(d[0] >= 0 for _, d in starts)
        assert_no_start_twice(history)
        assert final[0] == pytest.approx(1.0)

    def test_failed_ga_best_gets_no_handoff(self):
        """From a guess that fails, the GA's best still fails at the
        generation-4 handoff: Gauss-Newton does not start from it, and a later
        generation's finite best leads to the global minimum."""
        problem, lower, upper, guess = LeftHalfFails(), np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        ga = fu.GAConfig(population_size=4, generations_max=16, rng_seed=22)
        final, history = fu.run_hybrid(problem, lower, upper, ga, fu.GradConfig(), initial_guess=guess)
        assert history.stage_records(STAGE_GA)[4].best_cost == np.inf
        assert all(d[0] >= 0 for _, d in gauss_newton_starts(history))
        assert final[0] == pytest.approx(1.0)
        assert history.final.best_cost == 0.0

    def test_ga_with_every_design_failed_raises(self):
        problem, lower, upper, guess = LeftHalfFails(), np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        ga = fu.GAConfig(population_size=4, generations_max=16, rng_seed=25)
        with pytest.raises(fu.NumericalError, match=r"every design the GA scored failed \(failed_evaluations = \d+\)"):
            fu.run_hybrid(problem, lower, upper, ga, fu.GradConfig(), initial_guess=guess)

    def test_stalled_flag_is_that_of_the_returned_run(self):
        """Of the three Gauss-Newton runs only the generation-0 partner's line
        search stalls; the returned end is that of the run from the GA best,
        which did not stall, so the hybrid's flag is False."""
        problem, lower, upper, guess = NoisyTiltedDoubleWell(), np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        grad = fu.GradConfig()
        final, history = fu.run_hybrid(problem, lower, upper, fu.GAConfig(4, 8, 6), grad, initial_guess=guess)
        runs = [fu.run_gradient(problem.cost_and_derivatives, start, lower, upper, grad)
                for _, start in gauss_newton_starts(history)]
        assert [alone.gradient_stalled for _, alone in runs] == [False, True, False]
        ga_best = history.stage_records(STAGE_GA)[-1].design
        assert np.array_equal(gauss_newton_starts(history)[-1][1], ga_best)
        assert np.array_equal(final, runs[-1][0])
        assert not history.gradient_stalled

    def test_ga_best_cheaper_than_its_gauss_newton_end_is_returned(self):
        """The run from the GA best (x < 0) ends costing more than the GA
        best itself, so the GA best is returned, and the hybrid's stalled
        flag is that run's (True), not the partner's (False)."""
        problem, lower, upper, guess = CostlierGaussNewton(), np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        grad = fu.GradConfig()
        final, history = fu.run_hybrid(problem, lower, upper, fu.GAConfig(4, 8, 0), grad, initial_guess=guess)
        ga_best = history.stage_records(STAGE_GA)[-1]
        starts = gauss_newton_starts(history)
        assert np.array_equal(starts[-1][1], ga_best.design) and ga_best.design[0] < 0
        runs = [fu.run_gradient(problem.cost_and_derivatives, start, lower, upper, grad)[1] for _, start in starts]
        assert runs[-1].final.best_cost > ga_best.best_cost
        assert np.array_equal(final, ga_best.design)
        assert [run.gradient_stalled for run in runs] == [False, True]
        assert history.gradient_stalled

    def test_noisy_fit_at_the_floor_skips_the_ga(self):
        """Gauss-Newton from the guess ends within the noise floor, so the
        hybrid is that one run: no GA records, its solves only."""
        context, truth, lower, upper = small_context(noise=0.01, seed=3, strain_floor=3e-5)
        ga = fu.GAConfig(population_size=16, generations_max=15, rng_seed=4)
        grad = fu.GradConfig(max_iterations=120)
        final, history = fu.run_hybrid(context, lower, upper, ga, grad, initial_guess=np.full(4, E0))
        refined, alone = fu.run_gradient(context.cost_and_derivatives, np.full(4, E0), lower, upper, grad,
                                         noise_floor=context.noise_floor())
        assert history.stage_records(STAGE_GA) == []
        assert rows(history.records) == rows(alone.records)
        assert history.total_forward_solves == alone.total_forward_solves
        assert np.array_equal(final, refined)
        # expected and sd written out from the measurement, component by component
        field, sigma = context.measurement, context.measurement.noise_sigma
        s2 = np.concatenate([
            (sigma * np.sqrt(np.mean(c**2) / (1 + sigma**2)) / np.maximum(np.abs(c), 3e-5)) ** 2
            for c in (field.exx, field.eyy, field.exy)
        ])
        expected, sd = s2.sum(), np.sqrt(2 * np.sum(s2**2))
        assert context.noise_floor() == pytest.approx((expected, sd), rel=1e-12)
        assert (history.final.best_cost - expected) / sd <= 5.0
        assert np.abs(final - truth).max() / E0 < 0.01

    def test_noisy_coupon_stops_at_the_floor_in_four_solves(self):
        """Gauss-Newton from the guess stops once its next step would lower
        the cost by less than 1 % of the noise sd: at most 4 solves (3 here;
        the run without the floor takes 5), within the floor and 1 % of the
        truth."""
        context, truth, lower, upper = small_context(noise=0.01, seed=3, strain_floor=3e-5)
        ga = fu.GAConfig(population_size=16, generations_max=15, rng_seed=4)
        final, history = fu.run_hybrid(context, lower, upper, ga, fu.GradConfig(max_iterations=120),
                                       initial_guess=np.full(4, E0))
        expected, sd = context.noise_floor()
        assert history.total_forward_solves <= 4
        assert (history.final.best_cost - expected) / sd <= 5.0
        assert np.abs(final - truth).max() / E0 < 0.01

    def test_gauss_newton_off_the_floor_runs_the_ga(self):
        """On a tilted double well with a noise floor, Gauss-Newton from the
        guess ends in the local minimum, far above the floor, so the GA
        runs after it as in the noiseless hybrid and finds x = 1."""
        problem = NoisyTiltedDoubleWell()
        lower, upper, guess = np.array([-2.0]), np.array([2.0]), np.array([-1.5])
        ga, grad = fu.GAConfig(population_size=6, generations_max=20, rng_seed=7), fu.GradConfig()
        final, history = fu.run_hybrid(problem, lower, upper, ga, grad, initial_guess=guess)
        _, first = fu.run_gradient(problem.cost_and_derivatives, guess, lower, upper, grad)
        expected, sd = problem.noise_floor()
        assert first.final.design[0] < 0
        assert (first.final.best_cost - expected) / sd > 5.0
        n = len(first.records)
        assert rows(history.records[:n]) == rows(first.records)
        # the GA records are those of run_ga alone (their counts also hold the Gauss-Newton solves)
        _, alone = fu.run_ga(problem.cost, lower, upper, ga, guess)
        ga_records = history.stage_records(STAGE_GA)
        own = [(r.iteration, r.best_cost, r.design.tobytes()) for r in ga_records]
        assert own == [(r.iteration, r.best_cost, r.design.tobytes()) for r in alone.records[:len(own)]]
        assert_no_start_twice(history)
        assert final[0] == pytest.approx(1.0)
        assert (history.final.best_cost - expected) / sd <= 5.0

    def test_noiseless_runs_keep_their_records_bitwise(self):
        """Without a noise floor there is no Gauss-Newton run before the GA:
        the records, answers and counts of ten noiseless double-well runs
        are bitwise those taken before that run was added."""
        digest = hashlib.sha256()
        for seed in range(10):
            ga = fu.GAConfig(population_size=6, generations_max=20, rng_seed=seed)
            final, history = fu.run_hybrid(TiltedDoubleWell(), np.array([-2.0]), np.array([2.0]), ga,
                                           fu.GradConfig(), initial_guess=np.array([-1.5]))
            assert history.records[0].stage == STAGE_GA
            for r in history.records:
                digest.update(f"{r.stage},{r.iteration},{r.best_cost.hex()},{r.design.tobytes().hex()},"
                              f"{r.forward_solve_count};".encode())
            digest.update(f"{final.tobytes().hex()},{history.total_forward_solves},"
                          f"{history.failed_evaluations}\n".encode())
        assert digest.hexdigest() == NOISELESS_DOUBLE_WELL_SHA256

    @pytest.mark.parametrize("noise, generations_max", [(0.0, 3), (0.0, 15), (0.01, 15)])
    def test_returned_design_costs_the_final_record(self, noise, generations_max):
        """The design run_hybrid returns costs bitwise what its history's last
        record says, which is the final cost the CLI reports."""
        context, truth, lower, upper = small_context(noise=noise, seed=3)
        ga = fu.GAConfig(population_size=16, generations_max=generations_max, rng_seed=4)
        final, history = fu.run_hybrid(context, lower, upper, ga, fu.GradConfig(max_iterations=120),
                                       initial_guess=np.full(4, E0))
        assert context.cost(final) == history.final.best_cost

    @pytest.mark.parametrize("generations_max", [3, 4, 15])
    def test_generation_0_pair_at_every_cap(self, generations_max):
        """Whatever the GA's cap, its generation-0 handoff is compared with
        the partner run from the generation-0 runner-up. Both end at one
        minimizer, so the GA stops before it breeds, with fewer solves than
        run_ga to its cap followed by one run_gradient from its best."""
        context, truth, lower, upper = small_context()
        guess = np.full(4, E0)
        ga = fu.GAConfig(population_size=16, generations_max=generations_max, rng_seed=4)
        grad = fu.GradConfig(max_iterations=120)
        final, history = fu.run_hybrid(context, lower, upper, ga, grad, initial_guess=guess)
        ga_records = history.stage_records(STAGE_GA)
        assert [r.iteration for r in ga_records] == [0]
        runner_up = generation0_runner_up(context.cost, lower, upper, ga, guess)
        _, partner = fu.run_gradient(context.cost_and_derivatives, runner_up, lower, upper, grad)
        refined, handoff = fu.run_gradient(context.cost_and_derivatives, ga_records[0].design, lower, upper, grad)
        solves = ga_records[0].forward_solve_count
        assert rows(history.records) == (
            rows(ga_records)
            + rows(partner.records, solves)
            + rows(handoff.records, solves + partner.total_forward_solves)
        )
        assert np.array_equal(final, refined)
        ga_best, ga_history = fu.run_ga(context.cost, lower, upper, ga, initial_guess=guess)
        _, gn_history = fu.run_gradient(context.cost_and_derivatives, ga_best, lower, upper, grad)
        assert history.total_forward_solves < ga_history.total_forward_solves + gn_history.total_forward_solves

    def test_same_seeds_identical_run(self, hybrid_run):
        context, truth, lower, upper, ga, grad, final, history = hybrid_run
        final2, history2 = fu.run_hybrid(context, lower, upper, ga, grad, initial_guess=np.full(4, E0))
        assert np.array_equal(final, final2)
        assert len(history.records) == len(history2.records)
        for r1, r2 in zip(history.records, history2.records):
            assert r1.stage == r2.stage
            assert r1.best_cost == r2.best_cost
            assert np.array_equal(r1.design, r2.design)
            assert r1.forward_solve_count == r2.forward_solve_count
