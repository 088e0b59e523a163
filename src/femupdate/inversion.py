"""Modulus identification: relative-residual cost and hybrid optimization.

The cost compares measured and computed strain fields point by point,
normalizing each residual by the measured strain magnitude (floored to
keep near-zero measurements from dominating), and sums the squared ratios
over all grid points, components and load steps.

Minimization runs in two stages: a real-coded genetic algorithm explores
the bounded design space, then projected gradient descent with Armijo
backtracking refines the best individual. Its gradients are exact adjoint
sensitivities: one factorization of K(E) serves the forward solve and the
adjoint solve, so a cost and its gradient cost one forward solve. Both
stages are deterministic given their seeds and log every iterate into a
ConvergenceHistory. ``fd_gradient`` remains as a finite-difference oracle
for checking gradients.
"""

from dataclasses import dataclass, field

import numpy as np

from .measurement import ExperimentalField, Interpolator
from .solver import BoundaryConditions, ForwardModel
from .geometry import Mesh, PatchMap

STAGE_GA = "GA"
STAGE_GRADIENT = "GRADIENT"
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class GAConfig:
    """Real-coded GA settings: tournament selection, blend crossover,
    Gaussian mutation, elitism, and a stall-window stop."""

    population_size: int = 40
    generations_max: int = 60
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    mutation_scale: float = 0.1
    elite_count: int = 2
    tournament_size: int = 3
    stall_generations: int = 15
    rel_tol: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.elite_count < 1 or self.elite_count >= self.population_size:
            raise ValueError("elite_count must satisfy 1 <= elite_count < population_size")
        if self.population_size < 2 * self.elite_count:
            raise ValueError("population_size must be >= 2 * elite_count")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.mutation_scale < 0:
            raise ValueError("mutation_scale must be >= 0")
        if not (2 <= self.tournament_size <= self.population_size):
            raise ValueError("tournament_size must satisfy 2 <= size <= population_size")
        if self.generations_max < 1 or self.stall_generations < 1:
            raise ValueError("generations_max and stall_generations must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class GradConfig:
    """Projected-gradient settings: Armijo line search and gradient / step
    stopping tolerances."""

    max_iterations: int = 300
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    grad_tol: float = 1e-10
    step_tol: float = 1e-12

    def __post_init__(self):
        for name in ("max_iterations", "grad_tol", "step_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.armijo_c < 1.0):
            raise ValueError("armijo_c must be in (0, 1)")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtrack_factor must be in (0, 1)")


@dataclass(frozen=True)
class ConvergenceRecord:
    stage: str
    iteration: int
    best_cost: float
    design: np.ndarray
    forward_solve_count: int


@dataclass
class ConvergenceHistory:
    """Per-iteration log of the optimization, both stages concatenated.

    Records carry the cumulative forward-solve count at the time they were
    written; ``total_forward_solves`` additionally includes the trial
    points of a final line search that found no acceptable step.
    """

    records: list = field(default_factory=list)
    gradient_stalled: bool = False
    total_forward_solves: int = 0

    def append(self, stage, iteration, best_cost, design, forward_solve_count):
        self.records.append(
            ConvergenceRecord(stage, iteration, float(best_cost), np.array(design), forward_solve_count)
        )

    def extend(self, other: "ConvergenceHistory") -> None:
        self.records.extend(other.records)
        self.gradient_stalled = self.gradient_stalled or other.gradient_stalled
        self.total_forward_solves = max(self.total_forward_solves, other.total_forward_solves)

    @property
    def final(self) -> ConvergenceRecord:
        return self.records[-1]

    def stage_records(self, stage: str) -> list:
        return [r for r in self.records if r.stage == stage]


class _CountingCost:
    """Wraps a cost (or cost-and-gradient) function, counting every call:
    each one is one forward solve."""

    def __init__(self, fn, count: int = 0):
        self.fn = fn
        self.count = count

    def __call__(self, x: np.ndarray):
        self.count += 1
        return self.fn(x)


def relative_residual_cost(
    exp_components: tuple, num_components: tuple, strain_floor: float
) -> float:
    """Sum of squared relative residuals over points and components.

    Each residual is divided by max(|measured value|, strain_floor).
    """
    if strain_floor <= 0:
        raise ValueError("strain_floor must be positive")
    total = 0.0
    for exp, num in zip(exp_components, num_components):
        exp = np.asarray(exp, dtype=float)
        num = np.asarray(num, dtype=float)
        denom = np.maximum(np.abs(exp), strain_floor)
        total += float(np.sum(((exp - num) / denom) ** 2))
    return total


class CostContext:
    """Everything needed to evaluate the misfit of a candidate design.

    Holds the forward model (mesh, patches, boundary conditions, Poisson
    ratio) and the measurements; precomputes the interpolation from FE
    sample points to the shared measurement grid. All measurements must
    share one grid; the forward solve is reused across load steps since
    the loading is a single prescribed-displacement case.
    """

    def __init__(
        self,
        mesh: Mesh,
        patch_map: PatchMap,
        bcs: BoundaryConditions,
        poisson_ratio: float,
        measurements: list[ExperimentalField],
        strain_floor: float = 1e-6,
    ):
        if len(measurements) < 1:
            raise ValueError("at least one measurement (load step) is required")
        if strain_floor <= 0:
            raise ValueError("strain_floor must be positive")
        grid = measurements[0].grid
        for m in measurements[1:]:
            if m.grid != grid:
                raise ValueError("all measurements must share one grid")
        self.mesh = mesh
        self.patch_map = patch_map
        self.bcs = bcs
        self.poisson_ratio = poisson_ratio
        self.measurements = list(measurements)
        self.strain_floor = float(strain_floor)
        self.grid = grid
        self.forward = ForwardModel(mesh, patch_map, poisson_ratio, bcs)
        self._interp = Interpolator(self.forward.surface_points, grid.points())

    def numerical_grid_field(self, design: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward solve and interpolate (exx, eyy, exy) onto the grid."""
        exx, eyy, exy = self.forward.surface_strain_arrays(design)
        return self._interp(exx), self._interp(eyy), self._interp(exy)

    def cost(self, design: np.ndarray) -> float:
        return self._misfit(self.numerical_grid_field(design))

    def cost_and_grad(self, design: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost and its exact gradient with respect to the patch moduli.

        One factorization and two triangular solves (forward and adjoint);
        the cost is bitwise the value ``cost`` returns.
        """
        strains, pullback = self.forward.strains_with_pullback(design)
        num = tuple(self._interp(s) for s in strains)
        d_num = [0.0, 0.0, 0.0]
        for m in self.measurements:
            for c, exp in enumerate((m.exx, m.eyy, m.exy)):
                denom = np.maximum(np.abs(exp), self.strain_floor)
                d_num[c] = d_num[c] - 2.0 * (exp - num[c]) / denom**2
        return self._misfit(num), pullback(*(self._interp.transpose(d) for d in d_num))

    def _misfit(self, num: tuple) -> float:
        return sum(
            relative_residual_cost((m.exx, m.eyy, m.exy), num, self.strain_floor)
            for m in self.measurements
        )


def evaluate_cost(design: np.ndarray, context: CostContext) -> float:
    """Misfit of ``design`` against the context's measurements (fresh solve)."""
    return context.cost(np.asarray(design, dtype=float))


def fd_gradient(
    cost_fn,
    design: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    fd_step_rel: float = 1e-6,
) -> np.ndarray:
    """Finite-difference gradient with per-coordinate step h_k = rel * range_k.

    Central differences where the stencil fits inside the bounds; second
    order one-sided stencils at the box faces. Coordinates with zero range
    (pinned entries) get a zero gradient component. The optimizer uses the
    adjoint gradient of ``CostContext.cost_and_grad``; this is the oracle
    that checks it.
    """
    x = np.asarray(design, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    grad = np.zeros_like(x)
    f0 = None
    for k in range(x.size):
        h = fd_step_rel * (upper[k] - lower[k])
        if h == 0.0:
            continue
        if x[k] + h <= upper[k] and x[k] - h >= lower[k]:
            xp = x.copy()
            xp[k] += h
            xm = x.copy()
            xm[k] -= h
            grad[k] = (cost_fn(xp) - cost_fn(xm)) / (2.0 * h)
        else:
            sign = 1.0 if x[k] + h > upper[k] else -1.0  # step away from the violated bound
            if f0 is None:
                f0 = cost_fn(x)
            x1 = x.copy()
            x1[k] -= sign * h
            x2 = x.copy()
            x2[k] -= 2.0 * sign * h
            grad[k] = sign * (3.0 * f0 - 4.0 * cost_fn(x1) + cost_fn(x2)) / (2.0 * h)
    return grad


def _blend_crossover(p1, p2, lower, upper, rng):
    """BLX-0.5: children uniform in the parent span widened by half on each side."""
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    span = hi - lo
    a = lo - 0.5 * span
    b = hi + 0.5 * span
    c1 = rng.uniform(a, b)
    c2 = rng.uniform(a, b)
    return np.clip(c1, lower, upper), np.clip(c2, lower, upper)


def _mutate(child, lower, upper, config, rng):
    mask = rng.random(child.size) < config.mutation_rate
    noise = rng.normal(0.0, 1.0, child.size) * (config.mutation_scale * (upper - lower))
    return np.clip(np.where(mask, child + noise, child), lower, upper)


def _tournament(costs, config, rng):
    idx = rng.choice(costs.size, size=config.tournament_size, replace=False)
    return idx[np.argmin(costs[idx])]


def run_ga(
    cost_fn,
    lower: np.ndarray,
    upper: np.ndarray,
    config: GAConfig,
    initial_guess: np.ndarray | None = None,
) -> tuple[np.ndarray, ConvergenceHistory]:
    """Explore the bounded design space with a real-coded GA.

    The initial population is the feasible ``initial_guess`` (bounds
    midpoint when omitted) plus uniform random individuals. Stops at
    ``generations_max`` or when the best cost improves by less than
    ``rel_tol`` (relative) over ``stall_generations`` generations.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
        raise ValueError("GA bounds must be finite")
    if np.any(lower > upper):
        raise ValueError("lower bounds exceed upper bounds")
    rng = np.random.default_rng(config.rng_seed)
    dim = lower.size
    counter = cost_fn if isinstance(cost_fn, _CountingCost) else _CountingCost(cost_fn)

    pop = np.empty((config.population_size, dim))
    guess = 0.5 * (lower + upper) if initial_guess is None else np.asarray(initial_guess, dtype=float)
    pop[0] = np.clip(guess, lower, upper)
    pop[1:] = rng.uniform(lower, upper, size=(config.population_size - 1, dim))
    costs = np.array([counter(ind) for ind in pop])

    history = ConvergenceHistory()
    best_per_gen = [float(costs.min())]
    best_idx = int(np.argmin(costs))
    history.append(STAGE_GA, 0, costs[best_idx], pop[best_idx], counter.count)

    for gen in range(1, config.generations_max + 1):
        order = np.argsort(costs, kind="stable")
        elites = pop[order[: config.elite_count]].copy()
        children = []
        while len(children) < config.population_size - config.elite_count:
            p1 = pop[_tournament(costs, config, rng)]
            p2 = pop[_tournament(costs, config, rng)]
            if rng.random() < config.crossover_rate:
                c1, c2 = _blend_crossover(p1, p2, lower, upper, rng)
            else:
                c1, c2 = p1.copy(), p2.copy()
            children.append(_mutate(c1, lower, upper, config, rng))
            if len(children) < config.population_size - config.elite_count:
                children.append(_mutate(c2, lower, upper, config, rng))
        pop = np.vstack([elites, np.array(children)])
        costs = np.array([counter(ind) for ind in pop])
        best_idx = int(np.argmin(costs))
        best_per_gen.append(float(costs[best_idx]))
        history.append(STAGE_GA, gen, costs[best_idx], pop[best_idx], counter.count)
        if gen >= config.stall_generations:
            ref = best_per_gen[gen - config.stall_generations]
            if ref - best_per_gen[gen] < config.rel_tol * max(abs(ref), 1e-300):
                break

    history.total_forward_solves = counter.count
    best = history.records[-1]
    return best.design.copy(), history


def run_gradient(
    cost_and_grad,
    start_design: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    config: GradConfig,
) -> tuple[np.ndarray, ConvergenceHistory]:
    """Projected gradient descent with Armijo backtracking inside the box.

    ``cost_and_grad(x)`` returns the cost and its exact gradient (for a
    CostContext, the adjoint sensitivities of ``CostContext.cost_and_grad``),
    so every evaluation costs one forward solve and the gradient of an
    accepted trial point serves the next iteration. Gradient components of
    pinned coordinates (``lower == upper``) are set to zero.

    The trial step length is initialized with alternating Barzilai-Borwein
    spectral estimates (plain gradient differences, no stored matrix),
    then backtracked until the projected Armijo condition
    f(x(t)) <= f(x) - (c/t) |x - x(t)|^2 holds, so accepted costs are
    strictly decreasing and every iterate stays inside the box. Stops on
    the projected-gradient infinity norm, on a relative step below
    ``step_tol``, or at ``max_iterations``; a failed line search sets the
    stalled flag and returns the current iterate.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(start_design, dtype=float), lower, upper)
    counter = cost_and_grad if isinstance(cost_and_grad, _CountingCost) else _CountingCost(cost_and_grad)
    span = upper - lower
    pinned = span == 0

    def evaluate(z):
        f_z, g_z = counter(z)
        return f_z, np.where(pinned, 0.0, g_z)

    f, grad = evaluate(x)
    history = ConvergenceHistory()
    history.append(STAGE_GRADIENT, 0, f, x, counter.count)

    max_span = float(span.max())
    x_prev = grad_prev = None
    t_accepted = None
    use_bb2 = False
    for it in range(1, config.max_iterations + 1):
        projected = x - np.clip(x - grad, lower, upper)
        if np.max(np.abs(projected)) < config.grad_tol:
            break
        t = None
        if x_prev is not None:
            s = x - x_prev
            y = grad - grad_prev
            sy = float(s @ y)
            if sy > 0:
                t = float(s @ s) / sy if not use_bb2 else sy / float(y @ y)
                use_bb2 = not use_bb2
            else:
                t = 2.0 * t_accepted
        if t is None or not np.isfinite(t) or t <= 0:
            t = 0.1 * max_span / float(np.max(np.abs(grad)))
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.clip(x - t * grad, lower, upper)
            step = x - x_new
            step_sq = float(np.dot(step, step))
            if step_sq == 0.0:
                t *= config.backtrack_factor
                continue
            f_new, grad_new = evaluate(x_new)
            if f_new <= f - (config.armijo_c / t) * step_sq:
                accepted = True
                break
            t *= config.backtrack_factor
        if not accepted:
            history.gradient_stalled = True
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            rel_step = np.where(span > 0, np.abs(x - x_new) / span, 0.0)
        x_prev, grad_prev = x, grad
        x, f, grad, t_accepted = x_new, f_new, grad_new, t
        history.append(STAGE_GRADIENT, it, f, x, counter.count)
        if float(rel_step.max()) < config.step_tol:
            break
    history.total_forward_solves = counter.count
    return x.copy(), history


def run_hybrid(
    context: CostContext,
    lower: np.ndarray,
    upper: np.ndarray,
    ga_config: GAConfig,
    grad_config: GradConfig,
    initial_guess: np.ndarray | None = None,
) -> tuple[np.ndarray, ConvergenceHistory]:
    """GA exploration followed by gradient refinement from the GA's best.

    The GA scores designs with ``context.cost``, the gradient stage with
    ``context.cost_and_grad``. The returned history concatenates both
    stages with a shared forward solve counter (one count per
    factorization); the final cost never exceeds the GA stage's best.
    """
    cost = _CountingCost(context.cost)
    ga_best, history = run_ga(cost, lower, upper, ga_config, initial_guess)
    cost_and_grad = _CountingCost(context.cost_and_grad, cost.count)
    refined, grad_history = run_gradient(cost_and_grad, ga_best, lower, upper, grad_config)
    history.extend(grad_history)
    history.total_forward_solves = cost_and_grad.count
    ga_final = history.stage_records(STAGE_GA)[-1].best_cost
    grad_final = history.stage_records(STAGE_GRADIENT)[-1].best_cost
    final = refined if grad_final <= ga_final else ga_best
    return final, history
