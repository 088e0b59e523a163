"""Modulus identification: relative-residual cost and hybrid optimization.

The cost compares one measured strain field with the computed one point
by point, normalizing each residual by the measured strain magnitude
(floored to keep near-zero measurements from dominating), and sums the
squared ratios over all grid points and components.

Minimization starts with projected Gauss-Newton with Armijo backtracking
from the initial guess. When the measurement carries a noise level, the
cost expected at the true moduli and its spread follow from it
(``CostContext.noise_floor``); an end within a few spreads of that
expectation explains the data to their noise, and is the answer, so this
run also stops once its next step would lower the cost by a negligible
fraction of the spread. Otherwise (noiseless data, a local minimum, or
model error) a real-coded genetic algorithm explores the bounded design
space, and at generation 0 and every few generations after it
Gauss-Newton refines its best individual (a handoff); the GA stops once
two consecutive handoffs reach the same minimizer. The generation-0
handoff is compared with a partner run from the GA's generation-0
runner-up, so the GA stops before it breeds when both runs reach one
minimizer. Gauss-Newton runs once per start design. The GA solves each
distinct design once: elites and children identical to an earlier
candidate reuse its cost, and the new designs of a generation are scored
as one stack.
The misfit is a sum of squared weighted residuals r(E), so the second
stage works on r and its exact Jacobian J = dr/dE, both from one
evaluation of ``CostContext.cost_and_derivatives``: one factorization
serves the forward solve and the P sensitivity solves (the structure of
Oberai, Gokhale & Feijoo, Inverse Problems 19, 2003), so a cost and its
Jacobian cost one forward solve. Each step fixes the active bounds, as in
Bertsekas' projected Newton method (SIAM J. Control Optim. 20, 1982), and
solves a linear least-squares problem over the free moduli. Moduli are
positive scale parameters and strains go roughly as 1/E, so the step is
taken in ln E (Tarantola, Inverse Problem Theory, SIAM 2005, section 1.2):
a linear step from a stiff guess overshoots a soft patch to its lower
bound, one in ln E lands near it. The strains still bend along a long
ln E step, so each step is corrected by its geodesic acceleration
(Transtrum & Sethna, arXiv:1201.5885, 2012), from the residuals' second
derivative along the step, which the factor of the evaluation already
made gives without a new factorization. That one evaluation is the only
derivative path from the forward model
(``ForwardModel.displacement_derivatives``) to the Gauss-Newton step.
Both stages are deterministic given their seeds and append every iterate
to one ConvergenceHistory, in run order, with their forward-solve count:
the factorizations the forward model made for their evaluations. The model keeps its last solve for one repeat
(``ForwardModel``), so an evaluation of the design just solved, such as
Gauss-Newton's first one at an initial guess the caller has solved, counts
none.
``fd_gradient`` remains as a finite-difference oracle for checking gradients.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .measurement import ExperimentalField, grid_strain_operator
from .solver import ForwardModel

STAGE_GA = "GA"
STAGE_GRADIENT = "GRADIENT"
# Projected Gauss-Newton (``run_gradient``): the Armijo sufficient-decrease
# constant and backtracking factor of its line search, and its stopping
# tolerances on the projected-gradient infinity norm (cost per modulus
# unit) and on the step relative to the bound range.
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_GRAD_TOL = 1e-10
_STEP_TOL = 1e-12
_MAX_BACKTRACKS = 40
# Real-coded GA (``run_ga``, whose docstring says how each one is used).
_CROSSOVER_RATE = 0.9
_MUTATION_RATE = 0.15
_MUTATION_SCALE = 0.1
_ELITE_COUNT = 2
_TOURNAMENT_SIZE = 3
_STALL_GENERATIONS = 15
_STALL_REL_TOL = 1e-3
# Hybrid (``run_hybrid``): GA generations between two Gauss-Newton
# handoffs, and the largest coordinate gap, relative to the bound range, at
# which two Gauss-Newton runs count as one minimizer.
_HANDOFF_GENERATIONS = 4
_SAME_MINIMIZER_TOL = 1e-6
# Largest z = (F - expected) / sd (``CostContext.noise_floor``) at which
# a cost counts as fitting the data to their noise: ``run_hybrid`` returns
# the end of Gauss-Newton from the initial guess without running the GA.
_NOISE_FLOOR_Z = 5.0
# Gauss-Newton given a noise floor stops at a cost within it once its next
# step would lower the cost by less than this many sd (``run_gradient``).
_NEGLIGIBLE_DECREASE_SD = 1e-2
# Geodesic acceleration (``run_gradient``): computed while the Gauss-Newton
# model predicts a decrease of at least this fraction of the cost, and kept
# when 2 |a| <= _ACCELERATION_RATIO |d| (Transtrum & Sethna, 2012).
_ACCELERATION_MIN_DECREASE = 1e-2
_ACCELERATION_RATIO = 0.75


@dataclass(frozen=True)
class GAConfig:
    """Settings of the real-coded GA (``run_ga``): its population size,
    generation cap and seed. Selection, crossover, mutation, elitism and
    the stall stop are fixed in code."""

    population_size: int = 40
    generations_max: int = 60
    rng_seed: int = 0

    def __post_init__(self):
        smallest = max(2 * _ELITE_COUNT, _TOURNAMENT_SIZE)
        if self.population_size < smallest:
            raise ValueError(f"population_size must be >= {smallest}")
        if self.generations_max < 1:
            raise ValueError("generations_max must be >= 1")


@dataclass(frozen=True)
class GradConfig:
    """Settings of the projected Gauss-Newton stage (``run_gradient``): its
    iteration cap. The line search and the tolerances are fixed in code."""

    max_iterations: int = 300

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class ConvergenceRecord:
    stage: str
    iteration: int
    best_cost: float
    design: np.ndarray
    forward_solve_count: int


@dataclass
class ConvergenceHistory:
    """Per-iteration log of the optimization, in run order (``run_hybrid``
    passes one history to the GA and to every Gauss-Newton run; the run
    from the initial guess on noisy data comes first, and the partner from
    the generation-0 runner-up after the GA's generation 0, before the
    generation-0 handoff).

    ``total_forward_solves`` is the running forward-solve count, which
    ``append`` stamps on each record; it also counts the trial points of a
    final line search that found no acceptable step. With ``model``, the
    ``ForwardModel`` the costs solve on, each evaluation adds the
    factorizations the model made for it (``ForwardModel.factorizations``),
    so one it serves from its held solve adds 0; without (a cost function
    with no model), each evaluated design adds 1, before it is evaluated.
    ``failed_evaluations`` counts the evaluations whose solve raised a
    NumericalError: distinct GA candidates, scored +inf, and Gauss-Newton
    line-search trials, rejected.
    """

    records: list = field(default_factory=list)
    gradient_stalled: bool = False
    total_forward_solves: int = 0
    failed_evaluations: int = 0
    model: ForwardModel | None = field(default=None, repr=False, compare=False)

    def append(self, stage, iteration, best_cost, design):
        self.records.append(
            ConvergenceRecord(stage, iteration, float(best_cost), np.array(design), self.total_forward_solves)
        )

    @contextmanager
    def counting(self, designs: int):
        """Add to ``total_forward_solves`` the forward solves of an
        evaluation of ``designs`` designs run inside the block."""
        if self.model is None:
            self.total_forward_solves += designs
            yield
            return
        before = self.model.factorizations
        try:
            yield
        finally:
            self.total_forward_solves += self.model.factorizations - before

    @property
    def final(self) -> ConvergenceRecord:
        return self.records[-1]

    def stage_records(self, stage: str) -> list:
        return [r for r in self.records if r.stage == stage]


class CostContext:
    """Everything needed to evaluate the misfit of a candidate design.

    Holds the ``ForwardModel`` it is given, ``forward`` (its mesh, patches,
    boundary conditions and Poisson ratio are the model's attributes), and
    one ``measurement``, stacked exx | eyy | exy with the residual weights
    1 / max(|measured|, strain_floor), and composes once the sparse
    operator M = ``grid_strain_operator`` from displacements to grid
    strains. The cost applies M to a forward solve, the Jacobian applies it
    to the displacement sensitivities. Raises OutOfDomainError when the
    grid does not fit the model's surface.
    """

    def __init__(self, forward: ForwardModel, measurement: ExperimentalField, strain_floor: float = 1e-6):
        if not 0 < strain_floor < np.inf:
            raise ValueError(f"strain_floor must be positive and finite, got {strain_floor}")
        self.forward = forward
        self.measurement = measurement
        self.strain_floor = float(strain_floor)
        self.grid = measurement.grid
        self._operator = grid_strain_operator(self.forward, self.grid)
        self._measured = np.concatenate([measurement.exx, measurement.eyy, measurement.exy])
        self._denominator = np.maximum(np.abs(self._measured), self.strain_floor)

    def noise_floor(self) -> tuple[float, float] | None:
        """(expected, sd): mean and standard deviation of the cost at the
        true moduli under the measurement's noise model, or None for a
        noiseless measurement (``noise_sigma`` 0, or an all-zero field) and
        for a strain floor below the noise, sigma rms_c, of any component.

        ``generate_synthetic`` adds to each component Gaussian noise of
        standard deviation sigma times the RMS of the clean component. That
        RMS is estimated as the measured component's over sqrt(1 + sigma^2).
        At the truth each residual is then s_i n_i, with
        s_i = sigma rms_c / max(|measured_i|, strain_floor) and n_i standard
        normal, so the cost is a weighted chi-square: expected = sum s_i^2,
        sd = sqrt(sum 2 s_i^4). A fit whose cost lies within a few sd of
        expected explains the data to their noise (Morozov's discrepancy
        principle, Soviet Math. Dokl. 7, 1966; Tarantola, Inverse Problem
        Theory, SIAM 2005, section 7). A floor below the noise lets measured
        strains near zero make this estimate run high: 1.4 times the Monte
        Carlo mean on the 10 x 4 test coupon with 1 % noise at a 1e-6 floor.
        """
        sigma = self.measurement.noise_sigma
        components = self._measured.reshape(3, -1)
        rms = np.sqrt(np.mean(components**2, axis=1)) / np.sqrt(1.0 + sigma**2)
        s2 = (sigma * np.repeat(rms, components.shape[1]) / self._denominator) ** 2
        sd = float(np.sqrt(np.sum(2.0 * s2**2)))
        holds = sd > 0 and np.all(self.strain_floor >= sigma * rms)
        return (float(np.sum(s2)), sd) if holds else None

    def numerical_grid_field(self, design: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward solve and map (exx, eyy, exy) onto the grid."""
        return tuple(np.split(self._operator @ self.forward.solve_displacement(design), 3))

    def residuals(self, computed: np.ndarray) -> np.ndarray:
        """r = (measured - computed) / max(|measured|, strain_floor) for grid
        strains stacked exx | eyy | exy, one field (n,) or a stack (m, n).
        C order makes ``np.sum(r**2, axis=-1)`` sum each row pairwise, as
        a 1-D array, so a design in a stack costs bitwise what it costs alone.
        """
        return (self._measured - np.ascontiguousarray(computed)) / self._denominator

    def cost(self, design: np.ndarray):
        """Misfit of ``design`` against the measurement; one forward solve.

        ``design`` is one design (P,), whose cost is a float, or a stack
        (m, P), whose costs are an array (m,), each bitwise the cost of its
        design alone. A stack costs one factorization per design, and every
        other step of the solve, the strain operator and the misfit runs
        once for the whole stack (``ForwardModel.solve_displacement``). A
        single design whose solve fails raises its NumericalError; in a
        stack, that design scores +inf and the others are unaffected.
        """
        u = self.forward.solve_displacement(design)
        costs = np.sum(self.residuals((self._operator @ u.T).T) ** 2, axis=-1)
        if u.ndim == 1:
            return float(costs)
        costs[np.isnan(u).any(axis=1)] = np.inf
        return costs

    def cost_and_derivatives(self, design: np.ndarray):
        """Cost, relative residuals, their exact Jacobian and their second
        derivative along a path, for one design.

        Returns (f, r, J, second): r from ``residuals``; f = sum(r**2),
        bitwise the value ``cost`` returns, which computes it the same way;
        J = dr/dE = -(M du/dE) / max(|measured|, strain_floor), one column
        per patch; and ``second(rate, acceleration)``, the second
        derivative r'' = -(M u'') / max(|measured|, strain_floor) along a
        path of moduli through ``design`` with that first and second
        derivative. All come from one ``ForwardModel.displacement_derivatives``:
        one factorization, shared by the forward solve and the P
        sensitivity solves, and ``second`` is one more single-column solve
        on it, no factorization. The gradient of the cost is 2 J^T r. This
        is ``run_gradient``'s provider shape.
        """
        u, du, u_second = self.forward.displacement_derivatives(design)
        r = self.residuals(self._operator @ u)
        jac = -(self._operator @ du) / self._denominator[:, None]

        def second(rate: np.ndarray, acceleration: np.ndarray) -> np.ndarray:
            return -(self._operator @ u_second(rate, acceleration)) / self._denominator

        return float(np.sum(r**2, axis=-1)), r, jac, second


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
    exact gradient 2 J^T r from ``CostContext.cost_and_derivatives``; this is
    the oracle that checks it.
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


def _mutate(child, lower, upper, rng):
    mask = rng.random(child.size) < _MUTATION_RATE
    noise = rng.normal(0.0, 1.0, child.size) * (_MUTATION_SCALE * (upper - lower))
    return np.clip(np.where(mask, child + noise, child), lower, upper)


def _tournament(costs, rng):
    idx = rng.choice(costs.size, size=_TOURNAMENT_SIZE, replace=False)
    return idx[np.argmin(costs[idx])]


def _next_generation(pop, costs, lower, upper, rng):
    """The ``_ELITE_COUNT`` best of ``pop``, then children of tournament winners."""
    n_children = pop.shape[0] - _ELITE_COUNT
    elites = pop[np.argsort(costs, kind="stable")[:_ELITE_COUNT]].copy()
    children = []
    while len(children) < n_children:
        p1 = pop[_tournament(costs, rng)]
        p2 = pop[_tournament(costs, rng)]
        if rng.random() < _CROSSOVER_RATE:
            c1, c2 = _blend_crossover(p1, p2, lower, upper, rng)
        else:
            c1, c2 = p1.copy(), p2.copy()
        children.append(_mutate(c1, lower, upper, rng))
        if len(children) < n_children:
            children.append(_mutate(c2, lower, upper, rng))
    return np.vstack([elites, np.array(children)])


def _checked_bounds(lower, upper, name: str, design) -> tuple[np.ndarray, np.ndarray]:
    """The bounds as float arrays; ValueError unless they are 1-D of one
    length, finite and not crossed, and ``design`` (when given) is finite
    and of their shape."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape:
        raise ValueError(f"lower and upper must be 1-D of one length, got shapes {lower.shape} and {upper.shape}")
    if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
        raise ValueError("bounds must be finite")
    if np.any(lower > upper):
        raise ValueError("lower bounds exceed upper bounds")
    if design is not None:
        design = np.asarray(design, dtype=float)
        if design.shape != lower.shape:
            raise ValueError(f"{name} must have shape {lower.shape}, got {design.shape}")
        if not np.all(np.isfinite(design)):
            raise ValueError(f"{name} must be finite")
    return lower, upper


def run_ga(
    cost_fn,
    lower: np.ndarray,
    upper: np.ndarray,
    config: GAConfig,
    initial_guess: np.ndarray | None = None,
    after_generation=None,
    history: ConvergenceHistory | None = None,
) -> tuple[np.ndarray, ConvergenceHistory]:
    """Explore the bounded design space with a real-coded GA.

    The initial population is the feasible ``initial_guess`` (bounds
    midpoint when omitted) plus uniform random individuals. Stops at
    ``config.generations_max`` or when the best cost improves by less
    than ``_STALL_REL_TOL`` (relative) over ``_STALL_GENERATIONS``
    generations. Each generation keeps the ``_ELITE_COUNT`` best designs
    and fills the rest with children of parents picked by tournaments of
    ``_TOURNAMENT_SIZE``: blend crossover with probability
    ``_CROSSOVER_RATE``, then Gaussian mutation of each coordinate with
    probability ``_MUTATION_RATE`` and standard deviation
    ``_MUTATION_SCALE`` times its bound range.

    ``cost_fn`` scores a stack of designs (m, dim) and returns their m
    costs; ``CostContext.cost`` does. Each generation makes at most one
    call: its distinct designs not scored before, in population order.
    Costs are cached per run by the design's bytes, so ``cost_fn`` sees
    each distinct design once: elites and repeated children reuse their
    bitwise-identical cost, and the forward-solve count is the number of
    distinct designs, less any the model serves from its held solve
    (``ConvergenceHistory.model``). The cache, the forward-solve count and
    the history therefore do not depend on how the designs are grouped. A design that
    scores +inf (in a ``CostContext.cost`` stack, one whose solve raised
    NumericalError) or NaN is scored +inf and counted in
    ``failed_evaluations``; the run goes on.
    Non-finite or crossed bounds and a non-finite ``initial_guess`` raise
    ValueError. Records go to ``history`` (a new one when None), and each
    stack's forward solves to its ``total_forward_solves``
    (``ConvergenceHistory.counting``). Returns the last GA record's design
    and the history.

    ``after_generation``, when given, is called with the record of each
    generation, once it is logged, and the generation's runner-up: its
    lowest-cost design that differs bitwise from the best and has a finite
    cost, in population order among equal costs (None when there is
    none). A true return stops the run at that generation, generation 0
    included. The hook sees no population and no random stream, so the
    records up to the stop are those of a run without it.
    """
    lower, upper = _checked_bounds(lower, upper, "initial_guess", initial_guess)
    rng = np.random.default_rng(config.rng_seed)
    dim = lower.size
    history = ConvergenceHistory() if history is None else history
    cache: dict = {}

    def score(pop):
        keys = [ind.tobytes() for ind in pop]
        new = {}  # key -> population index of its first occurrence, in population order
        for i, key in enumerate(keys):
            if key not in cache:
                new.setdefault(key, i)
        if new:
            with history.counting(len(new)):
                costs = np.asarray(cost_fn(pop[list(new.values())]), dtype=float)
            if costs.shape != (len(new),):
                raise ValueError(f"cost_fn returned shape {costs.shape} for {len(new)} designs")
            costs = np.where(np.isnan(costs), np.inf, costs)
            cache.update(zip(new, costs))
            history.failed_evaluations += int(np.count_nonzero(costs == np.inf))
        return np.array([cache[key] for key in keys])

    pop = np.empty((config.population_size, dim))
    guess = 0.5 * (lower + upper) if initial_guess is None else np.asarray(initial_guess, dtype=float)
    pop[0] = np.clip(guess, lower, upper)
    pop[1:] = rng.uniform(lower, upper, size=(config.population_size - 1, dim))
    best_per_gen = []
    for gen in range(config.generations_max + 1):
        if gen:
            pop = _next_generation(pop, costs, lower, upper, rng)
        costs = score(pop)
        best_idx = int(np.argmin(costs))
        best_per_gen.append(float(costs[best_idx]))
        history.append(STAGE_GA, gen, costs[best_idx], pop[best_idx])
        if after_generation is not None:
            best = pop[best_idx].tobytes()
            runner_up = next((pop[i].copy() for i in np.argsort(costs, kind="stable")
                              if costs[i] < np.inf and pop[i].tobytes() != best), None)
            if after_generation(history.final, runner_up):
                break
        if gen >= _STALL_GENERATIONS:
            ref = best_per_gen[gen - _STALL_GENERATIONS]
            if ref - best_per_gen[gen] < _STALL_REL_TOL * max(abs(ref), 1e-300):
                break

    return history.stage_records(STAGE_GA)[-1].design.copy(), history


def _free_least_squares(jac, rhs, free, norms) -> np.ndarray:
    """min |J_F s - rhs| over the free set F, solved with unit-norm columns;
    zero off F."""
    s = np.zeros(jac.shape[1])
    s[free] = np.linalg.lstsq(jac[:, free] / norms[free], rhs, rcond=None)[0] / norms[free]
    return s


def _gauss_newton_step(x, r, jac, norms, grad, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Projected Gauss-Newton direction: min |J_F d + r| over the free set F.

    F leaves out the coordinates whose column of J is zero (pinned ones
    included) and those at a bound where the descent direction -g points
    out of the box.
    The least-squares problem is solved with unit-norm columns (``norms``
    are the column norms of J). A free coordinate at a bound whose step
    would leave the box is then fixed too, and the problem solved again,
    so a short enough step moves no coordinate out of the box. Returns
    (d, F).
    """
    at_lower, at_upper = x <= lower, x >= upper
    free = (norms > 0) & ~(at_lower & (grad > 0)) & ~(at_upper & (grad < 0))
    step = np.zeros_like(x)
    while free.any():
        step = _free_least_squares(jac, -r, free, norms)
        outward = (at_lower & (step < 0)) | (at_upper & (step > 0))
        if not outward.any():
            break
        free &= ~outward
    return np.where(free, step, 0.0), free


def _geodesic_acceleration(r_second, jac, norms, direction, free) -> np.ndarray | None:
    """Geodesic acceleration of the step ``direction`` (Transtrum & Sethna,
    arXiv:1201.5885, 2012): a = argmin |J_F a + r''| over the step's free
    set F, with r'' = ``r_second`` the residuals' second derivative along
    the direction, solved with the column ``norms`` of the step, or None
    when 2 |a| > ``_ACCELERATION_RATIO`` |d| (the correction would not be
    small)."""
    acceleration = _free_least_squares(jac, -r_second, free, norms)
    if 2.0 * np.linalg.norm(acceleration) > _ACCELERATION_RATIO * np.linalg.norm(direction):
        return None
    return acceleration


def run_gradient(
    cost_and_derivatives,
    start_design: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    config: GradConfig,
    history: ConvergenceHistory | None = None,
    noise_floor: tuple[float, float] | None = None,
) -> tuple[np.ndarray, ConvergenceHistory]:
    """Projected Gauss-Newton refinement of a least-squares cost inside the box.

    ``cost_and_derivatives(x)`` returns (f, r, J, second): the cost
    f = |r|^2, the residual vector r, its Jacobian J = dr/dx, and
    ``second``, the residuals' second derivative along a path (below) or
    None for a provider without one. For a CostContext it is
    ``CostContext.cost_and_derivatives``: exact sensitivities at one
    forward solve per call, so the Jacobian of an accepted trial point
    serves the next iteration. The gradient is g = 2 J^T r; the columns
    of pinned coordinates (``lower == upper``) are set to zero, so they
    get a zero gradient and a zero step.

    A coordinate whose lower bound is positive (every modulus) steps in
    ln x, the others in x. Each iteration takes the Gauss-Newton direction
    d in those variables over the free coordinates (``_gauss_newton_step``
    on J and g with the log coordinates' columns scaled by x: the active
    set is fixed, as in Bertsekas' projected Newton method) and backtracks
    from t = 1 by ``_BACKTRACK_FACTOR`` until the projected Armijo condition
    f(x(t)) <= f(x) + c g^T (x(t) - x), with c = ``_ARMIJO_C``, holds.
    x(t) is clip(x exp(t d + t^2 a / 2)) on the log coordinates (an exp
    that overflows clips to the upper bound) and clip(x + t d + t^2 a / 2)
    on the others, so accepted costs decrease and every iterate stays
    inside the box. On a box that does not lie above zero every step is
    linear.

    a is the step's geodesic acceleration (Transtrum & Sethna,
    arXiv:1201.5885, 2012), zero when ``second`` is None. Otherwise
    ``second(rate, acceleration)`` is the second derivative r'' of r along
    a path of x through x with those first and second derivatives (for a
    CostContext, on the factor of its evaluation). Then, while the
    Gauss-Newton model predicts a decrease of at least
    ``_ACCELERATION_MIN_DECREASE`` times the cost, a = argmin |J_s a + r''|
    over d's free set, with r'' along the uncorrected path, solved with
    the column norms the step was solved with, and a is kept only if
    2 |a| <= ``_ACCELERATION_RATIO`` |d| (``_geodesic_acceleration``).
    The decrease gate keeps a run near a minimum from spending its steps
    on rounding; a dropped a, or a ``second`` of None, leaves the step
    bitwise that of plain Gauss-Newton. ``second`` is dropped before the
    line search evaluates, so the factor it holds is never held through
    another factorization.

    Stops on a projected-gradient infinity norm below ``_GRAD_TOL``, on a
    step relative to the bound range below ``_STEP_TOL``, or at
    ``config.max_iterations``; a failed line search sets the stalled flag
    and returns the current iterate. Given ``noise_floor`` = (expected, sd)
    (``CostContext.noise_floor``), it also stops before a step, with no
    further evaluation, when the cost lies within the floor
    (``_within_floor``) and the decrease the step predicts,
    -(2 r^T J_s d + |J_s d|^2) with J_s the Jacobian in the step's
    variables, is below ``_NEGLIGIBLE_DECREASE_SD`` sd: the data are
    explained to their noise, and the step would not change that (on the
    benchmark problems, 3 solves with the acceleration and 4 without,
    instead of 5-6). A trial point whose evaluation raises NumericalError
    is rejected like one that fails the Armijo test, and counted in
    ``failed_evaluations``; at the start point the error propagates.
    After a line search that rejected such a trial, the next one starts
    no longer than the step just accepted. Bounds,
    ``start_design`` and ``history`` are handled as in ``run_ga``; each
    evaluation adds its forward solves to ``total_forward_solves``
    (``ConvergenceHistory.counting``): 1 per call of a provider without a
    model, and with ``history.model`` the factorizations the model made,
    so an evaluation the model serves from its held solve (the start
    design, when the caller has just solved it) adds 0.
    """
    lower, upper = _checked_bounds(lower, upper, "start_design", start_design)
    x = np.clip(np.asarray(start_design, dtype=float), lower, upper)
    history = ConvergenceHistory() if history is None else history
    span = upper - lower
    pinned = span == 0
    log = lower > 0  # positive scale parameters: step in ln x

    def evaluate(z):
        with history.counting(1):
            f_z, r_z, jac_z, second_z = cost_and_derivatives(z)
        jac_z = np.where(pinned, 0.0, jac_z)
        return f_z, r_z, jac_z, 2.0 * (jac_z.T @ r_z), second_z

    f, r, jac, grad, second = evaluate(x)
    history.append(STAGE_GRADIENT, 0, f, x)

    # After a line search that rejected a failed trial, the next one starts
    # no longer than the step it accepted, so it does not pay again for
    # solves that fail in the same region.
    t_cap = np.inf
    for it in range(1, config.max_iterations + 1):
        projected = x - np.clip(x - grad, lower, upper)
        if np.max(np.abs(projected)) < _GRAD_TOL:
            break
        scale = np.where(log, x, 1.0)  # d(ln x)/dx = 1/x
        jac_s = jac * scale
        norms = np.linalg.norm(jac_s, axis=0)
        direction, free = _gauss_newton_step(x, r, jac_s, norms, grad * scale, lower, upper)
        change = jac_s @ direction  # of r, to first order, over a full step
        decrease = -(2.0 * float(r @ change) + float(change @ change))  # predicted by the Gauss-Newton model
        if _within_floor(f, noise_floor) and decrease < _NEGLIGIBLE_DECREASE_SD * noise_floor[1]:
            break
        acceleration = None
        if second is not None and decrease >= _ACCELERATION_MIN_DECREASE * f:
            r_second = second(scale * direction, np.where(log, x * direction**2, 0.0))
            acceleration = _geodesic_acceleration(r_second, jac_s, norms, direction, free)
        second = second_new = None  # the factor of x is not held through the line search's solves
        t = min(1.0, t_cap)
        accepted = failed = False
        for _ in range(_MAX_BACKTRACKS):
            move = t * direction
            if acceleration is not None:
                move = move + 0.5 * t * t * acceleration
            x_new = x + move
            with np.errstate(over="ignore"):  # an overflow gives inf, which the clip takes to the upper bound
                x_new[log] = x[log] * np.exp(move[log])
            x_new = np.clip(x_new, lower, upper)
            step = x_new - x
            if not step.any():
                t *= _BACKTRACK_FACTOR
                continue
            try:
                f_new, r_new, jac_new, grad_new, second_new = evaluate(x_new)
            except NumericalError:
                history.failed_evaluations += 1
                failed = True
            else:
                if f_new <= f + _ARMIJO_C * float(grad @ step):
                    accepted = True
                    break
                second_new = None  # nor is a rejected trial's through the next one
            t *= _BACKTRACK_FACTOR
        if not accepted:
            history.gradient_stalled = True
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            rel_step = np.where(span > 0, np.abs(step) / span, 0.0)
        x, f, r, jac, grad, second = x_new, f_new, r_new, jac_new, grad_new, second_new
        t_cap = t if failed else np.inf
        history.append(STAGE_GRADIENT, it, f, x)
        if float(rel_step.max()) < _STEP_TOL:
            break
    return x.copy(), history


def _within_floor(cost: float, noise_floor: tuple[float, float] | None) -> bool:
    """Whether z = (cost - expected) / sd is at most ``_NOISE_FLOOR_Z``;
    False without a noise floor."""
    if noise_floor is None:
        return False
    expected, sd = noise_floor
    return (cost - expected) / sd <= _NOISE_FLOOR_Z


def _relative_gap(a: np.ndarray, b: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Largest |a - b| relative to the bound range over the unpinned coordinates."""
    span = upper - lower
    free = span > 0
    return float(np.max(np.abs(a - b)[free] / span[free], initial=0.0))


def run_hybrid(
    context: CostContext,
    lower: np.ndarray,
    upper: np.ndarray,
    ga_config: GAConfig,
    grad_config: GradConfig,
    initial_guess: np.ndarray | None = None,
) -> tuple[np.ndarray, ConvergenceHistory]:
    """Gauss-Newton from the initial guess, then, unless its end fits the
    data to their noise, GA exploration with Gauss-Newton handoffs from the
    GA's best.

    Gauss-Newton (``run_gradient`` on ``context.cost_and_derivatives``,
    whose second derivatives accelerate its steps geodesically) first
    refines the initial guess, clipped into the box (the bounds midpoint
    when omitted; the GA's ``pop[0]``).
    When ``context.noise_floor()`` gives (expected, sd) and that end's
    z = (cost - expected) / sd is at most ``_NOISE_FLOOR_Z``, the end is
    returned and the GA never runs. This run
    alone is given the floor, so it also stops once its next step would
    lower the cost by less than ``_NEGLIGIBLE_DECREASE_SD`` sd
    (``run_gradient``); that stop fires only at z <= ``_NOISE_FLOOR_Z``,
    so a run it ends is returned, and any other run is bitwise one without
    the floor. On the two benchmark problems (1 % noise, seeds 1-20) this
    cuts the Gauss-Newton evaluations from 54-57 (2D) and 16-25 (3D) with
    the GA to 3 (4 on 4 of the 20 3D seeds); without the geodesic
    acceleration they were 4, without the negligible-decrease stop 5-6.
    The first is served by the model's held solve when the caller has just
    solved the guess, as ``femupdate invert`` does for its residual maps,
    so the forward-solve count is one less. Noiseless data (no
    noise floor) skip this first run, and a larger z, from a local minimum
    or from model error, falls through to the hybrid below.

    The GA scores designs with ``context.cost`` (each distinct design
    once, one stack per generation). At generation 0 and after every
    ``_HANDOFF_GENERATIONS`` generations, Gauss-Newton refines the GA's
    current best, and the GA stops once this handoff and the previous one
    end within ``_SAME_MINIMIZER_TOL`` of each other (``_relative_gap``).
    The generation-0 handoff is compared with a partner run from the GA's
    generation-0 runner-up (``run_ga``), which runs first, so the GA stops
    before it breeds when both reach one minimizer; with no runner-up
    there is no generation-0 check. A GA that ends at its cap or by its
    stall rule gets a handoff at its last generation if none ran there. A
    GA best that failed (+inf) gets no handoff, and a GA that ends with
    every design failed (elites keep any finite one) raises
    NumericalError. Gauss-Newton runs once per start design: it is
    deterministic, so a run from a design an earlier run started from (the
    guess, a partner or a handoff, compared bitwise) reuses that run's
    end, costs no solves and adds no run to the history.

    Handoffs never feed the population, so the GA records are those of
    ``run_ga`` alone with the same seed, up to the generation the hybrid
    stopped at. The GA and every Gauss-Newton run append to one history, so
    it is in run order while the run goes on (the run from the guess
    first, each other Gauss-Newton run after the generation it ran at, a
    partner before its handoff) and holds one forward-solve count for both
    stages: the factorizations of ``context.forward``
    (``ConvergenceHistory.model``), or one per evaluated design for a
    context without a ``forward`` model. Returns the run from the guess's end
    when the GA is skipped; otherwise the last handoff's end, which is then
    the history's last record (a reused end is logged once more unless it
    already is), or the GA best it started from when that cost less. The
    history's ``gradient_stalled`` is that of the run whose end is returned
    (the run from the GA best when the GA best itself is returned), not of
    any partner or earlier handoff.
    """
    lower, upper = _checked_bounds(lower, upper, "initial_guess", initial_guess)
    guess = 0.5 * (lower + upper) if initial_guess is None else np.asarray(initial_guess, dtype=float)
    guess = np.clip(guess, lower, upper)
    history = ConvergenceHistory(model=getattr(context, "forward", None))
    ends = {}  # start design bytes -> (end record, stalled flag) of Gauss-Newton from it
    last = None  # the last handoff's end record

    def gauss_newton(design, noise_floor=None):
        """The end record of the run from ``design``; sets the history's
        stalled flag to that run's, so it describes the last run asked for."""
        key = design.tobytes()
        if key not in ends:
            history.gradient_stalled = False
            run_gradient(context.cost_and_derivatives, design, lower, upper, grad_config, history, noise_floor)
            ends[key] = history.final, history.gradient_stalled
        end, history.gradient_stalled = ends[key]
        return end

    floor = context.noise_floor()
    if floor is not None:
        end = gauss_newton(guess, floor)
        if _within_floor(end.best_cost, floor):
            return end.design.copy(), history

    def after_generation(record, runner_up):
        nonlocal last
        if record.iteration % _HANDOFF_GENERATIONS or record.best_cost == np.inf:
            return False
        if record.iteration > 0:
            previous = last
        elif runner_up is not None:
            previous = gauss_newton(runner_up)  # the partner
        else:
            return False
        last = gauss_newton(record.design)
        return previous is not None and _relative_gap(last.design, previous.design, lower, upper) <= _SAME_MINIMIZER_TOL

    run_ga(context.cost, lower, upper, ga_config, guess, after_generation, history)
    ga_final = history.stage_records(STAGE_GA)[-1]
    if ga_final.best_cost == np.inf:
        raise NumericalError(
            f"every design the GA scored failed (failed_evaluations = {history.failed_evaluations}); "
            "no design to refine"
        )
    end = gauss_newton(ga_final.design)  # reused when a handoff ran at the GA's last generation
    if end.best_cost > ga_final.best_cost:
        return ga_final.design.copy(), history
    if history.final is not end:
        history.append(end.stage, end.iteration, end.best_cost, end.design)
    return end.design.copy(), history
