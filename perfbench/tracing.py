"""Spans around femupdate's public functions, and the per-layer metrics
computed from them.

The tracer replaces module and class attributes of an imported femupdate
with timing wrappers; no program file is changed. Every call becomes one
span (name, start, end, parent span index) kept in memory and written out
once the command has finished. Clock: time.monotonic (CLOCK_MONOTONIC),
so stamps from the benchmark process and its child agree.
"""

import statistics
import time

import numpy as np

# (span name, module, attribute path). Patched where the caller looks the
# name up: cli and config import functions into their own namespaces.
BOUNDARIES = (
    ("cli.config_load", "femupdate.cli", "load_config"),
    ("geometry.mesh_build", "femupdate.config", "build_coupon_mesh"),
    ("measurement.csv_read", "femupdate.cli", "load_measurement_csv"),
    ("measurement.interpolator_build", "femupdate.measurement", "Interpolator.__init__"),
    ("measurement.interpolate", "femupdate.measurement", "Interpolator.__call__"),
    ("solver.model_build", "femupdate.solver", "ForwardModel.__init__"),
    ("solver.solve", "femupdate.solver", "ForwardModel.solve_displacement"),
    ("solver.strain_sampling", "femupdate.solver", "ForwardModel.surface_strain_arrays"),
    ("inversion.hybrid", "femupdate.cli", "run_hybrid"),
    ("inversion.ga", "femupdate.inversion", "run_ga"),
    ("inversion.gradient", "femupdate.inversion", "run_gradient"),
    ("inversion.fd_gradient", "femupdate.inversion", "fd_gradient"),
    ("cli.write", "femupdate.cli", "write_mesh_vtk"),
    ("cli.write", "femupdate.cli", "write_points_vtk"),
    ("cli.write", "femupdate.cli", "write_table_csv"),
    ("cli.write", "femupdate.cli", "atomic_write_text"),
)


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span recorder. ``install`` patches femupdate; spans stay in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []
        self.designs: set = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        for name, module_name, path in BOUNDARIES:
            owner, attr = _resolve(module_name, path)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

        from femupdate import inversion, solver

        factorize = self.wrap("solver.factorize", solver.splu)

        def splu(*args, **kwargs):
            lu = factorize(*args, **kwargs)
            return _TracedLU(lu, self.wrap("solver.triangular_solve", lu.solve))

        solver.splu = splu

        cost = inversion.CostContext.cost
        designs = self.designs

        def cost_recording_design(context, design):
            designs.add(np.asarray(design, dtype=float).tobytes())
            return cost(context, design)

        inversion.CostContext.cost = self.wrap("inversion.cost", cost_recording_design)


def _under(spans: list, index: int, names: tuple) -> str | None:
    """Name of the nearest ancestor of span ``index`` among ``names``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def _p50_ms(durations: list) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list, distinct_designs: int, report: dict) -> dict:
    """Per-layer counts, busy times and self times from one traced inversion.

    Self time is a span's duration minus the time covered by its direct
    children. ``report`` is the command's report.json.
    """
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    total: dict = {}
    self_time: dict = {}
    by_name: dict = {}
    for i, (name, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + durations[i]
        self_time[name] = self_time.get(name, 0.0) + durations[i] - child_time[i]
        by_name.setdefault(name, []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    cost_spans = by_name.get("inversion.cost", [])
    stage_of = {i: _under(spans, i, ("inversion.fd_gradient", "inversion.gradient", "inversion.ga"))
                for i in cost_spans}
    evals = {"inversion.ga": 0, "inversion.gradient": 0, "inversion.fd_gradient": 0}
    cost_time_in_optimizer = 0.0
    for i, stage in stage_of.items():
        if stage is None:
            continue
        evals[stage] += 1
        cost_time_in_optimizer += durations[i]
    factorize_spans = by_name.get("solver.factorize", [])
    extra_factorizations = sum(
        1 for i in factorize_spans if _under(spans, i, ("inversion.hybrid",)) is None
    )

    # Each stage logs its start point plus one record per generation or
    # accepted gradient step.
    ga_generations = report["stage_iterations"]["GA"] - 1
    accepted_steps = report["stage_iterations"]["GRADIENT"] - 1
    gradient_runs = count("inversion.gradient")
    line_search_evals = evals["inversion.gradient"] - gradient_runs  # minus each start point
    n_cost = len(cost_spans)
    return {
        "geometry.mesh_build_s": total.get("geometry.mesh_build", 0.0),
        "solver.model_builds": count("solver.model_build"),
        "solver.model_build_s": total.get("solver.model_build", 0.0),
        "solver.factorizations": len(factorize_spans),
        "solver.factorize_s": total.get("solver.factorize", 0.0),
        "solver.factorize_ms_p50": _p50_ms([durations[i] for i in factorize_spans]),
        "solver.triangular_solve_s": total.get("solver.triangular_solve", 0.0),
        "solver.triangular_solve_ms_p50": _p50_ms(
            [durations[i] for i in by_name.get("solver.triangular_solve", [])]
        ),
        "solver.assembly_self_s": self_time.get("solver.solve", 0.0),
        "solver.strain_sampling_s": self_time.get("solver.strain_sampling", 0.0),
        "measurement.csv_read_s": total.get("measurement.csv_read", 0.0),
        "measurement.interpolator_build_s": total.get("measurement.interpolator_build", 0.0),
        "measurement.interpolate_s": total.get("measurement.interpolate", 0.0),
        "inversion.cost_evals": n_cost,
        "inversion.cost_self_s": self_time.get("inversion.cost", 0.0),
        "inversion.cost_eval_ms_p50": _p50_ms([durations[i] for i in cost_spans]),
        "inversion.optimizer_self_s": total.get("inversion.ga", 0.0)
        + total.get("inversion.gradient", 0.0)
        - cost_time_in_optimizer,
        "inversion.ga_s": total.get("inversion.ga", 0.0),
        "inversion.ga_evals": evals["inversion.ga"],
        "inversion.ga_generations": ga_generations,
        "inversion.gradient_s": total.get("inversion.gradient", 0.0),
        "inversion.gradient_evals": evals["inversion.gradient"] + evals["inversion.fd_gradient"],
        "inversion.gradient_iterations": count("inversion.fd_gradient"),
        "inversion.fd_gradient_s": total.get("inversion.fd_gradient", 0.0),
        "inversion.fd_gradient_ms_p50": _p50_ms(
            [durations[i] for i in by_name.get("inversion.fd_gradient", [])]
        ),
        "inversion.fd_gradient_evals": evals["inversion.fd_gradient"],
        "inversion.line_search_evals": line_search_evals,
        "inversion.armijo_accept_ratio": accepted_steps / line_search_evals if line_search_evals else 0.0,
        "inversion.distinct_eval_ratio": distinct_designs / n_cost if n_cost else 0.0,
        "cli.config_load_s": total.get("cli.config_load", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.extra_factorizations": extra_factorizations,
    }
