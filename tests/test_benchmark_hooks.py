"""The names the benchmark tracer hooks (perfbench/tracing.py) all exist,
and the calls it counts there are the solves the program makes.

The tracer patches femupdate attributes by name; a rename or deletion in
the package would otherwise show only when the benchmark runs. It counts
factorizations at ``solver.splu``, which ``ForwardModel._factor`` looks up
in the module at each call; these are the only tests that name it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import femupdate as fu
from femupdate import cli, solver
from femupdate.solver import ForwardModel
from test_cli import base_config, write_config
from test_solver import COUNTED, counted_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """perfbench/tracing.py as a module, loaded from its file; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


# Besides the boundaries, the tracer wraps the factorization and the cost.
HOOKS = [(module, path) for _, module, path in tracing.BOUNDARIES] + [
    ("femupdate.solver", "splu"),
    ("femupdate.inversion", "CostContext.cost"),
]


@pytest.mark.parametrize("module_name, path", HOOKS, ids=lambda v: v)
def test_hook_resolves(module_name, path):
    owner, attr = tracing._resolve(module_name, path)
    # Defined on the owner itself: a lookup alone finds a class's __call__ on
    # its metaclass after the method is deleted.
    assert attr in vars(owner), f"{module_name}.{path} is not defined"


def test_first_solve_precedes_the_optimizer(tmp_path, monkeypatch):
    """perfbench/child.py times the solve phase from the first
    ``ForwardModel.solve_displacement`` call to the return of
    ``cli.run_hybrid``. Gauss-Newton solves through
    ``displacement_derivatives`` alone, so on noisy data, where it
    may be the whole inversion, the first call must come from the residual
    maps at the guess, before ``run_hybrid`` is entered."""
    config = {
        "geometry": {"length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 2.0, "nx": 10, "ny": 4},
        "patches": {"n_sections": 3, "defects": [{"box_min": [40.0, 5.0], "box_max": [60.0, 15.0]}]},
        "material": {"truth_moduli_mpa": {"3": 60000.0}},
        "measurement": {"grid_counts": [12, 5], "rng_seed": 9, "noise_sigma": 0.01},
        "strain_floor": 3e-5,
        "ga": {"population_size": 14, "generations_max": 10, "rng_seed": 3},
        "output_dir": str(tmp_path / "synth"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["synth", "--config", str(cfg_path)]) == 0

    events = []
    solve_displacement = ForwardModel.solve_displacement
    run_hybrid = cli.run_hybrid

    def solve(self, values):
        events.append("solve_displacement")
        return solve_displacement(self, values)

    def hybrid(*args, **kwargs):
        events.append("run_hybrid")
        return run_hybrid(*args, **kwargs)

    monkeypatch.setattr(ForwardModel, "solve_displacement", solve)
    monkeypatch.setattr(cli, "run_hybrid", hybrid)
    assert cli.main(["invert", "--config", str(cfg_path), "--measurement",
                     str(tmp_path / "synth" / "measurement.csv"), "--out", str(tmp_path / "inv")]) == 0
    assert events[:2] == ["solve_displacement", "run_hybrid"]
    report = json.loads((tmp_path / "inv" / "report.json").read_text())
    assert report["stage_iterations"]["GA"] == 0  # the optimizer made no solve_displacement call


def test_benchmark_hooks_see_the_solves(tmp_path, monkeypatch):
    """The contract of the benchmark's hooks (perfbench/child.py and
    perfbench/tracing.py): ``femupdate invert`` makes its first forward
    solve through ``ForwardModel.solve_displacement(self, values)`` before
    ``cli.run_hybrid`` returns, and every forward solve it counts inside
    ``run_hybrid`` is one call of ``solver.splu``."""
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, base_config(out))
    assert cli.main(["synth", "--config", cfg_path]) == 0
    events = []
    original = ForwardModel.solve_displacement

    def first_solve(self, values):  # the signature child.py wraps it with
        events.append("first_solve")
        ForwardModel.solve_displacement = original
        return original(self, values)

    monkeypatch.setattr(ForwardModel, "solve_displacement", first_solve)
    in_hybrid = [False]
    splu_in_hybrid = [0]
    real_splu = solver.splu

    def splu(*args, **kwargs):
        splu_in_hybrid[0] += in_hybrid[0]
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(solver, "splu", splu)
    run_hybrid = cli.run_hybrid

    def stamped(*args, **kwargs):
        in_hybrid[0] = True
        try:
            return run_hybrid(*args, **kwargs)
        finally:
            in_hybrid[0] = False
            events.append("solve_end")

    monkeypatch.setattr(cli, "run_hybrid", stamped)
    inv = tmp_path / "inv"
    assert cli.main(["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
                     "--out", str(inv)]) == 0
    assert events == ["first_solve", "solve_end"]
    report = json.loads((inv / "report.json").read_text())
    assert splu_in_hybrid[0] == report["forward_solve_count"] > 0


class TestFactorizationCount:
    """The factorization hook the benchmark traces: ``solver.splu``, looked
    up at call time, is called once per solve, also on a one-patch model's
    0 x 0 S(E), and not at model build, whose rank check factors S(1) as a
    band (``_interface_pivots``)."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        real = solver.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", counting)
        return calls

    @COUNTED
    def test_one_factorization_per_build_and_solve(self, dims, defect, uniaxial_bcs, splu_calls):
        model, values = counted_model(dims, defect, uniaxial_bcs)
        assert len(splu_calls) == 0
        model.solve_displacement(values)
        assert len(splu_calls) == 1
        grid = fu.grid_for_footprint((100, 20), counts=(8, 4))
        field = fu.generate_synthetic(model, values, grid)
        context = fu.CostContext(model, field)
        del splu_calls[:]
        context.cost_and_derivatives(values)
        assert len(splu_calls) == 1
