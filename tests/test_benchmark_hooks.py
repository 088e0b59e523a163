"""The names the benchmark tracer hooks (perfbench/tracing.py) all exist.

The tracer patches femupdate attributes by name; a rename or deletion in
the package would otherwise show only when the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
    ``displacement_with_sensitivities`` alone, so on noisy data, where it
    may be the whole inversion, the first call must come from the residual
    maps at the guess, before ``run_hybrid`` is entered."""
    from femupdate import cli
    from femupdate.solver import ForwardModel

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
