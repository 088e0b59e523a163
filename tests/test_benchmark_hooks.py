"""The names the benchmark tracer hooks (perfbench/tracing.py) all exist.

The tracer patches femupdate attributes by name; a rename or deletion in
the package would otherwise show only when the benchmark runs.
"""

import importlib.util
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
