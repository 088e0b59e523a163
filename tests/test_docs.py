"""The README's library quick start and minimal config work as written."""

import re
from pathlib import Path

import numpy as np

from femupdate.config import load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(language: str, after: str) -> str:
    """The first ``language`` code block of the README after the text ``after``."""
    fence = re.compile(rf"^```{language}\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    return fence.search(README, README.index(after)).group(1)


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(code_block("python", "## Library quick start"), "README.md", "exec"), namespace)
    recovered, history, truth = namespace["recovered"], namespace["history"], namespace["truth"]
    assert history.final.best_cost < history.records[0].best_cost
    assert np.abs(recovered - truth).max() / truth.max() < 0.01


def test_minimal_config_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(code_block("json", "A minimal config"), encoding="utf-8")
    config = load_config(path)
    mesh = config.build_mesh()
    assert config.build_patch_map(mesh).patch_count == 11
    assert config.truth_values(11)[9] == 60000.0
