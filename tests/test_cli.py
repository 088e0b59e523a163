"""Config loading, subcommands, file formats and the exit-code contract."""

import copy
import fcntl
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import femupdate as fu
import femupdate.cli as cli
from femupdate.config import load_config
from femupdate.errors import ConfigError
from femupdate.vtkio import atomic_write_text
from test_acceptance import context_from, coupon_config_2d, coupon_config_3d


def base_config(out, **overrides):
    cfg = {
        "geometry": {"length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 2.0, "nx": 10, "ny": 4},
        "patches": {"n_sections": 3, "defects": [{"box_min": [40.0, 5.0], "box_max": [60.0, 15.0]}]},
        "material": {"truth_moduli_mpa": {"3": 60000.0}},
        "measurement": {"grid_counts": [12, 5], "rng_seed": 9},
        "ga": {"population_size": 14, "generations_max": 10, "rng_seed": 3},
        "grad": {"max_iterations": 60},
        "output_dir": str(out),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def invert2d_config(out, seed=1):
    """The 2D benchmark problem at one seed: 40 x 10 coupon, 11 patches, two
    defects at 0.3 E0, 1 % noise."""
    noise_seed, ga_seed = (int(v) for v in np.random.SeedSequence(seed).generate_state(2))
    e0 = 200000.0
    return {
        "geometry": {"length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 2.0, "nx": 40, "ny": 10},
        "patches": {"n_sections": 9, "defects": [{"box_min": [20.0, 6.0], "box_max": [32.0, 14.0]},
                                                 {"box_min": [60.0, 4.0], "box_max": [72.0, 12.0]}]},
        "material": {"e_ref_mpa": e0, "poisson_ratio": 0.3, "truth_moduli_mpa": {"9": 0.3 * e0, "10": 0.3 * e0}},
        "bcs": {"u_applied_mm": 0.1},
        "measurement": {"grid_counts": [40, 10], "noise_sigma": 0.01, "rng_seed": noise_seed},
        "ga": {"population_size": 40, "generations_max": 20, "rng_seed": ga_seed},
        "grad": {"max_iterations": 90},
        "strain_floor": 3e-5,
        "output_dir": str(out),
    }


class TestLoadConfig:
    def test_defaults_materialized(self, tmp_path):
        cfg = load_config({"geometry": {"length_mm": 10, "width_mm": 5, "thickness_mm": 1}})
        assert cfg.patches.n_sections == 9
        assert cfg.material.e_ref_mpa == 200000.0
        assert cfg.ga.population_size == 40
        resolved = cfg.to_dict()
        assert resolved["bounds"]["pin_reference_patch"] == 0
        # resolving twice is stable
        assert load_config(resolved).to_dict() == resolved

    def test_path_starting_with_brace_is_a_file(self, tmp_path, monkeypatch):
        """A config source that is not a dict is always a file path, even a
        relative one that starts with '{'."""
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, base_config(tmp_path / "out"), name="{coupon}.json")
        assert load_config("{coupon}.json").geometry.nx == 10

    @pytest.mark.parametrize(
        "content, message",
        [(None, "cannot read config file"), ('{"geometry": ', "invalid JSON"),
         ("[1, 2]", "top-level config must be a JSON object")],
        ids=["missing-file", "broken-json", "top-level-array"],
    )
    def test_unloadable_file_raises_and_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert cli.main(["forward", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_geometry_field_names_path(self):
        with pytest.raises(ConfigError, match="geometry.width_mm"):
            load_config({"geometry": {"length_mm": 10, "thickness_mm": 1}})

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="geometry.nxx"):
            load_config({"geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1, "nxx": 3}})
        with pytest.raises(ConfigError, match="gaa"):
            load_config({"geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1}, "gaa": {}})

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError, match="geometry.nx"):
            load_config({"geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1, "nx": "ten"}})
        with pytest.raises(ConfigError, match="bcs.clamp_fixed_face"):
            load_config(
                {
                    "geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1},
                    "bcs": {"clamp_fixed_face": "yes"},
                }
            )

    def test_non_finite_numbers_rejected(self):
        geometry = {"length_mm": 10, "width_mm": 5, "thickness_mm": 1}
        with pytest.raises(ConfigError, match="geometry.length_mm"):
            load_config({"geometry": dict(geometry, length_mm=float("inf"))})
        with pytest.raises(ConfigError, match="geometry.nx"):
            load_config({"geometry": dict(geometry, nx=float("inf"))})
        with pytest.raises(ConfigError, match="bounds.pin_reference_patch"):
            load_config({"geometry": geometry, "bounds": {"pin_reference_patch": float("nan")}})
        with pytest.raises(ConfigError, match="material.truth_moduli_mpa"):
            load_config({"geometry": geometry, "material": {"truth_moduli_mpa": {"1": "inf"}}})
        with pytest.raises(ConfigError, match="measurement.grid_spacing_mm"):
            load_config({"geometry": geometry, "measurement": {"grid_spacing_mm": ["nan", 1.0]}})

    @pytest.mark.parametrize(
        "keys, value, path, message",
        [
            (("geometry",), 5, "geometry", "expected an object, got int"),
            (("measurement", "grid_counts"), 5, "measurement.grid_counts", "expected a pair [x, y]"),
            (("measurement", "grid_counts"), [1, 2, 3], "measurement.grid_counts", "expected a pair [x, y]"),
            (("measurement", "grid_counts"), [0, 5], "measurement.grid_counts", "values must be positive and finite"),
            (("material", "truth_moduli_mpa"), [60000.0], "material.truth_moduli_mpa",
             "expected an object mapping patch index to MPa"),
            (("patches", "defects"), {}, "patches.defects", "expected a list of boxes"),
            (("patches", "defects", 0, "box_min"), 5, "patches.defects[0].box_min", "expected a list of coordinates"),
        ],
        ids=["section", "pair-scalar", "pair-triple", "pair-zero", "truth-list", "defects-object", "corner-scalar"],
    )
    def test_shape_error_names_its_field(self, keys, value, path, message):
        """A value of the wrong shape raises a ConfigError naming its field."""
        cfg = base_config("out")
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    def test_defect_box_validation(self):
        with pytest.raises(ConfigError, match=r"patches.defects\[0\]"):
            load_config(
                {
                    "geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1},
                    "patches": {"defects": [{"box_min": [2, 2], "box_max": [1, 3]}]},
                }
            )

    def test_defect_box_coordinates_match_the_dimension(self):
        geometry = {"dimension": 3, "length_mm": 100, "width_mm": 20, "thickness_mm": 8, "nx": 10, "ny": 4, "nz": 2}
        with pytest.raises(ConfigError, match=r"patches\.defects\[0\]\.box_min: expected 3 coordinates"):
            load_config({"geometry": geometry, "patches": {"defects": [{"box_min": [40, 5], "box_max": [60, 15]}]}})

    def test_sections_must_fit_columns(self):
        with pytest.raises(ConfigError, match="n_sections"):
            load_config(
                {
                    "geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1, "nx": 4},
                    "patches": {"n_sections": 5},
                }
            )

    def test_truth_override_keys(self):
        cfg = load_config(
            {
                "geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1},
                "material": {"truth_moduli_mpa": {"2": 1000.0}},
            }
        )
        values = cfg.truth_values(5)
        assert values[2] == 1000.0
        assert values[0] == cfg.material.e_ref_mpa

    @pytest.mark.parametrize("key", ["01", " 2", "2 ", "+3", "1_0", "", "x"])
    def test_truth_key_spelling_rejected(self, key):
        """One spelling per patch: keys that int() reads but that are not its
        canonical decimal form would silently merge with another key."""
        truth = {"1": 1000.0, key: 2000.0}
        with pytest.raises(ConfigError, match=re.escape(f"material.truth_moduli_mpa: bad key {key!r}")):
            load_config({"geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1},
                         "material": {"truth_moduli_mpa": truth}})

    def test_pinned_bounds(self):
        cfg = load_config({"geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1}})
        lower, upper = cfg.moduli_bounds(4)
        assert lower[0] == upper[0] == cfg.material.e_ref_mpa
        assert lower[1] == 0.01 * cfg.material.e_ref_mpa

    def test_default_grid_spacing_follows_mesh(self):
        cfg = load_config({"geometry": {"length_mm": 50, "width_mm": 10, "thickness_mm": 1, "nx": 5, "ny": 2},
                           "patches": {"n_sections": 2}})
        assert cfg.measurement.grid_counts is None
        assert cfg.measurement.grid_spacing_mm == [10.0, 5.0]  # one element per grid step
        grid = cfg.build_grid()
        assert grid.spacing == (10.0, 5.0)

    def test_pin_disabled_with_null(self):
        cfg = load_config(
            {
                "geometry": {"length_mm": 1, "width_mm": 1, "thickness_mm": 1},
                "bounds": {"pin_reference_patch": None},
            }
        )
        lower, upper = cfg.moduli_bounds(4)
        assert lower[0] == 0.01 * cfg.material.e_ref_mpa and upper[0] == 3.0 * cfg.material.e_ref_mpa

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("geometry", "nx", None),
            ("geometry", "nx", 3.7),
            ("bcs", "fixed_face", None),
            ("bcs", "clamp_fixed_face", None),
            ("material", "truth_moduli_mpa", None),
            ("measurement", "rng_seed", 3.7),
            ("ga", "population_size", None),
            (None, "strain_floor", None),
            (None, "output_dir", [1]),
            ("geometry", "nx", "40"),
            ("geometry", "length_mm", "10"),
            pytest.param("geometry", "length_mm", 10**400, id="geometry-length_mm-10**400"),
            ("measurement", "grid_counts", [12.5, 5]),
            ("measurement", "grid_spacing_mm", ["2.5", True]),
            ("material", "truth_moduli_mpa", {"1": True}),
            ("patches", "defects", [{"box_min": ["20", 6], "box_max": [32.0, 14.0]}]),
            ("patches", "defects", [{"box_min": [True, 6], "box_max": [32.0, 14.0]}]),
        ],
    )
    def test_wrong_type_exit_2_names_field(self, tmp_path, monkeypatch, capsys, section, key, value):
        monkeypatch.chdir(tmp_path)  # a mis-resolved output_dir lands here
        cfg = base_config(tmp_path / "x")
        if section is None:
            cfg[key] = value
        else:
            cfg[section] = dict(cfg.get(section, {}), **{key: value})
        assert cli.main(["synth", "--config", write_config(tmp_path, cfg)]) == 2
        field = key if section is None else f"{section}.{key}"
        # a field inside a list item is named by its index and key: patches.defects[0].box_min
        assert re.search(rf"config error: {re.escape(field)}(\[\d+\]\.\w+)?: expected", capsys.readouterr().err)


# One value of each JSON kind, plus the non-finite and boundary numbers.
FUZZ_VALUES = [None, "x", math.inf, math.nan, -1, 0, 3.7, [], {}, True]
FUZZ_BASES = [base_config("out"), coupon_config_3d("out")]


def _json_paths(node, prefix=()):
    """Key paths of every value under ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))
        yield prefix + (key,)


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_config_loads_or_raises_config_error(data):
    """One leaf replaced, or one key added: the config either loads and its
    resolved form loads back to itself, or it raises ConfigError."""
    cfg = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    if data.draw(st.booleans()):
        cfg = load_config(cfg).to_dict()  # every key present
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    paths = list(_json_paths(cfg))
    if data.draw(st.booleans()):
        path = data.draw(st.sampled_from(paths))
        _at(cfg, path[:-1])[path[-1]] = value
    else:
        objects = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, data.draw(st.sampled_from(objects)))["fuzz_key"] = value
    try:
        resolved = load_config(cfg).to_dict()
    except ConfigError:
        return
    assert load_config(copy.deepcopy(resolved)).to_dict() == resolved


# sha256 of resolved_config.json as `femupdate synth` writes it with the
# output_dir "out": the resolved-config format is part of the
# reproducibility contract, so any change to it must be deliberate.
RESOLVED_CONFIG_SHA256 = {
    "coupon2d": "31dc4151c9523f75a002020e5312919fdb974dfd601a2466b33b41f965aebace",
    "coupon3d": "9f56a07918493f5a7532becd1b744821002cda1615a65accbbd64ff9ca734062",
    "minimal": "09dc1c3c891e8b7f793ff416553b7d47af56cb4ddc853d65e3084a5b563249c6",
}


@pytest.mark.parametrize("name", sorted(RESOLVED_CONFIG_SHA256))
def test_resolved_config_bytes_pinned(tmp_path, monkeypatch, name):
    cfg = {
        "coupon2d": coupon_config_2d("out"),
        "coupon3d": coupon_config_3d("out"),
        "minimal": {"geometry": {"length_mm": 10, "width_mm": 5, "thickness_mm": 1}},
    }[name]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--config", write_config(tmp_path, cfg)]) == 0
    data = (tmp_path / "out" / "resolved_config.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RESOLVED_CONFIG_SHA256[name]



def vtk_case(name):
    """(writer, arguments) of one VTK output: a QUAD4 or HEX8 mesh with
    double and int cell data and vector point data, or scattered points
    with scalar and vector point data."""
    if name == "points":
        points = np.column_stack([np.linspace(0.0, 10.0, 5), np.linspace(0.0, 4.0, 5) ** 2 / 3.0])
        data = {"exx": points[:, 0] / 3e4, "shift_mm": points / 7.0}
        return cli.write_points_vtk, (points, data)
    mesh = (fu.build_coupon_mesh(10.0, 4.0, 2.0, 3, 2) if name == "quad4"
            else fu.build_coupon_mesh(10.0, 4.0, 3.0, 3, 2, 2))
    cell_data = {"modulus_mpa": 1000.0 + np.arange(mesh.n_elements) / 3.0,
                 "patch_index": np.arange(mesh.n_elements) % 2}
    return cli.write_mesh_vtk, (mesh, cell_data, {"displacement_mm": mesh.nodes / 7.0})


# sha256 of the VTK files the writers produce for ``vtk_case``: the VTK
# output format is part of the reproducibility contract.
VTK_SHA256 = {
    "hex8": "9763fc4e3c342d71f32daf3218861790037a17149688c6d37e291a81da3d718a",
    "points": "e04357c592a7d997f4f2b2540749a31944c7389846beb032600a86048d1c3913",
    "quad4": "a7e3fd78adbafd25d4626e31a52ffc486baa483bec12e148ae83ede6923f9c20",
}


@pytest.mark.parametrize("name", sorted(VTK_SHA256))
def test_vtk_bytes_pinned(tmp_path, name):
    writer, args = vtk_case(name)
    writer(tmp_path / "out.vtk", *args)
    assert hashlib.sha256((tmp_path / "out.vtk").read_bytes()).hexdigest() == VTK_SHA256[name]

# The GA settings that are constants in inversion.py, with the values they had as config keys.
REMOVED_GA_KEYS = {
    "crossover_rate": 0.9, "mutation_rate": 0.15, "mutation_scale": 0.1, "elite_count": 2,
    "tournament_size": 3, "stall_generations": 15, "rel_tol": 1e-3,
}


class TestCmdSynthAndForward:
    @pytest.mark.parametrize(
        "command, section, override, field",
        [
            (command, "bounds", {"pin_reference_patch": 7}, "bounds.pin_reference_patch")
            for command in ("synth", "forward")
        ] + [
            (command, "material", {"truth_moduli_mpa": {"9": 60000.0}}, "material.truth_moduli_mpa")
            for command in ("synth", "forward")
        ],
        ids=["synth", "forward", "synth-truth-index", "forward-truth-index"],
    )
    def test_pinned_patch_out_of_range_exit_2_before_writing(self, tmp_path, capsys, command, section, override,
                                                             field):
        out = tmp_path / "t"
        cfg_path = write_config(tmp_path, base_config(out, **{section: override}))
        assert cli.main([command, "--config", cfg_path]) == 2
        assert f"config error: {field}: patch index" in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()

    def test_synth_deterministic_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "a"))
        assert cli.main(["synth", "--config", cfg_path, "--seed", "42"]) == 0
        first = (tmp_path / "a" / "measurement.csv").read_bytes()
        assert cli.main(["synth", "--config", cfg_path, "--seed", "42", "--out", str(tmp_path / "b")]) == 0
        second = (tmp_path / "b" / "measurement.csv").read_bytes()
        assert first == second

    def test_resolved_config_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "a", measurement={"grid_counts": [12, 5], "rng_seed": 5, "noise_sigma": 0.01}))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        resolved = tmp_path / "a" / "resolved_config.json"
        assert cli.main(["synth", "--config", str(resolved), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "measurement.csv").read_bytes() == (tmp_path / "b" / "measurement.csv").read_bytes()
        a = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        b = json.loads((tmp_path / "b" / "resolved_config.json").read_text())
        a.pop("output_dir"), b.pop("output_dir")
        assert a == b

    def test_synth_noiseless_matches_forward_strains(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, base_config(out))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        assert cli.main(["forward", "--config", cfg_path, "--out", str(tmp_path / "fwd")]) == 0
        import femupdate as fu

        field = fu.load_measurement_csv(out / "measurement.csv")
        rows = np.loadtxt(tmp_path / "fwd" / "strains.csv", delimiter=",", skiprows=1)
        interp = fu.Interpolator(rows[:, :2], field.grid.points())
        np.testing.assert_allclose(interp(rows[:, 2]), field.exx, rtol=1e-12)

    def test_forward_homogeneous_constant_strain(self, tmp_path):
        cfg = base_config(tmp_path / "fwd", material={}, patches={"n_sections": 2, "defects": []})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", cfg_path]) == 0
        rows = np.loadtxt(tmp_path / "fwd" / "strains.csv", delimiter=",", skiprows=1)
        assert np.abs(rows[:, 2] - 1e-3).max() < 1e-10
        vtk = (tmp_path / "fwd" / "modulus_map.vtk").read_text().splitlines()
        assert vtk[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in vtk
        npoints = int(next(l for l in vtk if l.startswith("POINTS")).split()[1])
        assert npoints == 11 * 5

    def test_forward_defect_perturbation(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "fwd"))
        assert cli.main(["forward", "--config", cfg_path]) == 0
        rows = np.loadtxt(tmp_path / "fwd" / "strains.csv", delimiter=",", skiprows=1)
        assert rows[:, 2].max() / rows[:, 2].min() > 1.05

    def test_synth_3d_front_face_grid(self, tmp_path):
        cfg = base_config(
            tmp_path / "s3",
            geometry={"dimension": 3, "length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 8.0,
                      "nx": 6, "ny": 3, "nz": 2},
            patches={"n_sections": 2, "defects": []},
            material={},
            measurement={"grid_counts": [8, 4], "rng_seed": 1},
        )
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["synth", "--config", cfg_path]) == 0
        import femupdate as fu

        field = fu.load_measurement_csv(tmp_path / "s3" / "measurement.csv")
        assert field.grid.counts == (8, 4)
        pts = field.grid.points()
        assert pts[:, 0].max() < 100 and pts[:, 1].max() < 20  # in-plane front-face coordinates

    def test_missing_geometry_field_exit_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x")
        del cfg["geometry"]["length_mm"]
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", cfg_path]) == 2
        assert "geometry.length_mm" in capsys.readouterr().err

    def test_infinite_geometry_field_exit_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x")
        cfg["geometry"]["length_mm"] = float("inf")  # written as the JSON token Infinity
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", cfg_path]) == 2
        assert "geometry.length_mm" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "invert"])
    def test_zero_load_exit_2(self, tmp_path, capsys, command):
        """A zero applied displacement strains nothing, so an inversion would
        only return its initial guess."""
        out = tmp_path / "t"
        assert cli.main(["synth", "--config", write_config(tmp_path, base_config(out))]) == 0
        bad_path = write_config(tmp_path, base_config(tmp_path / "z", bcs={"u_applied_mm": 0}), "zero.json")
        args = ["--measurement", str(out / "measurement.csv")] if command == "invert" else []
        assert cli.main([command, "--config", bad_path, *args]) == 2
        assert "config error: bcs.u_applied_mm: must be nonzero" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("modulus", [0.0, -60000.0])
    def test_non_positive_truth_modulus_exit_2(self, tmp_path, capsys, modulus):
        out = tmp_path / "t"
        cfg_path = write_config(tmp_path, base_config(out, material={"truth_moduli_mpa": {"3": modulus}}))
        assert cli.main(["forward", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "config error: material.truth_moduli_mpa: modulus for patch 3 must be positive and finite" in err
        assert not out.exists()

    def test_z_face_on_2d_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t"
        cfg_path = write_config(tmp_path, base_config(out, bcs={"fixed_face": "zmin"}))
        assert cli.main(["forward", "--config", cfg_path]) == 2
        assert "config error: bcs.fixed_face: " in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()

    def test_degenerate_geometry_exit_4_before_writing(self, tmp_path, capsys):
        """A coupon so small that its Jacobian determinants underflow to 0:
        the forward model's build rejects it before the output directory
        is made."""
        out = tmp_path / "t"
        geometry = {"length_mm": 1e-170, "width_mm": 1e-170, "thickness_mm": 2.0, "nx": 2, "ny": 1}
        cfg = base_config(out, geometry=geometry, patches={"n_sections": 2}, material={})
        assert cli.main(["forward", "--config", write_config(tmp_path, cfg)]) == 4
        assert re.search(r"numerical error: non-positive Jacobian .* in element 0$", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, field, message",
        [
            ({"patches": {"n_sections": 3, "defects": [{"box_min": [41.0, 6.0], "box_max": [42.0, 7.0]}]}},
             "patches", "contains no element centroid"),
            ({"geometry": {"dimension": 3, "length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 8.0,
                           "nx": 4, "ny": 2, "nz": 2}, "patches": {"n_sections": 5, "defects": []}},
             "patches.n_sections", "must be <= nx"),
            ({"measurement": {"grid_counts": [12, 5], "grid_margin_mm": 10.0}}, "measurement", "leaves no room"),
            ({"measurement": {"grid_counts": [12, 5], "grid_spacing_mm": [5.0, 5.0]}}, "measurement", "give only one"),
            ({"bounds": {"lo_factor": 2.0, "hi_factor": 1.5}}, "bounds", "exceeds hi_factor"),
            ({"bounds": {"lo_factor": 1.2}}, "bounds", "must bracket e_ref"),
            ({"grad": {"max_iterations": 0}}, "grad", "max_iterations must be positive"),
        ],
        ids=["defect-misses-centroids", "3d-sections-exceed-nx", "margin-leaves-no-room", "counts-and-spacing",
             "crossed-factors", "bounds-miss-e-ref", "no-gauss-newton-iterations"],
    )
    def test_rejected_config_exit_2_before_writing(self, tmp_path, capsys, override, field, message):
        out = tmp_path / "t"
        cfg_path = write_config(tmp_path, base_config(out, **override))
        assert cli.main(["synth", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err and message in err
        assert not out.exists()

    def test_locked_output_dir_exit_2(self, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        with open(out / ".femupdate.lock", "w") as held:  # a live run's lock
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            cfg_path = write_config(tmp_path, base_config(out))
            assert cli.main(["synth", "--config", cfg_path]) == 2
        assert "locked" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
    def test_unusable_output_path_exit_2(self, tmp_path, capsys, where):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        out = afile if where == "existing-file" else afile / "sub"
        cfg_path = write_config(tmp_path, base_config(tmp_path / "unused"))
        assert cli.main(["forward", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"config error: {out}: cannot use as output directory" in capsys.readouterr().err
        assert afile.read_text() == "not a directory\n"

    def test_dead_runs_lock_does_not_block(self, tmp_path):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".femupdate.lock").write_text(f"{dead.pid}\n")
        cfg_path = write_config(tmp_path, base_config(out))
        assert cli.main(["forward", "--config", cfg_path]) == 0
        assert cli.main(["forward", "--config", cfg_path]) == 0  # and the lock is released again

    @pytest.mark.parametrize(
        "key",
        [
            "fd_step_rel", "armijo_c", "backtrack_factor", "grad_tol", "step_tol",
            *(f"ga.{k}" for k in REMOVED_GA_KEYS), "bcs.loaded_face",
        ],
    )
    def test_removed_fd_step_knob_exit_2(self, tmp_path, capsys, key):
        # 1e-6 was a legal value of every one of the removed grad keys; a
        # removed ga or bcs key gets its old default.
        section, _, name = key.rpartition(".")
        section = section or "grad"
        cfg = base_config(tmp_path / "x")
        cfg.setdefault(section, {})[name] = {**REMOVED_GA_KEYS, "loaded_face": "xmax"}.get(name, 1e-6)
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{name}" in err
        assert "unknown key" in err

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "clean"
        cfg_path = write_config(tmp_path, base_config(out))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        leftovers = [f for f in os.listdir(out) if f.startswith(".tmp")]
        assert leftovers == []

    def test_failed_atomic_write_keeps_the_old_file(self, tmp_path):
        """A write that raises (a lone surrogate has no UTF-8 encoding)
        leaves the target as it was and no temporary file behind."""
        target = tmp_path / "summary.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(target), "new \ud800\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["summary.txt"]


@pytest.fixture(scope="module")
def inverted(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("invert")
    out = tmp / "run"
    cfg_path = write_config(tmp, base_config(out))
    assert cli.main(["synth", "--config", cfg_path]) == 0
    inv = tmp / "inv"
    code = cli.main(
        ["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
         "--out", str(inv)]
    )
    return code, inv


class TestCmdInvert:

    def test_exit_zero_and_files(self, inverted):
        code, inv = inverted
        assert code == 0
        for name in (
            "report.json", "summary.txt", "convergence.csv",
            "residual_before.vtk", "residual_after.vtk",
            "residual_before.csv", "residual_after.csv",
            "modulus_map.vtk", "modulus_map.csv", "resolved_config.json",
        ):
            assert (inv / name).exists(), name

    def test_report_contents(self, inverted):
        _, inv = inverted
        report = json.loads((inv / "report.json").read_text())
        assert report["schema_version"] == 4
        assert report["failed_evaluations"] == 0
        # the residual maps at the guess, and at the end unless the last evaluation was there
        assert report["factorizations"] - report["forward_solve_count"] in (1, 2)
        assert report["noise_floor"] is None  # noiseless measurement
        assert len(report["recovered_moduli_mpa"]) == 4
        recovered = np.array(report["recovered_moduli_mpa"])
        truth = np.array(report["truth_moduli_mpa"])
        assert np.abs(recovered - truth).max() / 200000.0 < 0.01
        assert report["final_cost"] == report["convergence"][-1]["best_cost"]
        assert report["cost_reduction_factor"] == pytest.approx(
            report["initial_cost"] / report["final_cost"]
        )

    def test_final_cost_is_the_cost_of_the_recovered_moduli(self, inverted):
        _, inv = inverted
        report = json.loads((inv / "report.json").read_text())
        cfg = json.loads((inv / "resolved_config.json").read_text())
        _, context, _, _ = context_from(cfg, str(inv.parent / "run" / "measurement.csv"))
        assert context.cost(np.array(report["recovered_moduli_mpa"])) == report["final_cost"]

    def test_convergence_csv_schema(self, inverted):
        _, inv = inverted
        lines = (inv / "convergence.csv").read_text().splitlines()
        assert lines[0] == "stage,iteration,best_cost,E_1,E_2,E_3,E_4"
        stages = {l.split(",")[0] for l in lines[1:]}
        assert stages == {"GA", "GRADIENT"}

    def test_residual_maps_shrink(self, inverted):
        _, inv = inverted
        before = np.loadtxt(inv / "residual_before.csv", delimiter=",", skiprows=1)
        after = np.loadtxt(inv / "residual_after.csv", delimiter=",", skiprows=1)
        assert after[:, 5].max() < before[:, 5].max() * 1e-3  # rss column collapses

    def test_report_command_table(self, inverted, capsys):
        _, inv = inverted
        assert cli.main(["report", str(inv / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "patches: 4" in out
        assert "rel_error" in out
        assert "reduction factor" in out
        assert "noise floor z: none (noiseless measurement, or a strain floor below the noise)" in out

    def test_report_command_prints_summary_txt(self, inverted, capsysbinary):
        _, inv = inverted
        assert cli.main(["report", str(inv / "report.json")]) == 0
        assert capsysbinary.readouterr().out == (inv / "summary.txt").read_bytes()

    def test_noisy_report_z_against_the_measurement(self, tmp_path):
        """With 1 % noise Gauss-Newton from the guess fits the data to their
        noise, so the GA never runs; report.json's z equals one written out
        from the measurement CSV, and summary.txt prints it."""
        out = tmp_path / "run"
        measurement = {"grid_counts": [12, 5], "rng_seed": 9, "noise_sigma": 0.01}
        cfg_path = write_config(tmp_path, base_config(out, measurement=measurement, strain_floor=3e-5))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        inv = tmp_path / "inv"
        assert cli.main(["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
                         "--out", str(inv)]) == 0
        report = json.loads((inv / "report.json").read_text())
        assert report["stage_iterations"]["GA"] == 0
        lines = (out / "measurement.csv").read_text().splitlines()
        strains = np.loadtxt([l for l in lines if not l.startswith(("#", "x_mm"))], delimiter=",")[:, 2:]
        assert strains.shape == (60, 3)
        clean_rms = np.sqrt(np.mean(strains**2, axis=0) / (1 + 0.01**2))
        s2 = (0.01 * clean_rms / np.maximum(np.abs(strains), 3e-5)) ** 2
        expected, sd = s2.sum(), np.sqrt(2 * np.sum(s2**2))
        floor = report["noise_floor"]
        assert floor["expected"] == pytest.approx(expected, rel=1e-12)
        assert floor["sd"] == pytest.approx(sd, rel=1e-12)
        assert floor["z"] == pytest.approx((report["final_cost"] - expected) / sd, rel=1e-9)
        assert floor["z"] <= 5.0
        assert f"noise floor z: {floor['z']:+.2f} " in (inv / "summary.txt").read_text()

    def test_noisy_report_with_floor_below_the_noise_runs_the_ga(self, tmp_path):
        """With 1 % noise and the default 1e-6 strain floor, below the
        noise, the report has no noise floor and the GA runs."""
        out = tmp_path / "run"
        measurement = {"grid_counts": [12, 5], "rng_seed": 9, "noise_sigma": 0.01}
        cfg_path = write_config(tmp_path, base_config(out, measurement=measurement))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        inv = tmp_path / "inv"
        assert cli.main(["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
                         "--out", str(inv)]) == 0
        report = json.loads((inv / "report.json").read_text())
        assert report["noise_floor"] is None
        assert report["stage_iterations"]["GA"] > 0

    def test_noisy_11_patch_coupon_in_three_solves(self, tmp_path):
        """The 2D benchmark problem (40 x 10 coupon, 11 patches, two defects
        at 0.3 E0, 1 % noise; its seed 1): Gauss-Newton with geodesic
        acceleration reaches the noise floor from the homogeneous guess in 3
        evaluations (4 without it), the first served by the residual maps'
        solve at the guess, so 2 forward solves; the GA never runs."""
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, invert2d_config(out))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        inv = tmp_path / "inv"
        assert cli.main(["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
                         "--out", str(inv)]) == 0
        report = json.loads((inv / "report.json").read_text())
        assert report["stage_iterations"]["GA"] == 0
        assert report["forward_solve_count"] == 2
        assert report["noise_floor"]["z"] <= 5.0

    def test_invert_factors_each_design_once(self, tmp_path, monkeypatch):
        """On the 2D benchmark problem (seed 1) ``invert`` makes 3 ``splu``
        calls: the maps at the guess, whose solve serves Gauss-Newton's
        first evaluation, and 2 more evaluations, the last of which serves
        the maps at the end. Its maps, modulus map and convergence.csv are
        bitwise those of a run whose every solve factors (5 calls)."""
        from femupdate import solver
        from femupdate.solver import ForwardModel

        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, invert2d_config(out))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        calls = []
        real_splu, real_solve = solver.splu, ForwardModel._solve

        def splu(*args, **kwargs):
            calls.append(1)
            return real_splu(*args, **kwargs)

        def fresh(self, values):
            self._held = None
            return real_solve(self, values)

        monkeypatch.setattr(solver, "splu", splu)
        runs = {}
        for name in ("held", "fresh"):
            if name == "fresh":
                monkeypatch.setattr(ForwardModel, "_solve", fresh)
            del calls[:]
            inv = tmp_path / name
            assert cli.main(["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
                             "--out", str(inv)]) == 0
            report = json.loads((inv / "report.json").read_text())
            runs[name] = len(calls), report["factorizations"], report["forward_solve_count"]
        assert runs == {"held": (3, 3, 2), "fresh": (5, 5, 3)}
        for name in ("residual_before.csv", "residual_before.vtk", "residual_after.csv", "residual_after.vtk",
                     "modulus_map.csv", "modulus_map.vtk", "convergence.csv"):
            assert (tmp_path / "held" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
        summary = (tmp_path / "held" / "summary.txt").read_text()
        assert "forward solves: 2 (GA iterations 0, gradient iterations 3)\n" in summary
        assert "factorizations: 3 (the forward solves and the residual maps)\n" in summary

    def test_homogeneous_control_recovers_uniform(self, tmp_path):
        """Noiseless homogeneous truth: all patches within 2% of one another."""
        out = tmp_path / "homog"
        cfg = base_config(out, material={}, patches={"n_sections": 3, "defects": []})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["synth", "--config", cfg_path]) == 0
        inv = tmp_path / "inv"
        assert cli.main(
            ["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
             "--out", str(inv)]
        ) == 0
        report = json.loads((inv / "report.json").read_text())
        recovered = np.array(report["recovered_moduli_mpa"])
        assert recovered.max() / recovered.min() < 1.02
        assert report["truth_moduli_mpa"] is None  # no explicit truth in the config

    def test_report_without_truth_omits_error_column(self, tmp_path, capsys):
        report = {
            "schema_version": 1,
            "recovered_moduli_mpa": [1.0, 2.0],
            "initial_moduli_mpa": [1.5, 1.5],
            "initial_cost": 4.0,
            "final_cost": 1.0,
            "cost_reduction_factor": 4.0,
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rel_error" not in out
        assert "patches: 2" in out
        assert "noise floor z: ?" in out  # a report from before the noise floor

    def test_report_from_before_the_factorization_count(self, tmp_path, capsys):
        """A schema-3 report has no ``factorizations``: the summary shows ``?``."""
        report = {
            "schema_version": 3,
            "recovered_moduli_mpa": [1.0, 2.0],
            "initial_moduli_mpa": [1.5, 1.5],
            "initial_cost": 4.0,
            "final_cost": 1.0,
            "forward_solve_count": 3,
            "stage_iterations": {"GA": 0, "GRADIENT": 3},
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "forward solves: 3 (GA iterations 0, gradient iterations 3)\n" in out
        assert "factorizations: ? (the forward solves and the residual maps)\n" in out

    @pytest.mark.parametrize("z, noted", [(5.0, False), (5.01, True)])
    def test_report_notes_a_fit_above_the_noise_floor(self, tmp_path, capsys, z, noted):
        """A final cost more than 5 sd above the noise floor gets a note in
        the summary; one at 5 sd does not."""
        report = {
            "recovered_moduli_mpa": [1.0, 2.0],
            "initial_moduli_mpa": [1.5, 1.5],
            "initial_cost": 4.0,
            "final_cost": 1.0,
            "noise_floor": {"expected": 0.5, "sd": 0.1, "z": z},
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["report", str(path)]) == 0
        note = "note: the fit ends above the noise floor (z > 5), from model error or a local minimum\n"
        assert (note in capsys.readouterr().out) == noted

    @pytest.mark.parametrize("stalled", [False, True])
    def test_report_notes_a_stalled_line_search(self, tmp_path, capsys, stalled):
        report = {
            "recovered_moduli_mpa": [1.0, 2.0],
            "initial_moduli_mpa": [1.5, 1.5],
            "initial_cost": 4.0,
            "final_cost": 1.0,
            "gradient_stalled": stalled,
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["report", str(path)]) == 0
        note = "note: gradient line search stalled before meeting its tolerance\n"
        assert (note in capsys.readouterr().out) == stalled

    def test_truncated_csv_exit_3(self, tmp_path, capsys):
        out = tmp_path / "t"
        cfg_path = write_config(tmp_path, base_config(out))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        text = (out / "measurement.csv").read_text().splitlines()
        text[9] = ",".join(text[9].split(",")[:3])  # row loses two fields
        truncated = tmp_path / "truncated.csv"
        truncated.write_text("\n".join(text[:10]) + "\n")
        assert cli.main(
            ["invert", "--config", cfg_path, "--measurement", str(truncated), "--out", str(tmp_path / "i")]
        ) == 3
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["missing", "directory"])
    def test_unreadable_measurement_exit_3(self, tmp_path, capsys, what):
        path = tmp_path / "nonexist.csv"
        if what == "directory":
            path.mkdir()
        inv = tmp_path / "i"
        cfg_path = write_config(tmp_path, base_config(inv))
        assert cli.main(["invert", "--config", cfg_path, "--measurement", str(path)]) == 3
        assert f"data error: {path}: cannot read measurement file" in capsys.readouterr().err
        assert not inv.exists()

    @pytest.mark.parametrize("sigma", ["-1", "nan"])
    def test_invalid_noise_metadata_exit_3(self, tmp_path, capsys, sigma):
        out = tmp_path / "t"
        cfg_path = write_config(tmp_path, base_config(out))
        assert cli.main(["synth", "--config", cfg_path]) == 0
        text = (out / "measurement.csv").read_text().splitlines()
        lineno = next(i for i, line in enumerate(text, 1) if line.startswith("# noise_sigma="))
        text[lineno - 1] = f"# noise_sigma={sigma}"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(text) + "\n")
        assert cli.main(
            ["invert", "--config", cfg_path, "--measurement", str(bad), "--out", str(tmp_path / "i")]
        ) == 3
        assert f"line {lineno}: noise_sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, override, field",
        [
            ("material", {"truth_moduli_mpa": {"9": 60000.0}}, "material.truth_moduli_mpa"),
            ("bounds", {"pin_reference_patch": 7}, "bounds.pin_reference_patch"),
        ],
        ids=["truth-index", "pinned-patch"],
    )
    def test_patch_index_out_of_range_exit_2_before_writing(self, tmp_path, capsys, section, override, field):
        out = tmp_path / "t"
        assert cli.main(["synth", "--config", write_config(tmp_path, base_config(out))]) == 0
        bad_path = write_config(tmp_path, base_config(out, **{section: override}), "bad.json")
        inv = tmp_path / "i"
        assert cli.main(
            ["invert", "--config", bad_path, "--measurement", str(out / "measurement.csv"), "--out", str(inv)]
        ) == 2
        assert f"config error: {field}: patch index" in capsys.readouterr().err
        assert not (inv / "resolved_config.json").exists()
        assert not (inv / "report.json").exists()

    @pytest.mark.parametrize(
        "override, args, field",
        [
            ({"measurement": {"grid_counts": [12, 5], "rng_seed": -5}}, [], "measurement.rng_seed"),
            ({"ga": {"population_size": 14, "generations_max": 10, "rng_seed": -1}}, [], "ga.rng_seed"),
            ({}, ["--seed", "-3"], "--seed"),
        ],
        ids=["measurement-seed", "ga-seed", "seed-flag"],
    )
    def test_negative_seed_exit_2_before_writing(self, tmp_path, capsys, override, args, field):
        out = tmp_path / "t"
        assert cli.main(["synth", "--config", write_config(tmp_path, base_config(out))]) == 0
        bad_path = write_config(tmp_path, base_config(out, **override), "bad.json")
        inv = tmp_path / "i"
        assert cli.main(
            ["invert", "--config", bad_path, "--measurement", str(out / "measurement.csv"), "--out", str(inv), *args]
        ) == 2
        assert f"config error: {field}: must be >= 0" in capsys.readouterr().err
        assert not inv.exists()

    def test_grid_geometry_mismatch_exit_3(self, tmp_path, capsys):
        big = base_config(tmp_path / "big", geometry={"length_mm": 200.0, "width_mm": 40.0, "thickness_mm": 2.0, "nx": 10, "ny": 4})
        big_path = write_config(tmp_path, big, "big.json")
        assert cli.main(["synth", "--config", big_path]) == 0
        small_path = write_config(tmp_path, base_config(tmp_path / "small"), "small.json")
        assert cli.main(
            ["invert", "--config", small_path, "--measurement", str(tmp_path / "big" / "measurement.csv"),
             "--out", str(tmp_path / "i2")]
        ) == 3
        err = capsys.readouterr().err
        assert "grid" in err and "100" in err  # both geometries described

    def test_missing_report_exit_2(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_corrupt_report_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli.main(["report", str(path)]) == 2
        assert "corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report, field",
        [
            (5, "JSON object"),
            ("recovered_moduli_mpa initial_moduli_mpa initial_cost final_cost", "JSON object"),
            ({"recovered_moduli_mpa": "1, 2", "initial_moduli_mpa": [1.0, 1.0], "initial_cost": 4.0,
              "final_cost": 1.0}, "'recovered_moduli_mpa'"),
            ({"recovered_moduli_mpa": [1.0], "initial_moduli_mpa": [1.0], "initial_cost": 4.0,
              "final_cost": 1.0, "noise_floor": {"expected": 1.0, "sd": 0.5}}, "'noise_floor'"),
            ({"recovered_moduli_mpa": [1.0], "initial_moduli_mpa": [1.0], "initial_cost": 4.0},
             "report is missing field 'final_cost'"),
            ({"recovered_moduli_mpa": [1.0], "initial_moduli_mpa": [1.0], "initial_cost": "4.0",
              "final_cost": 1.0}, "field 'initial_cost' must be a number"),
            ({"recovered_moduli_mpa": [1.0], "initial_moduli_mpa": [1.0], "initial_cost": 4.0,
              "final_cost": 1.0, "stage_iterations": [1, 9]}, "field 'stage_iterations' must be an object"),
        ],
        ids=["number", "string", "string-moduli", "noise-floor-without-z", "no-final-cost", "string-cost",
             "list-stage-iterations"],
    )
    def test_malformed_report_exit_2(self, tmp_path, capsys, report, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        assert cli.main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and field in err


def test_benchmark_hooks_see_the_solves(tmp_path, monkeypatch):
    """The contract of the benchmark's hooks (perfbench/child.py and
    perfbench/tracing.py): ``femupdate invert`` makes its first forward
    solve through ``ForwardModel.solve_displacement(self, values)`` before
    ``cli.run_hybrid`` returns, and every forward solve it counts inside
    ``run_hybrid`` is one call of ``solver.splu``."""
    from femupdate import solver
    from femupdate.solver import ForwardModel

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


def test_cli_import_leaves_out_unused_scipy_modules():
    """The package's one neighbour search needs neither scipy.spatial nor
    scipy.special, and its node order no graph routine; importing them
    costs every command start-up time."""
    code = (
        "import sys, femupdate.cli; "
        "print(sorted(m for m in ('scipy.spatial', 'scipy.special', 'scipy.sparse.csgraph') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))  # the femupdate under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_invert_leaves_out_scipy_optimize(tmp_path):
    """A whole ``femupdate invert`` runs without ``scipy.optimize``, whose
    import alone costs start-up time and memory."""
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, base_config(out))
    assert cli.main(["synth", "--config", cfg_path]) == 0
    args = ["invert", "--config", cfg_path, "--measurement", str(out / "measurement.csv"),
            "--out", str(tmp_path / "inv")]
    code = (
        "import sys, femupdate.cli; "
        f"assert femupdate.cli.main({args!r}) == 0; "
        "print('scipy.optimize' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))  # the femupdate under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.strip().splitlines()[-1] == "False"
    assert (tmp_path / "inv" / "report.json").exists()


class TestArgparseContract:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--bogus"])
        assert exc.value.code == 2
