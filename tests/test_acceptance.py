"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The desk-scale identification problem: a 100 x 20 x 2 mm plane-stress
coupon split into 9 longitudinal sections plus 2 rectangular defect
patches (11 unknown moduli), displacement-controlled tension, and a
synthetic measurement grid of about 40 x 10 points. The modulus scale is
not observable under pure displacement control (scaling every patch
scales the stiffness and leaves strains unchanged), so the first section
is pinned to the reference modulus; see README.
"""

import csv
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import femupdate as fu
import femupdate.cli as cli
from conftest import Prescribed
from femupdate.config import load_config

E0 = 200000.0
NU = 0.3


@contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


def coupon_config_2d(outdir, noise_sigma=0.0, measurement_seed=7, ga_seed=11):
    return {
        "geometry": {"length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 2.0, "nx": 40, "ny": 10},
        "patches": {
            "n_sections": 9,
            "defects": [
                {"box_min": [20.0, 6.0], "box_max": [32.0, 14.0]},
                {"box_min": [60.0, 4.0], "box_max": [72.0, 12.0]},
            ],
        },
        "material": {
            "e_ref_mpa": E0,
            "poisson_ratio": NU,
            "truth_moduli_mpa": {"9": 0.3 * E0, "10": 0.3 * E0},
        },
        "bcs": {"u_applied_mm": 0.1},
        "measurement": {"grid_counts": [40, 10], "noise_sigma": noise_sigma, "rng_seed": measurement_seed},
        "ga": {"population_size": 40, "generations_max": 60, "rng_seed": ga_seed},
        "grad": {"max_iterations": 600},
        # noise-aware residual floor: above the 1%-noise level of every strain
        # component, far below the signal RMS. The library default (1e-6) lets
        # near-zero shear points dominate the noisy misfit landscape.
        "strain_floor": 3e-5,
        "output_dir": str(outdir),
    }


def coupon_config_3d(outdir):
    return {
        "geometry": {"dimension": 3, "length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 8.0,
                     "nx": 30, "ny": 8, "nz": 4},
        "patches": {
            "n_sections": 2,
            "defects": [{"box_min": [40.0, 5.0, 0.0], "box_max": [60.0, 15.0, 4.0]}],
        },
        "material": {"e_ref_mpa": E0, "poisson_ratio": NU, "truth_moduli_mpa": {"2": 0.25 * E0}},
        "bcs": {"u_applied_mm": 0.1},
        "measurement": {"grid_counts": [25, 7], "noise_sigma": 0.0, "rng_seed": 3},
        "ga": {"population_size": 24, "generations_max": 40, "rng_seed": 5},
        "grad": {"max_iterations": 200},
        "output_dir": str(outdir),
    }


def run_pipeline(tmp, cfg_dict, tag):
    """synth + two identical inversions; returns paths, report and wall time."""
    cfg_path = tmp / f"config_{tag}.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    assert cli.main(["synth", "--config", str(cfg_path)]) == 0
    measurement = cfg_dict["output_dir"] + "/measurement.csv"
    inv1 = tmp / f"inv_{tag}_1"
    inv2 = tmp / f"inv_{tag}_2"
    start = time.perf_counter()
    assert cli.main(["invert", "--config", str(cfg_path), "--measurement", measurement,
                     "--out", str(inv1)]) == 0
    wall = time.perf_counter() - start
    assert cli.main(["invert", "--config", str(cfg_path), "--measurement", measurement,
                     "--out", str(inv2)]) == 0
    report = json.loads((inv1 / "report.json").read_text())
    return {"config": cfg_path, "measurement": measurement, "inv1": inv1, "inv2": inv2,
            "report": report, "wall": wall}


def context_from(cfg_dict, measurement_path):
    """Rebuild the inversion cost context exactly as cmd_invert does."""
    config = load_config(dict(cfg_dict))
    mesh = config.build_mesh()
    pmap = config.build_patch_map(mesh)
    bcs = config.build_bcs()
    field = fu.load_measurement_csv(measurement_path)
    model = fu.ForwardModel(mesh, pmap, config.material.poisson_ratio, bcs)
    context = fu.CostContext(model, field, strain_floor=config.strain_floor)
    lower, upper = config.moduli_bounds(pmap.patch_count)
    return config, context, lower, upper


@pytest.fixture(scope="module")
def acc(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def run_2d(acc):
    return run_pipeline(acc, coupon_config_2d(acc / "synth2d"), "2d")


@pytest.fixture(scope="module")
def runs_noise(acc):
    out = []
    for s in range(3):
        cfg = coupon_config_2d(acc / f"synthn{s}", noise_sigma=0.01,
                               measurement_seed=1000 + s, ga_seed=2000 + s)
        out.append(run_pipeline(acc, cfg, f"n{s}"))
    return out


@pytest.fixture(scope="module")
def run_3d(acc):
    return run_pipeline(acc, coupon_config_3d(acc / "synth3d"), "3d")


def test_criterion_1_solver_analytic():
    """Uniaxial bar strains exact to 1e-8; patch test to 1e-10; < 1 s."""
    with criterion(1, "solver correctness"):
        start = time.perf_counter()
        mesh = fu.build_coupon_mesh(100, 20, 2, 40, 10)
        pmap = fu.partition_longitudinal(mesh, 1)
        values = np.array([E0])
        bcs = fu.BoundaryConditions("xmin", "xmax", 0.1)
        exx, eyy, exy = fu.ForwardModel(mesh, pmap, NU, bcs).surface_strain_arrays(values)
        np.testing.assert_allclose(exx, 1.0e-3, rtol=1e-8)
        np.testing.assert_allclose(eyy, -NU * 1.0e-3, rtol=1e-8)
        assert np.abs(exy).max() < 1e-8 * 1e-3

        # patch test: affine displacement on the full boundary
        small = fu.build_coupon_mesh(30, 10, 1.0, 6, 4)
        a = np.array([[2e-3, 5e-4], [3e-4, -1e-3]])
        boundary = np.unique(np.concatenate([small.face_nodes(f) for f in ("xmin", "xmax", "ymin", "ymax")]))
        dofs = np.concatenate([[2 * n, 2 * n + 1] for n in boundary])
        patch_bcs = Prescribed(dofs, (small.nodes @ a.T)[boundary].ravel())
        model = fu.ForwardModel(small, fu.partition_longitudinal(small, 1), NU, patch_bcs)
        exx, eyy, exy = model.surface_strain_arrays(values)
        np.testing.assert_allclose(exx, a[0, 0], rtol=1e-10)
        np.testing.assert_allclose(eyy, a[1, 1], rtol=1e-10)
        np.testing.assert_allclose(exy, a[0, 1] + a[1, 0], rtol=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_gradient_fidelity(run_2d):
    """FD gradient matches a half-step Richardson oracle to 1e-3; < 30 s."""
    with criterion(2, "gradient fidelity"):
        start = time.perf_counter()
        cfg = json.loads((run_2d["inv1"] / "resolved_config.json").read_text())
        _, context, lower, upper = context_from(cfg, run_2d["measurement"])
        cost = context.cost
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(5):
            design = np.clip(rng.uniform(0.4, 2.0, 11) * E0, lower, upper)
            g_h = fu.fd_gradient(cost, design, lower, upper, fd_step_rel=h)
            g_h2 = fu.fd_gradient(cost, design, lower, upper, fd_step_rel=h / 2)
            oracle = (4.0 * g_h2 - g_h) / 3.0
            scale = np.maximum(np.abs(oracle), 1e-9 * np.abs(oracle).max())
            rel = np.abs(g_h - oracle) / scale
            assert rel.max() < 1e-3, f"relative gradient error {rel.max():.2e}"
        assert time.perf_counter() - start < 30.0


def test_adjoint_gradient_matches_fd_oracle(run_2d):
    """The optimizer's exact gradient 2 J^T r matches the FD gradient to 1e-6
    at the criterion-2 designs (free coordinates; the pinned patch is fixed)."""
    cfg = json.loads((run_2d["inv1"] / "resolved_config.json").read_text())
    _, context, lower, upper = context_from(cfg, run_2d["measurement"])
    cost = context.cost
    free = upper > lower
    rng = np.random.default_rng(17)
    for _ in range(5):
        design = np.clip(rng.uniform(0.4, 2.0, 11) * E0, lower, upper)
        f, r, jac = context.cost_and_jacobian(design)
        g = 2.0 * (jac.T @ r)
        assert f == cost(design)
        g_fd = fu.fd_gradient(cost, design, lower, upper)
        rel = np.abs(g - g_fd)[free].max() / np.abs(g_fd).max()
        assert rel < 1e-6, f"adjoint vs FD relative error {rel:.2e}"


def test_criterion_3_inverse_crime_recovery(run_2d):
    """11-patch noiseless identification: 1% moduli, 1e-6 cost drop, < 5 min."""
    with criterion(3, "inverse-crime recovery"):
        report = run_2d["report"]
        recovered = np.array(report["recovered_moduli_mpa"])
        truth = np.array(report["truth_moduli_mpa"])
        rel = np.abs(recovered - truth) / truth
        assert rel.max() < 0.01, f"worst modulus error {rel.max():.3%}"
        assert report["final_cost"] < 1e-6 * report["initial_cost"]
        assert run_2d["wall"] < 300.0


def test_criterion_4_noise_robustness(runs_noise):
    """1% noise, 3 seeds: defects are the two smallest moduli, within 15%."""
    with criterion(4, "noise robustness"):
        for run in runs_noise:
            report = run["report"]
            recovered = np.array(report["recovered_moduli_mpa"])
            truth = np.array(report["truth_moduli_mpa"])
            smallest_two = set(np.argsort(recovered)[:2].tolist())
            assert smallest_two == {9, 10}, f"argmin set {smallest_two}"
            for k in (9, 10):
                assert abs(recovered[k] - truth[k]) / truth[k] < 0.15


def test_criterion_5_surface_only_3d(run_3d):
    """Buried soft region: front-face signature > 5%; recovery 40% below intact."""
    with criterion(5, "surface-only 3D sensitivity"):
        mesh = fu.build_coupon_mesh(100, 20, 8, 30, 8, 4)
        pmap = fu.partition_longitudinal(mesh, 2)
        pmap = fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))])
        model = fu.ForwardModel(mesh, pmap, NU, fu.BoundaryConditions("xmin", "xmax", 0.1))
        homog = model.surface_strain_arrays(np.array([E0, E0, E0]))[0]
        soft = model.surface_strain_arrays(np.array([E0, E0, 0.25 * E0]))[0]
        rel = np.abs(soft - homog) / np.abs(homog)
        assert rel.max() > 0.05, f"front-face signature only {rel.max():.3%}"

        report = run_3d["report"]
        recovered = np.array(report["recovered_moduli_mpa"])
        assert recovered[2] <= 0.6 * min(recovered[0], recovered[1])
        assert run_3d["wall"] < 900.0


def _canonical_report(path):
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    data.pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


def test_criterion_6_determinism(run_2d, runs_noise, run_3d):
    """Identical seeds reproduce convergence.csv and report.json bitwise."""
    with criterion(6, "determinism"):
        for run in [run_2d, *runs_noise, run_3d]:
            c1 = (run["inv1"] / "convergence.csv").read_bytes()
            c2 = (run["inv2"] / "convergence.csv").read_bytes()
            assert c1 == c2
            assert _canonical_report(run["inv1"] / "report.json") == _canonical_report(
                run["inv2"] / "report.json"
            )


def test_criterion_7_cost_oracle_equivalence(run_2d, acc):
    """CostContext.cost matches a straight-line reimplementation over exported
    per-point fields to 1e-12 relative on 10 random designs."""
    with criterion(7, "cost oracle equivalence"):
        cfg = json.loads((run_2d["inv1"] / "resolved_config.json").read_text())
        config, context, lower, upper = context_from(cfg, run_2d["measurement"])
        rng = np.random.default_rng(23)
        for i in range(10):
            design = np.clip(rng.uniform(0.3, 2.5, 11) * E0, lower, upper)
            nxx, nyy, nxy = context.numerical_grid_field(design)
            num_path = acc / f"numerical_{i}.csv"
            fu.write_measurement_csv(
                fu.ExperimentalField(0, context.grid, nxx, nyy, nxy), num_path
            )
            total = _straight_line_eq1(run_2d["measurement"], num_path, config.strain_floor)
            fast = context.cost(design)
            assert fast == pytest.approx(total, rel=1e-12)


def _straight_line_eq1(exp_path, num_path, floor):
    """Plain-Python reading of two exported fields and term-by-term Eq. 1 sum."""

    def read_rows(path):
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("x_mm"):
                    continue
                rows.append([float(v) for v in line.split(",")])
        return rows

    exp_rows = read_rows(exp_path)
    num_rows = read_rows(num_path)
    assert len(exp_rows) == len(num_rows)
    total = 0.0
    for exp, num in zip(exp_rows, num_rows):
        assert abs(exp[0] - num[0]) < 1e-9 and abs(exp[1] - num[1]) < 1e-9
        for c in (2, 3, 4):
            denom = max(abs(exp[c]), floor)
            total += ((exp[c] - num[c]) / denom) ** 2
    return total


def test_report_table_lists_all_eleven_patches(run_2d, capsys):
    """The report command prints one row per patch of the 9+2 problem."""
    assert cli.main(["report", str(run_2d["inv1"] / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "patches: 11" in out
    rows = [l for l in out.splitlines() if l.strip() and l.split()[0].isdigit()]
    assert len(rows) == 11
    report = run_2d["report"]
    assert report["initial_cost"] == report["convergence"][0]["best_cost"]
    assert report["cost_reduction_factor"] == pytest.approx(
        report["initial_cost"] / report["final_cost"]
    )


def test_identifiability_floor_on_acceptance_problem(run_2d):
    """F(truth) = 0 noiseless; any patch 10% off truth gives F > 0."""
    cfg = json.loads((run_2d["inv1"] / "resolved_config.json").read_text())
    config, context, lower, upper = context_from(cfg, run_2d["measurement"])
    truth = config.truth_values(context.forward.patch_map.patch_count)
    assert context.cost(truth) == 0.0
    for k in range(len(truth)):
        design = truth.copy()
        design[k] *= 1.10
        assert context.cost(design) > 1e-4, f"patch {k} not identifiable"


def test_criterion_8_hybrid_dominance(run_2d):
    """Hybrid final cost never exceeds a GA-only run with the same seed."""
    with criterion(8, "hybrid dominance"):
        cfg = json.loads((run_2d["inv1"] / "resolved_config.json").read_text())
        config, context, lower, upper = context_from(cfg, run_2d["measurement"])
        guess = config.initial_guess(context.forward.patch_map.patch_count)
        _, ga_history = fu.run_ga(
            context.cost, lower, upper, config.ga, initial_guess=guess
        )
        report = run_2d["report"]
        ga_stage_final = [r for r in report["convergence"] if r["stage"] == "GA"][-1]["best_cost"]
        assert ga_history.final.best_cost == ga_stage_final  # same seed, same GA
        assert report["final_cost"] <= ga_history.final.best_cost
