"""Batch front-end: forward simulation, synthetic measurements, inversion
and reporting, all driven by one JSON config.

Exit codes: 0 success, 2 config/usage error, 3 measurement data error,
4 numerical failure. Every run writes its fully resolved config beside
the outputs so it can be reproduced exactly; all files are written
atomically and an output directory accepts only one run at a time.
"""

import argparse
import dataclasses
import fcntl
import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, DataError, NumericalError, OutOfDomainError
from .inversion import _NOISE_FLOOR_Z, STAGE_GA, STAGE_GRADIENT, CostContext, run_hybrid
from .measurement import generate_synthetic, load_measurement_csv, write_measurement_csv
from .solver import ForwardModel
from .vtkio import atomic_write_text, write_mesh_vtk, write_points_vtk, write_table_csv

REPORT_SCHEMA_VERSION = 4
_LOCK_NAME = ".femupdate.lock"
_INVERT_FILES = (
    "convergence.csv", "residual_before.vtk", "residual_before.csv", "residual_after.vtk",
    "residual_after.csv", "modulus_map.vtk", "modulus_map.csv", "summary.txt",
)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.out:
        config.output_dir = args.out
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed", f"must be >= 0, got {args.seed}")
        config.measurement.rng_seed = args.seed
        config.ga = dataclasses.replace(config.ga, rng_seed=args.seed)
    return config


@contextmanager
def _prepared(config: RunConfig):
    """Build the problem, range-check its patch indices and build the
    forward model, then hold the output directory's lock with
    ``resolved_config.json`` written; yields ``(model, truth, (lower,
    upper))``, the moduli bounds ``config.moduli_bounds`` gives.

    A config error, and a model that cannot be built (a degenerate element,
    rigid modes), raise before the output directory is touched, and a
    directory or lock file that cannot be created raises ConfigError before
    anything is written. The lock is an exclusive ``flock`` on the
    directory's lock file: the kernel drops it when the holder exits, so a
    run that died leaves nothing that blocks the next one. The empty lock
    file stays.
    """
    mesh = config.build_mesh()
    try:
        pmap = config.build_patch_map(mesh)
    except ValueError as exc:
        raise ConfigError("patches", str(exc)) from None
    truth = config.truth_values(pmap.patch_count)
    bounds = config.moduli_bounds(pmap.patch_count)  # range-checks the pinned patch
    model = ForwardModel(mesh, pmap, config.material.poisson_ratio, config.build_bcs())
    outdir = config.output_dir
    lock = os.path.join(outdir, _LOCK_NAME)
    try:
        os.makedirs(outdir, exist_ok=True)
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
    except OSError as exc:
        raise ConfigError(str(outdir), f"cannot use as output directory: {exc}") from exc
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(lock, "output directory is locked by another run") from None
        atomic_write_text(os.path.join(outdir, "resolved_config.json"), _json_text(config.to_dict()))
        yield model, truth, bounds
    finally:
        os.close(fd)


def _write_point_field(outdir, name, points, columns: dict, title) -> None:
    """``<name>.vtk`` and ``<name>.csv`` of the ``{column: values}`` at the (x, y) ``points``."""
    write_points_vtk(os.path.join(outdir, f"{name}.vtk"), points, columns, title=title)
    write_table_csv(
        os.path.join(outdir, f"{name}.csv"),
        ["x_mm", "y_mm", *columns],
        np.column_stack([points, *columns.values()]).tolist(),
    )


def _modulus_outputs(outdir, model: ForwardModel, values):
    mesh = model.mesh
    centroids = mesh.element_centroids()
    patch = model.patch_map.patch_of_element
    moduli = values[patch]
    write_mesh_vtk(
        os.path.join(outdir, "modulus_map.vtk"),
        mesh,
        cell_data={"modulus_mpa": moduli, "patch_index": patch.astype(np.int64)},
        title="modulus map",
    )
    header = ["element_id"] + [f"centroid_{a}_mm" for a in "xyz"[: mesh.dimension]] + ["patch_index", "modulus_mpa"]
    rows = [
        [e, *c, k, m] for e, (c, k, m) in enumerate(zip(centroids.tolist(), patch.tolist(), moduli.tolist()))
    ]
    write_table_csv(os.path.join(outdir, "modulus_map.csv"), header, rows)


def cmd_forward(config: RunConfig) -> int:
    """Forward solve with the configured truth moduli; write fields."""
    outdir = config.output_dir
    with _prepared(config) as (model, truth, _):
        mesh = model.mesh
        u_flat = model.solve_displacement(truth)
        exx, eyy, exy = model.sample_strains(u_flat)
        u = u_flat.reshape(mesh.n_nodes, mesh.dimension)

        axes = "xyz"[: mesh.dimension]
        write_mesh_vtk(
            os.path.join(outdir, "displacement.vtk"),
            mesh,
            cell_data={"modulus_mpa": truth[model.patch_map.patch_of_element]},
            point_data={"displacement_mm": u},
            title="displacement field",
        )
        header = [f"{a}_mm" for a in axes] + [f"u{a}_mm" for a in axes]
        write_table_csv(os.path.join(outdir, "displacement.csv"), header, np.hstack([mesh.nodes, u]).tolist())
        _write_point_field(
            outdir, "strains", model.surface_points, {"exx": exx, "eyy": eyy, "exy": exy},
            "surface strains at Gauss points",
        )
        _modulus_outputs(outdir, model, truth)
    return 0


def cmd_synth(config: RunConfig) -> int:
    """Generate a synthetic measurement CSV from the configured truth."""
    try:
        grid = config.build_grid()
    except ValueError as exc:
        raise ConfigError("measurement", str(exc)) from None
    with _prepared(config) as (model, truth, _):
        meas = config.measurement
        field = generate_synthetic(model, truth, grid, noise_sigma=meas.noise_sigma, rng_seed=meas.rng_seed)
        write_measurement_csv(field, os.path.join(config.output_dir, "measurement.csv"))
    return 0


def cmd_invert(config: RunConfig, measurement_path: str) -> int:
    """Run the hybrid inversion against a measurement file; write the report."""
    outdir = config.output_dir
    field = load_measurement_csv(measurement_path)
    with _prepared(config) as (model, truth, (lower, upper)):
        try:
            context = CostContext(model, field, strain_floor=config.strain_floor)
        except OutOfDomainError as exc:
            length, width = model.mesh.extent[:2]
            raise DataError(
                f"measurement grid does not fit the configured geometry: measurement is a "
                f"{field.grid.describe()}; the model surface covers {length:g} x {width:g} mm; {exc}"
            ) from exc
        guess = config.initial_guess(model.patch_map.patch_count)

        # The maps at the guess come first: their solve is the run's first
        # forward solve, which the benchmark's solve phase starts at. The
        # model holds it, so Gauss-Newton's first evaluation, at the guess,
        # factors nothing; the maps at the end reuse its last evaluation.
        before = _residual_maps(context, guess)
        start = time.perf_counter()
        final, history = run_hybrid(context, lower, upper, config.ga, config.grad, guess)
        wall = time.perf_counter() - start

        grid_pts = context.grid.points()
        for tag, maps in (("before", before), ("after", _residual_maps(context, final))):
            _write_point_field(
                outdir, f"residual_{tag}", grid_pts, maps, f"absolute strain residuals {tag} updating",
            )
        _modulus_outputs(outdir, model, np.asarray(final))
        header = ["stage", "iteration", "best_cost"] + [f"E_{k + 1}" for k in range(len(final))]
        rows = [[r.stage, r.iteration, r.best_cost, *r.design.tolist()] for r in history.records]
        write_table_csv(os.path.join(outdir, "convergence.csv"), header, rows)

        report = _build_report(config, truth, guess, final, history, lower, upper, wall, context.noise_floor(),
                               model.factorizations)
        atomic_write_text(os.path.join(outdir, "report.json"), _json_text(report))
        atomic_write_text(os.path.join(outdir, "summary.txt"), _summary_text(report))
    return 0


def _residual_maps(context: CostContext, design) -> dict:
    field = context.measurement
    nxx, nyy, nxy = context.numerical_grid_field(design)
    axx = np.abs(field.exx - nxx)
    ayy = np.abs(field.eyy - nyy)
    axy = np.abs(field.exy - nxy)
    rss = np.sqrt(axx**2 + ayy**2 + axy**2)
    return {"abs_err_exx": axx, "abs_err_eyy": ayy, "abs_err_exy": axy, "abs_err_rss": rss}


def _build_report(config, truth, guess, final, history, lower, upper, wall, noise_floor, factorizations) -> dict:
    """The report.json object. ``noise_floor`` is ``CostContext.noise_floor()``,
    ``factorizations`` the model's ``ForwardModel.factorizations``."""
    initial_cost = history.records[0].best_cost
    final_cost = history.final.best_cost
    floor = None
    if noise_floor is not None:
        expected, sd = noise_floor
        floor = {"expected": expected, "sd": sd, "z": (final_cost - expected) / sd}
    # Truth is only known when the config carries explicit per-patch overrides
    # (the synthetic pipeline); a plain e_ref is a nominal value, not truth.
    known = bool(config.material.truth_moduli_mpa)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "recovered_moduli_mpa": [float(v) for v in final],
        "initial_moduli_mpa": [float(v) for v in guess],
        "truth_moduli_mpa": [float(v) for v in truth] if known else None,
        "relative_errors": [float(abs(f - t) / abs(t)) for f, t in zip(final, truth)] if known else None,
        "initial_cost": initial_cost,
        "final_cost": final_cost,
        # None when the final cost is exactly zero
        "cost_reduction_factor": float(initial_cost / final_cost) if final_cost > 0 else None,
        "forward_solve_count": history.total_forward_solves,
        # the model's, for the whole command: the forward solves and the
        # residual maps' solves the model did not serve from a held solve
        "factorizations": factorizations,
        "gradient_stalled": history.gradient_stalled,
        # solves that failed: GA candidates scored +inf, rejected line-search trials
        "failed_evaluations": history.failed_evaluations,
        # the final cost against the one the measurement's noise predicts at
        # the truth; None for noiseless data or a strain floor below the noise
        "noise_floor": floor,
        "stage_iterations": {stage: len(history.stage_records(stage)) for stage in (STAGE_GA, STAGE_GRADIENT)},
        "bounds_lo_mpa": [float(v) for v in lower],
        "bounds_hi_mpa": [float(v) for v in upper],
        "pinned_patch": config.bounds.pin_reference_patch,
        "convergence": [
            {
                "stage": r.stage,
                "iteration": r.iteration,
                "best_cost": r.best_cost,
                "design": [float(v) for v in r.design],
                "forward_solve_count": r.forward_solve_count,
            }
            for r in history.records
        ],
        "files": {name.replace(".", "_"): name for name in _INVERT_FILES},
        # the optimizer's time (run_hybrid), not the command's: import, the
        # model build and the outputs are left out
        "wall_time_s": wall,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _summary_text(report: dict) -> str:
    """The text of summary.txt, which ``femupdate report`` prints. Takes any
    report ``_check_report`` accepts: a count an older or partial report
    leaves out shows as ``?``, a missing reduction factor is computed."""
    factor = report.get("cost_reduction_factor")
    if factor is None and report["final_cost"]:
        factor = report["initial_cost"] / report["final_cost"]
    shown = "exact fit" if factor is None else f"{factor:.6e}"
    stages = report.get("stage_iterations", {})
    lines = [
        "Inversion summary",
        "=================",
        f"patches: {len(report['recovered_moduli_mpa'])}",
        f"initial cost: {report['initial_cost']:.6e}",
        f"final cost:   {report['final_cost']:.6e}",
        f"cost reduction factor: {shown}",
        f"forward solves: {report.get('forward_solve_count', '?')}"
        f" (GA iterations {stages.get(STAGE_GA, '?')}, gradient iterations {stages.get(STAGE_GRADIENT, '?')})",
        f"factorizations: {report.get('factorizations', '?')} (the forward solves and the residual maps)",
        f"noise floor z: {_noise_floor_text(report)}",
    ]
    floor = report.get("noise_floor")
    if floor is not None and floor["z"] > _NOISE_FLOOR_Z:
        lines.append(f"note: the fit ends above the noise floor (z > {_NOISE_FLOOR_Z:g}), "
                     "from model error or a local minimum")
    if report.get("gradient_stalled"):
        lines.append("note: gradient line search stalled before meeting its tolerance")
    lines.append("")

    # Per-patch rows of initial, final and (when known) truth moduli.
    truth, rel = report.get("truth_moduli_mpa"), report.get("relative_errors")
    has_truth = truth is not None and rel is not None
    head = f"{'patch':>5} {'initial_MPa':>14} {'final_MPa':>14}"
    lines.append(head + f" {'truth_MPa':>14} {'rel_error':>10}" if has_truth else head)
    for k, (e0, ef) in enumerate(zip(report["initial_moduli_mpa"], report["recovered_moduli_mpa"])):
        row = f"{k:>5} {e0:>14.4f} {ef:>14.4f}"
        if has_truth:
            row += f" {truth[k]:>14.4f} {rel[k]:>10.2e}"
        if report.get("pinned_patch") == k:
            row += "  (pinned)"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _noise_floor_text(report: dict) -> str:
    """z of the final cost against the noise floor; ``?`` for a report from
    before the field existed."""
    if "noise_floor" not in report:
        return "?"
    floor = report["noise_floor"]
    if floor is None:
        return "none (noiseless measurement, or a strain floor below the noise)"
    return f"{floor['z']:+.2f} (final cost against expected {floor['expected']:.6e} +- {floor['sd']:.6e})"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_report(data, where: str) -> None:
    """Raise ConfigError unless ``data`` holds the fields ``cmd_report``
    prints, each of the type it is printed as; the truth columns, the
    reduction factor and the noise floor may be null or left out."""
    if not isinstance(data, dict):
        raise ConfigError(where, f"report must be a JSON object, got {type(data).__name__}")
    for key in ("recovered_moduli_mpa", "initial_moduli_mpa", "initial_cost", "final_cost"):
        if key not in data:
            raise ConfigError(where, f"report is missing field {key!r}")
    per_patch = ("recovered_moduli_mpa", "initial_moduli_mpa", "truth_moduli_mpa", "relative_errors")
    for key in per_patch + ("initial_cost", "final_cost", "cost_reduction_factor"):
        value = data.get(key)
        if value is None and key in ("truth_moduli_mpa", "relative_errors", "cost_reduction_factor"):
            continue
        if key not in per_patch and not _is_number(value):
            raise ConfigError(where, f"field {key!r} must be a number")
        # recovered_moduli_mpa comes first, so it is a list when the others are compared with it
        if key in per_patch and not (isinstance(value, list) and all(map(_is_number, value))
                                     and len(value) == len(data["recovered_moduli_mpa"])):
            raise ConfigError(where, f"field {key!r} must be a list of one number per patch")
    if not isinstance(data.get("stage_iterations", {}), dict):
        raise ConfigError(where, "field 'stage_iterations' must be an object")
    floor = data.get("noise_floor")
    if floor is not None and not (isinstance(floor, dict)
                                  and all(_is_number(floor.get(k)) for k in ("expected", "sd", "z"))):
        raise ConfigError(where, "field 'noise_floor' must be null or an object of numbers expected, sd and z")


def cmd_report(report_path: str) -> int:
    """Print the summary of a report: the text ``invert`` writes to summary.txt."""
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(report_path), f"cannot read report: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(report_path), f"corrupt report JSON: {exc}") from exc
    _check_report(data, str(report_path))
    sys.stdout.write(_summary_text(data))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femupdate",
        description="Modulus-field identification from surface strain measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="override measurement and GA seeds")

    p_forward = sub.add_parser("forward", help="forward solve with the configured truth moduli")
    add_common(p_forward)
    p_synth = sub.add_parser("synth", help="generate a synthetic measurement CSV")
    add_common(p_synth)
    p_invert = sub.add_parser("invert", help="identify patch moduli from a measurement")
    add_common(p_invert)
    p_invert.add_argument("--measurement", required=True, help="path to the measurement CSV")
    p_report = sub.add_parser("report", help="print the summary of a report.json")
    p_report.add_argument("report_path", help="path to report.json")
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.

    The first call in a process moves every object alive at entry into the
    garbage collector's permanent generation (``gc.freeze``), so no
    collection walks the import heap again, including the ones the
    interpreter runs at exit. Objects the command creates are collected as
    before, and so is what a caller that runs ``main`` again leaves behind:
    later calls freeze nothing.
    """
    # The modules, classes and functions numpy, scipy and femupdate create at
    # import (~41,000 objects) live until exit anyway. Walking and freeing
    # them at interpreter shutdown took 0.05-0.07 s of a ~0.4 s `invert` of
    # the 2D benchmark workload, 7x its solves; frozen, exit takes ~0.011 s
    # (2-core x86, one BLAS thread). Frozen objects are never collected, so
    # only the first call freezes: the cyclic garbage pending at a later
    # call is the caller's, not the import heap.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.report_path)
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "forward":
            return cmd_forward(config)
        if args.command == "synth":
            return cmd_synth(config)
        return cmd_invert(config, args.measurement)
    except ConfigError as exc:
        print(f"femupdate: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"femupdate: data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"femupdate: numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
