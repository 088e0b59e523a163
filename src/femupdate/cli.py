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
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, DataError, NumericalError, OutOfDomainError
from .inversion import STAGE_GA, STAGE_GRADIENT, CostContext, run_hybrid
from .measurement import generate_synthetic, load_measurement_csv, measurement_csv_text
from .solver import ForwardModel
from .vtkio import atomic_write_text, write_mesh_vtk, write_points_vtk, write_table_csv

REPORT_SCHEMA_VERSION = 2
_LOCK_NAME = ".femupdate.lock"


@dataclass
class InversionReport:
    """Machine-readable inversion outcome written to report.json."""

    recovered_moduli_mpa: list
    initial_moduli_mpa: list
    truth_moduli_mpa: list | None
    relative_errors: list | None
    initial_cost: float
    final_cost: float
    cost_reduction_factor: float | None  # None when the final cost is exactly zero
    forward_solve_count: int
    gradient_stalled: bool
    failed_evaluations: int  # solves that failed: GA candidates scored +inf, rejected line-search trials
    stage_iterations: dict
    bounds_lo_mpa: list
    bounds_hi_mpa: list
    pinned_patch: int | None
    convergence: list
    files: dict
    wall_time_s: float
    timestamp: str

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema_version"] = REPORT_SCHEMA_VERSION
        return d


@contextmanager
def _locked_output(outdir: str):
    """Hold an exclusive ``flock`` on the output directory's lock file.

    The kernel drops the lock when the holder exits, so a run that died
    leaves nothing that blocks the next one. The empty lock file stays.
    """
    os.makedirs(outdir, exist_ok=True)
    lock = os.path.join(outdir, _LOCK_NAME)
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(lock, "output directory is locked by another run") from None
        yield
    finally:
        os.close(fd)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None):
        config.output_dir = args.out
    if getattr(args, "seed", None) is not None:
        config.measurement.rng_seed = args.seed
        config.ga = dataclasses.replace(config.ga, rng_seed=args.seed)
    return config


def _write_resolved_config(config: RunConfig, outdir: str) -> None:
    atomic_write_text(os.path.join(outdir, "resolved_config.json"), _json_text(config.to_dict()))


def _build_problem(config: RunConfig):
    mesh = config.build_mesh()
    try:
        pmap = config.build_patch_map(mesh)
    except ValueError as exc:
        raise ConfigError("patches", str(exc)) from None
    try:
        bcs = config.build_bcs()
        bcs.prescribed_dofs(mesh)
    except ValueError as exc:
        raise ConfigError("bcs", str(exc)) from None
    return mesh, pmap, bcs


def _modulus_outputs(outdir, mesh, pmap, values):
    centroids = mesh.element_centroids()
    patch = pmap.patch_of_element
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
    mesh, pmap, bcs = _build_problem(config)
    truth = config.truth_values(pmap.patch_count)
    config.moduli_bounds(pmap.patch_count)  # range-checks the pinned patch
    with _locked_output(outdir):
        _write_resolved_config(config, outdir)
        model = ForwardModel(mesh, pmap, config.material.poisson_ratio, bcs)
        u_flat = model.solve_displacement(truth)
        exx, eyy, exy = model.sample_strains(u_flat)
        u = u_flat.reshape(mesh.n_nodes, mesh.dimension)
        points = model.surface_points

        axes = "xyz"[: mesh.dimension]
        write_mesh_vtk(
            os.path.join(outdir, "displacement.vtk"),
            mesh,
            cell_data={"modulus_mpa": truth[pmap.patch_of_element]},
            point_data={"displacement_mm": u},
            title="displacement field",
        )
        header = [f"{a}_mm" for a in axes] + [f"u{a}_mm" for a in axes]
        write_table_csv(os.path.join(outdir, "displacement.csv"), header, np.hstack([mesh.nodes, u]).tolist())

        write_points_vtk(
            os.path.join(outdir, "strains.vtk"),
            points,
            {"exx": exx, "eyy": eyy, "exy": exy},
            title="surface strains at Gauss points",
        )
        write_table_csv(
            os.path.join(outdir, "strains.csv"),
            ["x_mm", "y_mm", "exx", "eyy", "exy"],
            np.column_stack([points, exx, eyy, exy]).tolist(),
        )
        _modulus_outputs(outdir, mesh, pmap, truth)
    return 0


def cmd_synth(config: RunConfig) -> int:
    """Generate a synthetic measurement CSV from the configured truth."""
    outdir = config.output_dir
    mesh, pmap, bcs = _build_problem(config)
    truth = config.truth_values(pmap.patch_count)
    config.moduli_bounds(pmap.patch_count)  # range-checks the pinned patch
    try:
        grid = config.build_grid()
    except ValueError as exc:
        raise ConfigError("measurement", str(exc)) from None
    with _locked_output(outdir):
        _write_resolved_config(config, outdir)
        model = ForwardModel(mesh, pmap, config.material.poisson_ratio, bcs)
        meas = config.measurement
        field = generate_synthetic(model, truth, grid, noise_sigma=meas.noise_sigma, rng_seed=meas.rng_seed)
        atomic_write_text(os.path.join(outdir, "measurement.csv"), measurement_csv_text(field))
    return 0


def cmd_invert(config: RunConfig, measurement_path: str) -> int:
    """Run the hybrid inversion against a measurement file; write the report."""
    outdir = config.output_dir
    field = load_measurement_csv(measurement_path)
    mesh, pmap, bcs = _build_problem(config)
    # The patch indices of the config are range-checked before the output directory is touched.
    config.truth_values(pmap.patch_count)
    lower, upper = config.moduli_bounds(pmap.patch_count)
    guess = config.initial_guess(pmap.patch_count)
    with _locked_output(outdir):
        _write_resolved_config(config, outdir)
        model = ForwardModel(mesh, pmap, config.material.poisson_ratio, bcs)
        try:
            context = CostContext(model, [field], strain_floor=config.strain_floor)
        except OutOfDomainError as exc:
            length, width = mesh.extent[:2]
            raise DataError(
                f"measurement grid does not fit the configured geometry: measurement is a "
                f"{field.grid.describe()}; the model surface covers {length:g} x {width:g} mm; {exc}"
            ) from exc

        start = time.perf_counter()
        final, history = run_hybrid(context, lower, upper, config.ga, config.grad, guess)
        wall = time.perf_counter() - start

        report = _build_report(config, pmap, guess, final, history, lower, upper, wall)
        _write_inversion_outputs(outdir, context, mesh, pmap, guess, final, history, report)
    return 0


def _residual_maps(context: CostContext, design) -> dict:
    field = context.measurements[0]
    nxx, nyy, nxy = context.numerical_grid_field(design)
    axx = np.abs(field.exx - nxx)
    ayy = np.abs(field.eyy - nyy)
    axy = np.abs(field.exy - nxy)
    rss = np.sqrt(axx**2 + ayy**2 + axy**2)
    return {"abs_err_exx": axx, "abs_err_eyy": ayy, "abs_err_exy": axy, "abs_err_rss": rss}


def _build_report(config, pmap, guess, final, history, lower, upper, wall) -> InversionReport:
    # Truth is only known when the config carries explicit per-patch overrides
    # (the synthetic pipeline); a plain e_ref is a nominal value, not truth.
    truth = None
    rel_err = None
    if config.material.truth_moduli_mpa:
        truth_values = config.truth_values(pmap.patch_count)
        truth = [float(v) for v in truth_values]
        rel_err = [float(abs(f - t) / abs(t)) for f, t in zip(final, truth_values)]
    initial_cost = history.records[0].best_cost
    final_cost = history.final.best_cost
    stage_iters = {
        STAGE_GA: len(history.stage_records(STAGE_GA)),
        STAGE_GRADIENT: len(history.stage_records(STAGE_GRADIENT)),
    }
    convergence = [
        {
            "stage": r.stage,
            "iteration": r.iteration,
            "best_cost": r.best_cost,
            "design": [float(v) for v in r.design],
            "forward_solve_count": r.forward_solve_count,
        }
        for r in history.records
    ]
    files = {
        "convergence_csv": "convergence.csv",
        "residual_before_vtk": "residual_before.vtk",
        "residual_before_csv": "residual_before.csv",
        "residual_after_vtk": "residual_after.vtk",
        "residual_after_csv": "residual_after.csv",
        "modulus_map_vtk": "modulus_map.vtk",
        "modulus_map_csv": "modulus_map.csv",
        "summary_txt": "summary.txt",
    }
    return InversionReport(
        recovered_moduli_mpa=[float(v) for v in final],
        initial_moduli_mpa=[float(v) for v in guess],
        truth_moduli_mpa=truth,
        relative_errors=rel_err,
        initial_cost=initial_cost,
        final_cost=final_cost,
        cost_reduction_factor=float(initial_cost / final_cost) if final_cost > 0 else None,
        forward_solve_count=history.total_forward_solves,
        gradient_stalled=history.gradient_stalled,
        failed_evaluations=history.failed_evaluations,
        stage_iterations=stage_iters,
        bounds_lo_mpa=[float(v) for v in lower],
        bounds_hi_mpa=[float(v) for v in upper],
        pinned_patch=config.bounds.pin_reference_patch,
        convergence=convergence,
        files=files,
        wall_time_s=wall,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _write_inversion_outputs(outdir, context, mesh, pmap, guess, final, history, report):
    grid_pts = context.grid.points()
    for tag, design in (("before", guess), ("after", final)):
        maps = _residual_maps(context, design)
        write_points_vtk(
            os.path.join(outdir, f"residual_{tag}.vtk"),
            grid_pts,
            maps,
            title=f"absolute strain residuals {tag} updating",
        )
        write_table_csv(
            os.path.join(outdir, f"residual_{tag}.csv"),
            ["x_mm", "y_mm", "abs_err_exx", "abs_err_eyy", "abs_err_exy", "abs_err_rss"],
            np.column_stack([grid_pts, *maps.values()]).tolist(),
        )
    _modulus_outputs(outdir, mesh, pmap, np.asarray(final))

    p = pmap.patch_count
    header = ["stage", "iteration", "best_cost"] + [f"E_{k + 1}" for k in range(p)]
    rows = [[r.stage, r.iteration, r.best_cost, *r.design.tolist()] for r in history.records]
    write_table_csv(os.path.join(outdir, "convergence.csv"), header, rows)

    atomic_write_text(os.path.join(outdir, "report.json"), _json_text(report.to_dict()))
    atomic_write_text(os.path.join(outdir, "summary.txt"), _summary_text(report))


def _summary_text(report: InversionReport) -> str:
    lines = ["Inversion summary", "================="]
    lines.append(f"patches: {len(report.recovered_moduli_mpa)}")
    lines.append(f"initial cost: {report.initial_cost:.6e}")
    lines.append(f"final cost:   {report.final_cost:.6e}")
    factor = "exact fit" if report.cost_reduction_factor is None else f"{report.cost_reduction_factor:.6e}"
    lines.append(f"cost reduction factor: {factor}")
    lines.append(
        f"forward solves: {report.forward_solve_count}"
        f" (GA iterations {report.stage_iterations.get(STAGE_GA, 0)},"
        f" gradient iterations {report.stage_iterations.get(STAGE_GRADIENT, 0)})"
    )
    if report.gradient_stalled:
        lines.append("note: gradient line search stalled before meeting its tolerance")
    lines.append("")
    lines.extend(
        _patch_table(
            report.initial_moduli_mpa,
            report.recovered_moduli_mpa,
            report.truth_moduli_mpa,
            report.relative_errors,
            report.pinned_patch,
        )
    )
    return "\n".join(lines) + "\n"


def _patch_table(initial, recovered, truth, rel, pinned) -> list:
    """Per-patch rows of initial, final and (when known) truth moduli."""
    has_truth = truth is not None and rel is not None
    head = f"{'patch':>5} {'initial_MPa':>14} {'final_MPa':>14}"
    if has_truth:
        head += f" {'truth_MPa':>14} {'rel_error':>10}"
    lines = [head]
    for k, (e0, ef) in enumerate(zip(initial, recovered)):
        row = f"{k:>5} {e0:>14.4f} {ef:>14.4f}"
        if has_truth:
            row += f" {truth[k]:>14.4f} {rel[k]:>10.2e}"
        if pinned == k:
            row += "  (pinned)"
        lines.append(row)
    return lines


def cmd_report(report_path: str) -> int:
    """Print the per-patch table and convergence summary of a report."""
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(report_path), f"cannot read report: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(report_path), f"corrupt report JSON: {exc}") from exc
    for key in ("recovered_moduli_mpa", "initial_moduli_mpa", "initial_cost", "final_cost"):
        if key not in data:
            raise ConfigError(str(report_path), f"report is missing field {key!r}")

    print(f"patches: {len(data['recovered_moduli_mpa'])}")
    table = _patch_table(
        data["initial_moduli_mpa"],
        data["recovered_moduli_mpa"],
        data.get("truth_moduli_mpa"),
        data.get("relative_errors"),
        data.get("pinned_patch"),
    )
    print("\n".join(table))
    factor = data.get("cost_reduction_factor")
    if factor is None and data["final_cost"]:
        factor = data["initial_cost"] / data["final_cost"]
    shown = "exact fit" if factor is None else f"{factor:.6e}"
    print(f"cost: {data['initial_cost']:.6e} -> {data['final_cost']:.6e}"
          f" (reduction factor {shown})")
    stages = data.get("stage_iterations", {})
    print(
        f"iterations: GA {stages.get(STAGE_GA, '?')}, gradient {stages.get(STAGE_GRADIENT, '?')};"
        f" forward solves {data.get('forward_solve_count', '?')}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femupdate",
        description="Modulus-field identification from surface strain measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.report_path)
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "forward":
            return cmd_forward(config)
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "invert":
            return cmd_invert(config, args.measurement)
        raise ConfigError("command", f"unknown command {args.command!r}")
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
