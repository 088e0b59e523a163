"""femupdate benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload invert2d --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py. The benchmark generates the config
and measurement files from the seed (untimed), then runs ``femupdate
invert`` through its CLI in child processes and gates every output.

--trace 0: runs the command on the same input again and again, at least
MIN_RUNS times and for as long as the next run still fits in --seconds;
prints the end-to-end metrics as medians over those runs, with times in
reference seconds (calibrate.py).
--trace 1: one untraced and one traced run of the same input; checks that
both give bytewise identical results and prints the per-layer metrics.

The last stdout line is the JSON result {correct, attempted, failed,
metrics}. Exit code 2, and no result, when ./src holds no femupdate.
"""

import os

# One process, no extra threads: hold BLAS threading fixed for every run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import OUTPUTS_TO_COMPARE, WORKLOADS, cost_at_truth  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 3
# Every child is killed once this much time has passed since start, so one
# benchmark invocation ends well inside three minutes.
DEADLINE_S = 160
WORK_ROOT = ".perfbench_work"
TRACE_ROOT = ".perfbench_out"


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


class Run:
    """One child process running one femupdate command."""

    def __init__(self, mode, code, wall, stamps, result, outdir):
        self.mode = mode
        self.wall = wall
        self.stamps = stamps
        self.result = result
        self.outdir = outdir
        self.failures: list = [] if code == 0 else [f"{mode} run exited with code {code}"]
        self.quality: dict = {}

    @property
    def setup_s(self) -> float:
        """Process start to the first forward solve."""
        return self.stamps["first_solve"] - self.stamps["spawn"]

    @property
    def solve_s(self) -> float:
        """First forward solve to the optimizer's final moduli."""
        return self.stamps["solve_end"] - self.stamps["first_solve"]


def run_child(mode: str, workload, inputs: dict, tag: str, deadline: float) -> Run:
    outdir = os.path.join(inputs["work"], tag)
    meta = outdir + "_meta"
    os.makedirs(meta)
    result_path = os.path.join(meta, "result.json")
    log_path = os.path.join(meta, "child.log")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, mode, "--",
           "invert", *inputs["cli"], "--out", outdir]
    with open(log_path, "w", encoding="utf-8") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - spawn, 1.0))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - spawn
    result = {}
    if code == 0:
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            code = result["exit_code"]
        except (OSError, json.JSONDecodeError, KeyError):
            code = "no result file"
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(f"perfbench: {mode} run failed ({code}):\n{fh.read()[-2000:]}\n")
    run = Run(mode, code, wall, dict(result.get("stamps", {}), spawn=spawn), result, outdir)
    if code == 0:
        failures, run.quality = workload.check(outdir, inputs["cost_at_truth"])
        run.failures.extend(failures)
        if "first_solve" not in run.stamps or "solve_end" not in run.stamps:
            run.failures.append("solve milestones were not recorded")
    return run


def generate_inputs(workload, seed: int, work: str) -> dict:
    """Config plus noisy and noise-free measurements; untimed."""
    from femupdate import cli

    config = workload.config(seed, os.path.join(work, "unused_output"))
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    inputs = {"work": work, "cli": ["--config", config_path]}
    clean = dict(config, measurement=dict(config["measurement"], noise_sigma=0.0))
    clean_path = os.path.join(work, "config_clean.json")
    with open(clean_path, "w", encoding="utf-8") as fh:
        json.dump(clean, fh)
    for path, out in ((config_path, "synth"), (clean_path, "synth_clean")):
        code = cli.main(["synth", "--config", path, "--out", os.path.join(work, out)])
        if code != 0:
            raise RuntimeError(f"femupdate synth failed with exit code {code}")
    measurement = os.path.join(work, "synth", "measurement.csv")
    inputs["cli"] += ["--measurement", measurement]
    inputs["cost_at_truth"] = cost_at_truth(
        measurement, os.path.join(work, "synth_clean", "measurement.csv"), config["strain_floor"]
    )
    return inputs


def _canonical(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("report.json"):
        report = json.loads(data)
        report.pop("wall_time_s", None)
        report.pop("timestamp", None)
        data = json.dumps(report, sort_keys=True).encode()
    return data


def same_outputs(a: Run, b: Run) -> list:
    """Files two runs of one input must reproduce (report timings ignored)."""
    failures = []
    for name in OUTPUTS_TO_COMPARE:
        try:
            if _canonical(os.path.join(a.outdir, name)) != _canonical(os.path.join(b.outdir, name)):
                failures.append(f"{name} differs between the {a.mode} and {b.mode} runs")
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{name} not comparable: {exc}")
    return failures


def measure(workload, inputs: dict, seconds: float, deadline: float) -> tuple[list, dict, dict]:
    """Untraced runs of one input, each between two calibration kernels.

    Times are scaled to reference seconds (calibrate.py) run by run; each
    metric is the median over the runs.
    """
    calibrator = Calibrator()
    kernel = [calibrator.time_kernel()]
    runs: list = []
    start = time.monotonic()
    while True:
        run = run_child("plain", workload, inputs, f"run{len(runs)}", deadline)
        kernel.append(calibrator.time_kernel())
        if runs and not run.failures:
            run.failures.extend(same_outputs(runs[0], run))
        runs.append(run)
        if run.failures:
            break
        next_end = time.monotonic() - start + statistics.median(r.wall for r in runs)
        if len(runs) >= MIN_RUNS and next_end > seconds:
            break
    if any(r.failures for r in runs):
        return runs, {}, {}
    scale = [REFERENCE_S / (0.5 * (a + b)) for a, b in zip(kernel, kernel[1:])]
    metrics = {
        "wall_s": statistics.median(r.wall * k for r, k in zip(runs, scale)),
        "setup_s": statistics.median(r.setup_s * k for r, k in zip(runs, scale)),
        "solve_s": statistics.median(r.solve_s * k for r, k in zip(runs, scale)),
        "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in runs),
    }
    summary = dict(runs[0].quality)
    summary["measured"] = {
        "wall_s": statistics.median(r.wall for r in runs),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "solve_s": statistics.median(r.solve_s for r in runs),
        "kernel_s": statistics.median(kernel),
    }
    summary["runs"] = [
        {"wall_s": round(r.wall, 3), "user_s": round(r.result["cpu_user_s"], 3),
         "sys_s": round(r.result["cpu_sys_s"], 3), "scale": round(k, 3)}
        for r, k in zip(runs, scale)
    ]
    return runs, metrics, summary


def trace(workload, inputs: dict, deadline: float) -> tuple[list, dict, dict]:
    """One untraced and one traced run; per-layer metrics from the trace."""
    plain = run_child("plain", workload, inputs, "plain", deadline)
    traced = run_child("trace", workload, inputs, "trace", deadline)
    runs = [plain, traced]
    if plain.failures or traced.failures:
        return runs, {}, {}
    traced.failures.extend(same_outputs(plain, traced))
    spans_path = os.path.join(traced.outdir + "_meta", "spans.json")
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    os.makedirs(TRACE_ROOT, exist_ok=True)
    shutil.copyfile(spans_path, os.path.join(TRACE_ROOT, f"{workload.name}.spans.json"))
    with open(os.path.join(traced.outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = layer_metrics(spans, traced.result["distinct_designs"], report)
    metrics["cli.bytes_written"] = sum(
        os.path.getsize(os.path.join(traced.outdir, f)) for f in os.listdir(traced.outdir)
    )
    metrics["inversion.final_cost_ratio"] = traced.quality["final_cost_ratio"]
    metrics["inversion.max_modulus_error"] = traced.quality["max_modulus_error"]
    metrics["trace.overhead_ratio"] = traced.solve_s / plain.solve_s
    expected = report["forward_solve_count"] + metrics["cli.extra_factorizations"]
    if metrics["solver.factorizations"] != expected:
        traced.failures.append(
            f"traced factorizations {metrics['solver.factorizations']} != forward_solve_count "
            f"{report['forward_solve_count']} + extra {metrics['cli.extra_factorizations']}"
        )
    summary = {"untraced_solve_s": plain.solve_s, "traced_solve_s": traced.solve_s}
    return runs, metrics, summary


def _units() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "femupdate", "cli.py")):
        print("perfbench: no femupdate sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    work = os.path.abspath(os.path.join(WORK_ROOT, f"{workload.name}-seed{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    try:
        inputs = generate_inputs(workload, args.seed, work)
        if args.trace:
            runs, metrics, summary = trace(workload, inputs, deadline)
        else:
            runs, metrics, summary = measure(workload, inputs, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in runs if r.failures]
    for r in failed:
        for msg in r.failures:
            print(f"FAIL {workload.name} seed {args.seed}: {msg}")
    units = _units()
    print(json.dumps({"environment": environment()}))
    print(f"{workload.name} seed {args.seed} trace {args.trace}: {len(runs)} runs, {len(failed)} failed; "
          + json.dumps(summary))
    table = [(name, value, units[name]) for name, value in metrics.items()]
    if not args.trace:
        # Gated rather than bounded: they follow the noise draw, so they are
        # not steady across seeds.
        table += [(k, summary.get(k, float("nan")), "ratio") for k in ("final_cost_ratio", "max_modulus_error")]
        table.append(("failed_fraction", len(failed) / len(runs), "ratio"))
    for name, value, unit in table:
        print(f"  {name:34s} {value:>14.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
