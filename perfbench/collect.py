"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/collect.py --workloads invert2d,invert3d \
        --seeds 1-10 --trace 0 --out .perfbench_out/summary.json

For every workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
plus the elapsed time of each benchmark run, and writes the per-seed
values and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write per-seed values and the summary here")
    args = parser.parse_args()

    results = {}
    for workload in args.workloads.split(","):
        per_seed = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = bool(result and result["correct"])
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct {ok}, {elapsed:.1f} s", flush=True)
            if not ok:
                sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
            summary_line = next((l for l in lines if " trace " in l and l.startswith(workload)), "")
            per_seed.append({"seed": seed, "elapsed_s": elapsed, "summary": summary_line, "result": result})
        metrics = {}
        for entry in per_seed:
            for name, m in ((entry["result"] or {}).get("metrics") or {}).items():
                metrics.setdefault(name, []).append(m["value"])
        summary = {name: summarize(values) for name, values in metrics.items()}
        summary["run_elapsed_s"] = summarize([e["elapsed_s"] for e in per_seed])
        results[workload] = {"per_seed": per_seed, "summary": summary}
        for name, s in summary.items():
            print(f"  {workload:10s} {name:34s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
