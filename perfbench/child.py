"""Run one femupdate CLI command in this process and record its milestones.

Usage: python3 perfbench/child.py RESULT_JSON MODE -- CLI_ARGS...

MODE is one of
  plain  the command as a user runs it; only the first forward solve and
         the end of the solve phase are stamped, by hooks called once each;
  trace  every call at the layer boundaries becomes a span, written to
         RESULT_JSON's sibling ``spans.json``.

The result JSON holds the exit code, CLOCK_MONOTONIC stamps, the peak
resident set size and, for trace, the number of distinct cost designs.
"""

import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))


def _stamp_first_solve(stamps: dict) -> None:
    from femupdate.solver import ForwardModel

    original = ForwardModel.solve_displacement

    def first_solve(self, values):
        stamps["first_solve"] = time.monotonic()
        ForwardModel.solve_displacement = original  # later solves run unhooked
        return original(self, values)

    ForwardModel.solve_displacement = first_solve


def _stamp_solve_end(stamps: dict) -> None:
    """Stamp the return of the optimizer."""
    from femupdate import cli

    run_hybrid = cli.run_hybrid

    def stamped(*args, **kwargs):
        out = run_hybrid(*args, **kwargs)
        stamps["solve_end"] = time.monotonic()
        return out

    cli.run_hybrid = stamped


def _peak_rss_mb(usage) -> float:
    """High-water resident set of this process image. ru_maxrss alone is not
    enough: Linux carries the parent's high-water mark over at exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return usage.ru_maxrss / 1024.0


def main(argv: list) -> int:
    result_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace"):
        print("usage: child.py RESULT_JSON plain|trace -- CLI_ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
    from femupdate import cli

    stamps: dict = {}
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _stamp_first_solve(stamps)
        _stamp_solve_end(stamps)

    code = cli.main(cli_args)
    stamps["end"] = time.monotonic()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": code,
        "stamps": stamps,
        "peak_rss_mb": _peak_rss_mb(usage),
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
    }
    if tracer is not None:
        spans = tracer.spans
        solves = [s for s in spans if s[0] == "solver.solve"]
        ends = [s[2] for s in spans if s[0] == "inversion.hybrid"]
        if solves:
            stamps["first_solve"] = solves[0][1]
        if ends:
            stamps["solve_end"] = max(ends)
        result["distinct_designs"] = len(tracer.designs)
        spans_path = os.path.join(os.path.dirname(result_path), "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
