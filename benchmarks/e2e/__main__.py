"""``PYTHONPATH=src python -m benchmarks.e2e --seed N``: the whole benchmark.

Takes every workload through an untraced pass (end-to-end metrics) and a
traced pass (per-layer metrics) for the window ``BENCHMARK.json`` fixes —
what ``run.py`` does for the driver, eight times — prints every metric by
name with its unit (timings on the reference clock of ``clock.py``, the wall
median beside them), and writes ``out/result-<sha>-<seed>.json`` (the input
of ``python -m benchmarks.e2e.compare``) and ``out/trace-<sha>-<seed>.json``.
Exits 1 if any operation failed or disagreed with the oracle.  It never
writes ``BENCHMARK.json``: that file is the benchmark's definition, not a
result.
"""

import argparse
import json
import os
import platform
import sys

from benchmarks.e2e import harness
from benchmarks.e2e.clock import KERNEL_NOMINAL_S
from benchmarks.e2e.spans import write_trace
from benchmarks.e2e.workloads import WORKLOADS


def fingerprint() -> dict:
    import numpy

    return {"machine": platform.machine(), "system": platform.platform(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def show(outcome: harness.Outcome) -> dict:
    """Print one pass's reported metrics, by name, with units."""
    traced = outcome.per_layer is not None
    metrics = outcome.per_layer if traced else outcome.end_to_end
    for name, metric in metrics.items():
        line = (f"{outcome.workload:15s} {name:48s} "
                f"{metric['value']:16.6g} {metric['unit']:9s}")
        if not traced:
            line += (f" q1 {metric['q1']:.6g} q3 {metric['q3']:.6g} "
                     f"n {metric['n']} "
                     f"bound {harness.END_TO_END[name]['bound']}")
            if "wall" in metric:
                line += f" (wall clock: {metric['wall']:.6g})"
        print(line)
    print(f"{outcome.workload:15s} attempted {outcome.attempted} "
          f"failed {outcome.failed}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    seconds = harness.SPEC["run_seconds"]
    sha = harness.git_sha()
    result = {"meta": {"sha": sha, "seed": args.seed, "seconds": seconds,
                       "sizes": vars(harness.Sizes()),
                       "wal_flush": "fsync per record",
                       "kernel_nominal_s": KERNEL_NOMINAL_S, **fingerprint()},
              "workloads": {}}
    traces, failed = [], 0
    for name, cls in WORKLOADS.items():
        passes = {}
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            outcome = harness.run_pass(cls, args.seed, seconds, traced)
            passes[kind] = show(outcome)
            passes[f"{kind}_attempted"] = outcome.attempted
            passes[f"{kind}_failed"] = outcome.failed
            failed += outcome.failed
        traces.append(outcome.trace)
        result["workloads"][name] = passes
    path = harness.OUT / f"result-{sha}-{args.seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    trace = write_trace(harness.OUT / f"trace-{sha}-{args.seed}.json", traces,
                        sha=sha, seed=args.seed)
    print(f"wrote {path} and {trace}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
