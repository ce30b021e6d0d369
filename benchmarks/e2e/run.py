"""The driver's entry point: one workload, one pass, one JSON line.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  ``--trace 0`` runs the workload untraced and
prints the end-to-end metrics; ``--trace 1`` runs the traced pass, prints the
per-layer metrics and writes ``out/trace-<sha>-<seed>-<workload>.json``.
Exits 1 when an operation failed or disagreed with the oracle.
"""

import argparse
import sys
from pathlib import Path

# As a script, the interpreter puts this directory first on sys.path, where
# its module names (spans, layers, ...) could shadow others; the benchmark's
# modules are imported through the package path instead.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.spans import write_trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=harness.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = harness.run_pass(WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    if outcome.trace is not None:
        sha = harness.git_sha()
        write_trace(harness.OUT / f"trace-{sha}-{args.seed}-"
                                  f"{args.workload}.json",
                    [outcome.trace], sha=sha, seed=args.seed,
                    workload=args.workload)
    print(outcome.wall_clock_line(), file=sys.stderr)
    print(outcome.driver_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
