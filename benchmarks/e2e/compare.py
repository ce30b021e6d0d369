"""``python -m benchmarks.e2e.compare A.json B.json``: did B get worse than A?

Each side is one result file written by ``python -m benchmarks.e2e`` (or
several, comma-separated: their trial samples are pooled).  One row per
workload x end-to-end metric: both medians, how much worse B is as a share of
A (negative = better), the metric's bound from ``BENCHMARK.json``, and a
verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``WORSE`` — it is;
* ``unresolved`` — either side's quartile spread (q3 - q1 over the median of
  its samples) is wider than the bound, so the medians cannot settle it.

Exits 1 if any row is ``WORSE``.  Run it on two runs of one commit to see
whether the benchmark agrees with itself.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def pooled(paths: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: samples}}`` pooled over comma-separated files."""
    samples: dict[str, dict[str, list[float]]] = {}
    for path in paths.split(","):
        run = json.loads(Path(path).read_text())
        for workload, passes in run["workloads"].items():
            for name, metric in passes["end_to_end"].items():
                samples.setdefault(workload, {}).setdefault(name, []).extend(
                    metric["samples"])
    return samples


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline result file(s), comma-separated")
    parser.add_argument("b", help="candidate result file(s), comma-separated")
    args = parser.parse_args(argv)

    declared = {metric["name"]: metric for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    side_a, side_b = pooled(args.a), pooled(args.b)
    worse = 0
    print(f"{'workload':15s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread A/B':>12s}  verdict")
    for workload in side_a:
        for name, metric in declared.items():
            a, b = side_a[workload][name], side_b[workload][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            worse_by = change if metric["better"] == "lower" else -change
            spreads = spread(a), spread(b)
            if max(spreads) > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:15s} {name:26s} {median_a:12.5g} "
                  f"{median_b:12.5g} {worse_by:+9.3f} {metric['bound']:6.2f} "
                  f"{spreads[0]:5.3f}/{spreads[1]:5.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
