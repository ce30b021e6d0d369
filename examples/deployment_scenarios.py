#!/usr/bin/env python
"""Deployment-scenario awareness: why the cost model matters.

The same set of trained models and cascades is evaluated under the paper's
four deployment scenarios (INFER ONLY, ONGOING, CAMERA, ARCHIVE).  The example
shows two things the paper emphasizes:

* the fastest cascade — and the whole Pareto frontier — changes with the
  scenario, because data-handling costs hit different input representations
  differently, and
* choosing a cascade while ignoring those costs ("scenario-oblivious", the
  common practice of reporting inference time only) leaves throughput on the
  table once an accuracy-loss budget exists.

Run with:  python examples/deployment_scenarios.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.evaluator import evaluate_cascade
from repro.core.selector import UserConstraints, select_cascade
from repro.experiments.presets import SMOKE_SCALE
from repro.experiments.workspace import get_workspace

CATEGORY = "komondor"
LOSS_BUDGET = 0.05


def main() -> None:
    print("[1/2] building the smoke-scale workspace (two predicates) ...")
    workspace = get_workspace(SMOKE_SCALE)
    predicate = workspace.predicates[CATEGORY]
    profilers = workspace.profilers()

    print(f"\n[2/2] contains_object({CATEGORY}) under the four scenarios, "
          f"with a {LOSS_BUDGET:.0%} accuracy-loss budget:\n")
    header = (f"{'scenario':12s} {'frontier':>8s} {'aware choice':>35s} "
              f"{'aware fps':>10s} {'oblivious fps':>14s} {'gain':>7s}")
    print(header)
    print("-" * len(header))

    oblivious_frontier = predicate.optimizer.frontier(profilers["infer_only"])
    constraints = UserConstraints(max_accuracy_loss=LOSS_BUDGET)

    for name in ("infer_only", "ongoing", "camera", "archive"):
        profiler = profilers[name]
        frontier = predicate.optimizer.frontier(profiler)
        aware = select_cascade(frontier, constraints)

        oblivious_pick = select_cascade(oblivious_frontier, constraints)
        oblivious = evaluate_cascade(oblivious_pick.cascade,
                                     predicate.optimizer.cache, profiler)
        gain = (aware.throughput / oblivious.throughput - 1.0) * 100
        label = aware.name if len(aware.name) <= 35 else aware.name[:32] + "..."
        print(f"{name:12s} {len(frontier):8d} {label:>35s} "
              f"{aware.throughput:10,.0f} {oblivious.throughput:14,.0f} "
              f"{gain:+6.1f}%")

    print("\nThe aware and oblivious picks coincide under INFER ONLY by "
          "construction; under the\nother scenarios the aware choice is never "
          "slower and is often a different cascade\nbuilt on cheaper input "
          "representations.")


if __name__ == "__main__":
    main()
