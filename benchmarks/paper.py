"""The paper's evaluation as one table: Tables II–III and Figs. 4–11.

``python -m benchmarks.paper`` (no options; run from the root of a checkout)
builds the DEFAULT_SCALE workspace, runs every artifact in :data:`ARTIFACTS`,
writes each one's rows and the boolean of each of its named checks to
``PAPER_RESULTS.json`` at the repository root, and exits 1 if any check is
false.  Tier-1 runs the same table at SMOKE_SCALE through :func:`run`.

An artifact is one function of the workspace holding three things: the
:mod:`repro.experiments` call, its parameters (derived from the workspace's
scale), and the paper's qualitative claims about the result as named checks.
Rows keep counts, frontiers and scalars, never whole point clouds or a wall
clock, so regenerating the file on an unchanged tree gives the same bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.baselines.noscope import PipelineResult  # noqa: E402
from repro.data.categories import TABLE2_CATEGORIES  # noqa: E402
from repro.experiments.ablation import (  # noqa: E402
    TRANSFORM_SUBSETS,
    depth_analysis,
    transform_ablation,
)
from repro.experiments.noscope_exp import noscope_comparison  # noqa: E402
from repro.experiments.presets import DEFAULT_SCALE, ExperimentScale  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    FrontierComparison,
    frontier_example,
    scenario_awareness_table,
    scenario_frontiers,
)
from repro.experiments.speedups import (  # noqa: E402
    average_speedups,
    design_space_comparison,
    fastest_throughput,
)
from repro.experiments.workspace import ExperimentWorkspace, get_workspace  # noqa: E402

RESULTS_PATH = ROOT / "PAPER_RESULTS.json"

#: The scenario of the paper's single-scenario figures (4, 5, 9 and 11).
SCENARIO = "camera"
#: Fig. 11's restricted model pool (the full three-level product is intractable).
DEPTH_POOL_SIZE = 8
#: Slack for "never worse" comparisons between floating-point throughputs.
EPS = 1e-9


def _focus(workspace: ExperimentWorkspace) -> str:
    """The predicate of the single-predicate figures: the scale's first."""
    return workspace.scale.categories[0]


def _frontier_row(comparison: FrontierComparison) -> dict:
    return {"category": comparison.category,
            "n_cascades": len(comparison.all_points),
            "aware_frontier": comparison.aware_frontier,
            "oblivious_frontier": comparison.oblivious_frontier,
            "awareness_gain": comparison.awareness_gain()}


def _pipeline_row(result: PipelineResult) -> dict:
    return {"throughput": result.throughput, "accuracy": result.accuracy,
            "oracle_fraction": result.oracle_fraction,
            "reuse_fraction": result.reuse_fraction}


def table2(workspace: ExperimentWorkspace):
    """Table II: the ten binary predicates, and the splits rendered for each."""
    scale = workspace.scale
    requested = (scale.n_train, scale.n_config, scale.n_eval)
    rows = {"predicates": [{"name": category.name,
                            "imagenet_id": category.imagenet_id,
                            "shape": category.shape,
                            "texture_frequency": category.texture_frequency}
                           for category in TABLE2_CATEGORIES],
            "split_sizes": {name: predicate.splits.sizes()
                            for name, predicate in workspace.predicates.items()}}
    return rows, {
        "table2.ten_predicates": len(TABLE2_CATEGORIES) == 10,
        "table2.split_sizes": all(sizes == requested
                                  for sizes in rows["split_sizes"].values()),
    }


def fig4(workspace: ExperimentWorkspace):
    """Fig. 4: one predicate's cascades, scenario-aware vs INFER ONLY-optimal."""
    comparison = frontier_example(workspace, _focus(workspace),
                                  scenario_name=SCENARIO)
    return _frontier_row(comparison), {
        "fig4.aware_ge_oblivious": comparison.awareness_gain() >= 1.0 - EPS,
        "fig4.frontier_prunes": (len(comparison.all_points)
                                 > len(comparison.aware_frontier) > 0),
    }


def fig5(workspace: ExperimentWorkspace):
    """Fig. 5: TAHOMA's cascade design space vs the Baseline space."""
    comparison = design_space_comparison(workspace, _focus(workspace),
                                         scenario_name=SCENARIO)
    rows = {"category": comparison.category,
            "n_tahoma_cascades": len(comparison.tahoma_points),
            "n_baseline_cascades": len(comparison.baseline_points),
            "tahoma_frontier": comparison.tahoma_frontier,
            "baseline_frontier": comparison.baseline_frontier,
            "tahoma_speedup": comparison.tahoma_speedup()}
    return rows, {
        "fig5.tahoma_space_10x": (rows["n_tahoma_cascades"]
                                  > 10 * rows["n_baseline_cascades"]),
        "fig5.tahoma_ge_baseline": rows["tahoma_speedup"] >= 1.0,
    }


def fig6(workspace: ExperimentWorkspace):
    """Fig. 6: average speedup over the baselines, per deployment scenario."""
    rows = average_speedups(workspace)
    by_name = {row.scenario_name: row for row in rows}
    infer_only, archive = by_name["infer_only"], by_name["archive"]
    return [asdict(row) for row in rows], {
        "fig6.beats_reference": all(row.vs_reference > 1.0 for row in rows),
        "fig6.beats_baseline": all(row.vs_baseline_average > 1.0 for row in rows),
        "fig6.infer_only_ge_archive": infer_only.vs_reference >= archive.vs_reference,
        "fig6.infer_only_ge_archive_vs_baseline": (
            infer_only.vs_baseline_average >= archive.vs_baseline_average),
    }


def fig7(workspace: ExperimentWorkspace):
    """Fig. 7: the fastest optimal cascade vs the reference classifier."""
    rows = fastest_throughput(workspace)
    infer_only = next(row for row in rows if row.scenario_name == "infer_only")
    return [{**asdict(row), "speedup": row.speedup,
             "accuracy_drop": row.accuracy_drop} for row in rows], {
        "fig7.beats_reference": all(row.speedup > 1.0 for row in rows),
        "fig7.infer_only_largest": (
            infer_only.speedup == max(row.speedup for row in rows)),
        "fig7.reference_near_75fps": (
            abs(infer_only.reference_fps - 75.0) / 75.0 < 0.05),
    }


def fig8(workspace: ExperimentWorkspace):
    """Fig. 8: NoScope vs TAHOMA+DD on the synthetic video streams."""
    comparisons = noscope_comparison(workspace.scale, seed=workspace.scale.seed)
    return [{"stream": comparison.stream_name,
             "noscope": _pipeline_row(comparison.noscope),
             "tahoma_dd": _pipeline_row(comparison.tahoma_dd),
             "speedup": comparison.speedup} for comparison in comparisons], {
        "fig8.two_streams": len(comparisons) == 2,
        "fig8.tahoma_dd_faster": all(comparison.speedup >= 1.0
                                     for comparison in comparisons),
        "fig8.accuracy_within_10pts": all(
            comparison.tahoma_dd.accuracy >= comparison.noscope.accuracy - 0.1
            for comparison in comparisons),
    }


def fig9(workspace: ExperimentWorkspace):
    """Fig. 9: Fig. 4's comparison for every predicate of the scale."""
    comparisons = scenario_frontiers(workspace, list(workspace.scale.categories),
                                     scenario_name=SCENARIO)
    return [_frontier_row(comparison) for comparison in comparisons], {
        "fig9.aware_ge_oblivious": all(comparison.awareness_gain() >= 1.0 - EPS
                                       for comparison in comparisons),
    }


def table3(workspace: ExperimentWorkspace):
    """Table III: scenario-oblivious vs scenario-aware selection per budget."""
    rows = scenario_awareness_table(workspace)
    zero_budget = [row.gain_percent for row in rows if row.accuracy_loss == 0]
    nonzero_budget = [row.gain_percent for row in rows if row.accuracy_loss > 0]
    return [{**asdict(row), "gain_percent": row.gain_percent} for row in rows], {
        "table3.aware_ge_oblivious": all(
            row.oblivious_fps > 0 and row.aware_fps >= row.oblivious_fps - EPS
            for row in rows),
        "table3.budget_gain_ge_zero_budget": max(nonzero_budget) >= max(zero_budget),
    }


def fig10(workspace: ExperimentWorkspace):
    """Fig. 10: optimal-cascade throughput per input-transformation subset."""
    rows = transform_ablation(workspace, scenario_name="infer_only")
    mean = {name: sum(row.subset_throughputs[name] for row in rows) / len(rows)
            for name in TRANSFORM_SUBSETS}
    return {"predicates": [asdict(row) for row in rows], "mean": mean}, {
        "fig10.full_ge_none": all(
            row.subset_throughputs["full"] >= row.subset_throughputs["none"] - EPS
            for row in rows),
        "fig10.resize_ge_none": mean["resize"] >= mean["none"],
        "fig10.color_ge_none": mean["color"] >= mean["none"],
        "fig10.resize_dominates": mean["resize"] >= mean["color"],
    }


def fig11(workspace: ExperimentWorkspace):
    """Fig. 11: the frontier as the maximum depth grows one past the scale's."""
    depth = workspace.scale.max_depth
    rows = depth_analysis(workspace, _focus(workspace), scenario_name=SCENARIO,
                          max_depth=depth + 1, pool_size=DEPTH_POOL_SIZE)
    n_cascades = [row.n_cascades for row in rows]
    with_tail = {row.max_depth: row.average_throughput
                 for row in rows if row.with_reference_tail}
    without_tail = [row.average_throughput
                    for row in rows if not row.with_reference_tail]
    return [asdict(row) for row in rows], {
        "fig11.frontiers_nonempty": all(row.frontier and row.average_throughput > 0
                                        for row in rows),
        "fig11.counts_increase": n_cascades == sorted(n_cascades),
        "fig11.count_explodes": n_cascades[-1] > 20 * n_cascades[1],
        "fig11.depth3_gain_small": (with_tail[depth + 1] - with_tail[depth]
                                    <= 0.25 * with_tail[depth] + EPS),
        "fig11.deeper_never_slower": without_tail[-1] >= without_tail[0] - EPS,
    }


#: Every artifact, keyed as in ``PAPER_RESULTS.json``, in the paper's order.
ARTIFACTS = {"table2": table2, "fig4": fig4, "fig5": fig5, "fig6": fig6,
             "fig7": fig7, "fig8": fig8, "fig9": fig9, "table3": table3,
             "fig10": fig10, "fig11": fig11}


def run(scale: ExperimentScale) -> dict:
    """Every artifact's rows and checks at ``scale``: the JSON document."""
    workspace = get_workspace(scale)
    artifacts = {}
    for key, artifact in ARTIFACTS.items():
        rows, checks = artifact(workspace)
        artifacts[key] = {"rows": rows,
                          "checks": {name: bool(ok) for name, ok in checks.items()}}
    return {"scale": scale.name, "artifacts": artifacts}


def failed_checks(document: dict) -> list[str]:
    """Names of the document's false checks, in table order."""
    return [name for artifact in document["artifacts"].values()
            for name, ok in artifact["checks"].items() if not ok]


def main() -> int:
    if len(sys.argv) > 1:
        sys.exit("usage: python -m benchmarks.paper  (takes no options)")
    document = run(DEFAULT_SCALE)
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")
    failed = failed_checks(document)
    n_checks = sum(len(artifact["checks"])
                   for artifact in document["artifacts"].values())
    for name in failed:
        print(f"check failed: {name}")
    print(f"wrote {RESULTS_PATH.name}: {n_checks - len(failed)}/{n_checks} "
          "checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
