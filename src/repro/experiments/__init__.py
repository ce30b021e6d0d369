"""Experiment harness: the code that regenerates every table and figure.

Each evaluation artifact of the paper maps to one function here, called by
one entry of ``benchmarks/paper.py`` (``python -m benchmarks.paper``) whose
rows and checks land under its key in ``PAPER_RESULTS.json``:

==========  ========  ==========================================================
Artifact    JSON key  Function
==========  ========  ==========================================================
Table II    table2    :data:`repro.data.categories.TABLE2_CATEGORIES`
Figure 4    fig4      :func:`repro.experiments.scenarios.frontier_example`
Figure 5    fig5      :func:`repro.experiments.speedups.design_space_comparison`
Figure 6    fig6      :func:`repro.experiments.speedups.average_speedups`
Figure 7    fig7      :func:`repro.experiments.speedups.fastest_throughput`
Figure 8    fig8      :func:`repro.experiments.noscope_exp.noscope_comparison`
Figure 9    fig9      :func:`repro.experiments.scenarios.scenario_frontiers`
Table III   table3    :func:`repro.experiments.scenarios.scenario_awareness_table`
Figure 10   fig10     :func:`repro.experiments.ablation.transform_ablation`
Figure 11   fig11     :func:`repro.experiments.ablation.depth_analysis`
==========  ========  ==========================================================
"""

from repro.experiments.ablation import (
    DepthRow,
    TransformAblationRow,
    depth_analysis,
    transform_ablation,
)
from repro.experiments.noscope_exp import StreamComparison, noscope_comparison
from repro.experiments.presets import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    simulation_scenarios,
)
from repro.experiments.scenarios import (
    AwarenessRow,
    FrontierComparison,
    frontier_example,
    reference_only_evaluation,
    scenario_awareness_table,
    scenario_frontiers,
)
from repro.experiments.speedups import (
    DesignSpaceComparison,
    FastestRow,
    SpeedupRow,
    average_speedups,
    baseline_evaluation,
    design_space_comparison,
    fastest_throughput,
)
from repro.experiments.workspace import (
    ExperimentWorkspace,
    PredicateWorkspace,
    build_workspace,
    get_workspace,
)

__all__ = [
    "ExperimentScale",
    "SMOKE_SCALE",
    "DEFAULT_SCALE",
    "PAPER_SCALE",
    "simulation_scenarios",
    "ExperimentWorkspace",
    "PredicateWorkspace",
    "build_workspace",
    "get_workspace",
    "FrontierComparison",
    "frontier_example",
    "scenario_frontiers",
    "AwarenessRow",
    "scenario_awareness_table",
    "reference_only_evaluation",
    "DesignSpaceComparison",
    "design_space_comparison",
    "SpeedupRow",
    "average_speedups",
    "FastestRow",
    "fastest_throughput",
    "baseline_evaluation",
    "TransformAblationRow",
    "transform_ablation",
    "DepthRow",
    "depth_analysis",
    "StreamComparison",
    "noscope_comparison",
]
