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

They share :mod:`repro.experiments.presets` (experiment scales and
deployment presets) and :mod:`repro.experiments.workspace` (the
trained model pools every figure reads).
"""
