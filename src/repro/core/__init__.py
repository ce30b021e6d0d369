"""TAHOMA's core: the physical-representation-aware cascade optimizer.

The pieces map one-to-one onto the paper's architecture diagram (Figure 2):

* :mod:`repro.core.spec` — the model design space ``A x F``,
* :mod:`repro.core.model` — a trained model (the elements of the set ``M``),
* :mod:`repro.core.trainer` — the model trainer,
* :mod:`repro.core.thresholds` — per-model decision-threshold calibration,
* :mod:`repro.core.cascade` — cascade construction (the cascade builder),
* :mod:`repro.core.evaluator` — the cascade evaluator (cached-prediction
  simulation of accuracy and expected deployment cost),
* :mod:`repro.core.pareto` / :mod:`repro.core.alc` — Pareto frontiers and the
  area-left-of-curve comparison metric,
* :mod:`repro.core.selector` — the cascade selector driven by user
  constraints,
* :mod:`repro.core.optimizer` — the end-to-end orchestration
  (:class:`~repro.core.optimizer.TahomaOptimizer`), and
* :mod:`repro.core.persistence` — the model repository on disk.
"""
