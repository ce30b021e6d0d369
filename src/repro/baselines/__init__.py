"""Baseline systems the paper compares against.

* :mod:`repro.baselines.reference` — the expensive, accurate reference
  classifier (stand-in for the fine-tuned ResNet50 and, with a cost
  multiplier, for YOLOv2),
* :mod:`repro.baselines.baseline_cascades` — the "Baseline" cascade set:
  NoScope-style two-level cascades whose models all consume the full-size,
  full-color representation and that terminate in the reference classifier,
* :mod:`repro.baselines.difference` — the frame-difference detector, and
* :mod:`repro.baselines.noscope` — NoScope as a cascade
  (:func:`noscope_cascade`: specialized CNN, then the oracle) and the one
  pipeline that runs a cascade behind the difference detector, used for
  NoScope and TAHOMA+DD in the Figure 8 comparison.
"""

from repro.baselines.baseline_cascades import build_baseline_cascades, baseline_model_specs
from repro.baselines.difference import DifferenceDetector, FramePlan
from repro.baselines.noscope import (
    PipelineResult,
    TahomaWithDifferenceDetector,
    noscope_cascade,
)
from repro.baselines.reference import (
    build_reference_network,
    reference_transform,
    train_reference_model,
)

__all__ = [
    "build_reference_network",
    "train_reference_model",
    "reference_transform",
    "build_baseline_cascades",
    "baseline_model_specs",
    "DifferenceDetector",
    "FramePlan",
    "TahomaWithDifferenceDetector",
    "noscope_cascade",
    "PipelineResult",
]
