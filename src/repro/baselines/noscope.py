"""NoScope and TAHOMA+DD: cascades behind a difference detector (Section VII-C).

Both systems answer a binary predicate over a video stream with one
pipeline, :class:`TahomaWithDifferenceDetector`, and differ only in the
cascade it runs:

* NoScope — :func:`noscope_cascade`: a single specialized CNN on the
  full-size full-color frame with calibrated thresholds, then the expensive
  oracle (YOLOv2 in the paper; our reference network here) for uncertain
  frames;
* TAHOMA+DD — a TAHOMA-selected cascade, so the two systems are compared on
  an equal footing (the detector is orthogonal to TAHOMA's contribution).

The pipeline executes the cascade with :meth:`Cascade.classify_with_stats`
and prices it with :func:`~repro.core.evaluator.expected_cost`, so both
systems follow the same decision and data-handling rules as the optimizer.
It returns a :class:`PipelineResult` with labels, accuracy against the
stream's ground truth, execution counts and an analytic throughput estimate
under a given cost profiler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.difference import DifferenceDetector
from repro.core.cascade import Cascade, CascadeLevel
from repro.core.evaluator import expected_cost
from repro.core.model import TrainedModel
from repro.core.thresholds import DecisionThresholds
from repro.costs.profiler import CostBreakdown, CostProfiler

__all__ = ["PipelineResult", "TahomaWithDifferenceDetector", "noscope_cascade"]


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of running a video pipeline over a stream."""

    name: str
    labels: np.ndarray
    accuracy: float
    n_frames: int
    n_reused: int
    n_specialized: int
    n_oracle: int
    cost: CostBreakdown

    @property
    def throughput(self) -> float:
        """Frames per second over the *processed* frames (reused frames are free)."""
        return self.cost.throughput_fps

    @property
    def reuse_fraction(self) -> float:
        if self.n_frames == 0:
            return 0.0
        return self.n_reused / self.n_frames

    @property
    def oracle_fraction(self) -> float:
        processed = self.n_frames - self.n_reused
        if processed == 0:
            return 0.0
        return self.n_oracle / processed


def _detector_cost(detector: DifferenceDetector, profiler: CostProfiler,
                   frame_shape: tuple[int, int, int]) -> CostBreakdown:
    """Per-frame cost of the difference detector (a cheap transform-like pass)."""
    values = detector.values_touched(frame_shape)
    return CostBreakdown(transform_s=profiler.device.transform_time(values))


def noscope_cascade(specialized: TrainedModel, thresholds: DecisionThresholds,
                    oracle: TrainedModel) -> Cascade:
    """NoScope as a cascade: the specialized CNN at ``thresholds``, then the
    oracle for the frames it is unsure about."""
    if specialized.is_reference:
        raise ValueError("the specialized model must not be the reference model")
    return Cascade((CascadeLevel(specialized, thresholds), CascadeLevel(oracle)))


class TahomaWithDifferenceDetector:
    """A cascade behind the difference detector.

    With a TAHOMA-selected cascade this is TAHOMA+DD; with
    :func:`noscope_cascade` it is NoScope.
    """

    def __init__(self, cascade: Cascade,
                 detector: DifferenceDetector | None = None,
                 name: str = "tahoma+dd") -> None:
        self.cascade = cascade
        self.detector = detector or DifferenceDetector()
        self.name = name

    def run(self, frames: np.ndarray, true_labels: np.ndarray,
            profiler: CostProfiler) -> PipelineResult:
        """Run the cascade over the frames the detector does not skip.

        The cost is per processed frame (the paper's reporting): the
        detector's pass plus :func:`~repro.core.evaluator.expected_cost` of
        the cascade at the fractions of processed frames reaching each level.
        """
        true_labels = np.asarray(true_labels, dtype=np.int64).ravel()
        if frames.shape[0] != true_labels.size:
            raise ValueError("frames and labels have different lengths")
        plan = self.detector.plan(frames)
        processed_frames = frames[plan.processed]

        labels_processed, stats = self.cascade.classify_with_stats(
            processed_frames)
        labels = plan.expand_labels(labels_processed)
        accuracy = float((labels == true_labels).mean())

        cost = CostBreakdown()
        if plan.n_processed:
            cost = _detector_cost(self.detector, profiler, frames.shape[1:]) + (
                expected_cost(self.cascade,
                              stats["evaluated"] / plan.n_processed, profiler))
        n_final = int(stats["evaluated"][-1]) if self.cascade.depth > 1 else 0
        return PipelineResult(name=self.name, labels=labels, accuracy=accuracy,
                              n_frames=plan.n_frames, n_reused=plan.n_reused,
                              n_specialized=plan.n_processed,
                              n_oracle=n_final if self.cascade.ends_in_reference() else 0,
                              cost=cost)
