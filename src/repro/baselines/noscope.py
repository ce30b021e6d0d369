"""NoScope-style video pipeline and TAHOMA+DD (paper Section VII-C).

Both pipelines answer a binary predicate over a video stream:

* :class:`NoScopePipeline` — difference detector, then a single specialized
  CNN on the full-size full-color frame with calibrated thresholds, then the
  expensive oracle (YOLOv2 in the paper; our reference network here) for
  uncertain frames.
* :class:`TahomaWithDifferenceDetector` — the same difference detector in
  front of a TAHOMA-selected cascade, so the two systems are compared on an
  equal footing (the detector is orthogonal to TAHOMA's contribution).

Each returns a :class:`PipelineResult` with labels, accuracy against the
stream's ground truth, execution counts and an analytic throughput estimate
under a given cost profiler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.difference import DifferenceDetector, FramePlan
from repro.core.cascade import Cascade
from repro.core.model import TrainedModel
from repro.core.thresholds import DecisionThresholds
from repro.costs.profiler import CostBreakdown, CostProfiler

__all__ = ["PipelineResult", "NoScopePipeline", "TahomaWithDifferenceDetector"]


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


class NoScopePipeline:
    """Difference detector -> specialized full-input CNN -> expensive oracle."""

    def __init__(self, specialized: TrainedModel, thresholds: DecisionThresholds,
                 oracle: TrainedModel,
                 detector: DifferenceDetector | None = None,
                 name: str = "noscope") -> None:
        if specialized.is_reference:
            raise ValueError("the specialized model must not be the reference model")
        self.specialized = specialized
        self.thresholds = thresholds
        self.oracle = oracle
        self.detector = detector or DifferenceDetector()
        self.name = name

    def run(self, frames: np.ndarray, true_labels: np.ndarray,
            profiler: CostProfiler) -> PipelineResult:
        """Run the pipeline over ``frames`` and price the processed frames."""
        true_labels = np.asarray(true_labels, dtype=np.int64).ravel()
        if frames.shape[0] != true_labels.size:
            raise ValueError("frames and labels have different lengths")
        plan = self.detector.plan(frames)
        processed_frames = frames[plan.processed]

        specialized_repr = self.specialized.transform.apply_batch(
            processed_frames)
        probabilities = self.specialized.predict_proba_transformed(specialized_repr)
        confident = self.thresholds.confident_mask(probabilities)
        labels_processed = np.zeros(plan.n_processed, dtype=np.int64)
        labels_processed[confident] = self.thresholds.decide(probabilities[confident])

        uncertain_indices = np.where(~confident)[0]
        if uncertain_indices.size > 0:
            oracle_repr = self.oracle.transform.apply_batch(
                processed_frames[uncertain_indices])
            oracle_probs = self.oracle.network.predict_proba(oracle_repr)
            labels_processed[uncertain_indices] = (oracle_probs >= 0.5)

        labels = plan.expand_labels(labels_processed)
        accuracy = float((labels == true_labels).mean())
        cost = self._expected_cost(plan, uncertain_indices.size, profiler,
                                   frames.shape[1:])
        return PipelineResult(name=self.name, labels=labels, accuracy=accuracy,
                              n_frames=plan.n_frames, n_reused=plan.n_reused,
                              n_specialized=plan.n_processed,
                              n_oracle=int(uncertain_indices.size), cost=cost)

    def _expected_cost(self, plan: FramePlan, n_oracle: int,
                       profiler: CostProfiler,
                       frame_shape: tuple[int, int, int]) -> CostBreakdown:
        """Average per-processed-frame cost (matching the paper's reporting)."""
        if plan.n_processed == 0:
            return CostBreakdown()
        oracle_fraction = n_oracle / plan.n_processed
        cost = _detector_cost(self.detector, profiler, frame_shape)
        cost = cost + profiler.model_cost(self.specialized.flops,
                                          self.specialized.transform)
        cost = cost + profiler.model_cost(self.oracle.flops,
                                          self.oracle.transform).scaled(oracle_fraction)
        return cost


class TahomaWithDifferenceDetector:
    """TAHOMA+DD: a selected TAHOMA cascade behind the same difference detector."""

    def __init__(self, cascade: Cascade,
                 detector: DifferenceDetector | None = None,
                 name: str = "tahoma+dd") -> None:
        self.cascade = cascade
        self.detector = detector or DifferenceDetector()
        self.name = name

    def run(self, frames: np.ndarray, true_labels: np.ndarray,
            profiler: CostProfiler) -> PipelineResult:
        """Run the cascade over the frames the detector does not skip."""
        true_labels = np.asarray(true_labels, dtype=np.int64).ravel()
        if frames.shape[0] != true_labels.size:
            raise ValueError("frames and labels have different lengths")
        plan = self.detector.plan(frames)
        processed_frames = frames[plan.processed]

        labels_processed, stats = self.cascade.classify_with_stats(
            processed_frames)
        labels = plan.expand_labels(labels_processed)
        accuracy = float((labels == true_labels).mean())

        cost = self._expected_cost(plan, stats["evaluated"], profiler,
                                   frames.shape[1:])
        n_final = int(stats["evaluated"][-1]) if self.cascade.depth > 1 else 0
        return PipelineResult(name=self.name, labels=labels, accuracy=accuracy,
                              n_frames=plan.n_frames, n_reused=plan.n_reused,
                              n_specialized=plan.n_processed,
                              n_oracle=n_final if self.cascade.ends_in_reference() else 0,
                              cost=cost)

    def _expected_cost(self, plan: FramePlan, evaluated: np.ndarray,
                       profiler: CostProfiler,
                       frame_shape: tuple[int, int, int]) -> CostBreakdown:
        if plan.n_processed == 0:
            return CostBreakdown()
        cost = _detector_cost(self.detector, profiler, frame_shape)
        seen_representations: set[str] = set()
        for level, n_evaluated in zip(self.cascade.levels, evaluated):
            fraction = n_evaluated / plan.n_processed
            cost = cost + CostBreakdown(
                infer_s=profiler.infer_time(level.model.flops)).scaled(fraction)
            representation = level.model.transform.name
            if representation not in seen_representations:
                cost = cost + profiler.data_handling_cost(
                    level.model.transform).scaled(fraction)
                seen_representations.add(representation)
        return cost
