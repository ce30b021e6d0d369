"""Fast cascade evaluation from cached per-model predictions (Section V-D/E).

The key trick that makes evaluating millions of cascades cheap is that every
cascade is a combination of the same basic models: each model is run over the
held-out evaluation set exactly once (:meth:`ModelPredictionCache.from_models`,
the one per-model probability pass), and every cascade's accuracy and
expected cost are then *simulated* from those cached probabilities.  The
replay runs the cascade's own decision rule (:meth:`Cascade.decide`, the
same loop execution uses), and :func:`expected_cost` is the one pricing
rule: the difference-detector pipeline of :mod:`repro.baselines.noscope`
prices NoScope's and TAHOMA+DD's cascades with it too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.cascade import Cascade
from repro.core.model import TrainedModel
from repro.core.pareto import pareto_frontier_indices
from repro.costs.profiler import CostBreakdown, CostProfiler

__all__ = ["ModelPredictionCache", "CascadeEvaluation", "EvaluatedCascadeSet",
           "evaluate_cascade", "evaluate_cascades", "expected_cost"]


class ModelPredictionCache:
    """Cached probabilities of every model on one labeled image set."""

    def __init__(self, probabilities: dict[str, np.ndarray],
                 labels: np.ndarray) -> None:
        self.labels = np.asarray(labels, dtype=np.int64).ravel()
        self.probabilities = {}
        for name, probs in probabilities.items():
            probs = np.asarray(probs, dtype=np.float64).ravel()
            if probs.shape != self.labels.shape:
                raise ValueError(
                    f"predictions for {name!r} have length {probs.size}, "
                    f"expected {self.labels.size}")
            self.probabilities[name] = probs

    @classmethod
    def from_models(cls, models: list[TrainedModel], images: np.ndarray,
                    labels: np.ndarray,
                    batch_size: int = 256) -> "ModelPredictionCache":
        """Run every model once over ``images`` and cache its probabilities.

        ``images`` are transformed once per representation, however many
        models share it.
        """
        transformed: dict[str, np.ndarray] = {}
        probabilities = {}
        for model in models:
            name = model.transform.name
            if name not in transformed:
                transformed[name] = model.transform.apply_batch(images)
            probabilities[model.name] = model.predict_proba_transformed(
                transformed[name], batch_size=batch_size)
        return cls(probabilities, labels)

    def get(self, model: TrainedModel) -> np.ndarray:
        try:
            return self.probabilities[model.name]
        except KeyError:
            raise KeyError(f"model {model.name!r} not in prediction cache") from None

    def __contains__(self, model: TrainedModel) -> bool:
        return model.name in self.probabilities

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True, eq=False)
class CascadeEvaluation:
    """Accuracy and expected per-image cost of one cascade.

    ``positive_rate`` is the fraction of evaluation-set images the cascade
    labels positive — the query planner's selectivity estimate for the
    predicate.  NaN for evaluations built without a decision replay.
    """

    cascade: Cascade
    accuracy: float
    cost: CostBreakdown
    level_fractions: tuple[float, ...]
    positive_rate: float = float("nan")

    @property
    def throughput(self) -> float:
        """Images per second under the profiler's deployment scenario."""
        return self.cost.throughput_fps

    @property
    def name(self) -> str:
        return self.cascade.name

    @property
    def depth(self) -> int:
        return self.cascade.depth

    def point(self) -> tuple[float, float]:
        """The (accuracy, throughput) point used for Pareto analysis."""
        return (self.accuracy, self.throughput)


def expected_cost(cascade: Cascade, level_fractions: Iterable[float],
                  profiler: CostProfiler) -> CostBreakdown:
    """Expected per-input cost of ``cascade`` given the fraction reaching
    each level.

    The paper's accounting, and the only place it is written: a level's
    inference is weighted by the fraction of inputs that reach it, and a
    representation's load/transform cost is paid once, at the first level
    that reads it (costs "occur once for a given input").
    """
    cost = CostBreakdown()
    seen_representations: set[str] = set()
    for level, fraction in zip(cascade.levels, level_fractions):
        cost = cost + CostBreakdown(
            infer_s=profiler.infer_time(level.model.flops)).scaled(fraction)
        spec = level.model.transform
        if spec.name not in seen_representations:
            cost = cost + profiler.data_handling_cost(spec).scaled(fraction)
            seen_representations.add(spec.name)
    return cost


def evaluate_cascade(cascade: Cascade, cache: ModelPredictionCache,
                     profiler: CostProfiler) -> CascadeEvaluation:
    """Simulate one cascade over the evaluation set and price it.

    Accuracy comes from replaying the cascade's decision rule
    (:meth:`Cascade.decide`) on the cached probabilities; the fraction of
    the set reaching each level prices it through :func:`expected_cost`.
    """
    labels = cache.labels
    n = labels.size
    if n == 0:
        raise ValueError("evaluation set is empty")
    predictions, stats = cascade.decide(
        n, lambda level, pending: cache.get(level.model)[pending])
    level_fractions = tuple(float(count / n) for count in stats["evaluated"])
    return CascadeEvaluation(
        cascade=cascade, accuracy=float((predictions == labels).mean()),
        cost=expected_cost(cascade, level_fractions, profiler),
        level_fractions=level_fractions,
        positive_rate=float(predictions.mean()))


def evaluate_cascades(cascades: list[Cascade], cache: ModelPredictionCache,
                      profiler: CostProfiler) -> "EvaluatedCascadeSet":
    """Evaluate a whole cascade set under one deployment scenario."""
    if not cascades:
        raise ValueError("cascades must be non-empty")
    evaluations = [evaluate_cascade(cascade, cache, profiler)
                   for cascade in cascades]
    return EvaluatedCascadeSet(evaluations=evaluations,
                               scenario_name=profiler.scenario.name)


@dataclass(eq=False)
class EvaluatedCascadeSet:
    """All cascade evaluations for one predicate under one scenario."""

    evaluations: list[CascadeEvaluation]
    scenario_name: str = ""

    def __post_init__(self) -> None:
        if not self.evaluations:
            raise ValueError("evaluations must be non-empty")

    def __len__(self) -> int:
        return len(self.evaluations)

    def points(self) -> list[tuple[float, float]]:
        """All (accuracy, throughput) points."""
        return [evaluation.point() for evaluation in self.evaluations]

    def frontier(self) -> list[CascadeEvaluation]:
        """The Pareto-optimal evaluations, sorted by descending throughput."""
        accuracy = np.array([e.accuracy for e in self.evaluations])
        throughput = np.array([e.throughput for e in self.evaluations])
        indices = pareto_frontier_indices(accuracy, throughput)
        return [self.evaluations[i] for i in indices]

    def frontier_points(self) -> list[tuple[float, float]]:
        """The Pareto frontier as (accuracy, throughput) points."""
        return [evaluation.point() for evaluation in self.frontier()]

    def accuracy_range(self) -> tuple[float, float]:
        """The (min, max) accuracy spanned by the full cascade set."""
        accuracies = [e.accuracy for e in self.evaluations]
        return (min(accuracies), max(accuracies))
