"""Fast cascade evaluation from cached per-model predictions (Section V-D/E).

The key trick that makes evaluating millions of cascades cheap is that every
cascade is a combination of the same basic models: each model is run over the
held-out evaluation set exactly once, and every cascade's accuracy and
expected cost are then *simulated* from those cached probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cascade import Cascade
from repro.core.model import TrainedModel
from repro.core.pareto import pareto_frontier_indices
from repro.costs.profiler import CostBreakdown, CostProfiler

__all__ = ["ModelPredictionCache", "CascadeEvaluation", "EvaluatedCascadeSet",
           "evaluate_cascade", "evaluate_cascades"]


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


def evaluate_cascade(cascade: Cascade, cache: ModelPredictionCache,
                     profiler: CostProfiler) -> CascadeEvaluation:
    """Simulate one cascade over the evaluation set and price it.

    Accuracy comes from replaying the cascade's decision logic on the cached
    probabilities.  Expected cost follows the paper's accounting: a level's
    inference cost is weighted by the fraction of images that reach it, and a
    representation's load/transform cost is incurred at the first level that
    uses it (costs "occur once for a given input").
    """
    labels = cache.labels
    n = labels.size
    if n == 0:
        raise ValueError("evaluation set is empty")

    predictions = np.zeros(n, dtype=np.int64)
    reach_mask = np.ones(n, dtype=bool)
    level_fractions = []
    cost = CostBreakdown()
    seen_representations: set[str] = set()

    for level in cascade.levels:
        fraction_reaching = float(reach_mask.mean())
        level_fractions.append(fraction_reaching)
        probabilities = cache.get(level.model)

        # Expected inference cost: pay only for images that reach this level.
        cost = cost + CostBreakdown(
            infer_s=profiler.infer_time(level.model.flops)).scaled(fraction_reaching)

        # Data handling: first level to use a representation pays for it.
        representation_name = level.model.transform.name
        if representation_name not in seen_representations:
            handling = profiler.data_handling_cost(level.model.transform)
            cost = cost + handling.scaled(fraction_reaching)
            seen_representations.add(representation_name)

        if level.is_final:
            predictions[reach_mask] = (probabilities[reach_mask] >= 0.5)
            reach_mask = np.zeros(n, dtype=bool)
            break
        confident = level.thresholds.confident_mask(probabilities)
        decided_here = reach_mask & confident
        predictions[decided_here] = level.thresholds.decide(
            probabilities[decided_here])
        reach_mask = reach_mask & ~confident

    # Images never decided (possible only for malformed cascades) count as 0.
    accuracy = float((predictions == labels).mean())
    return CascadeEvaluation(cascade=cascade, accuracy=accuracy, cost=cost,
                             level_fractions=tuple(level_fractions),
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

    def best_accuracy(self) -> CascadeEvaluation:
        """The most accurate cascade (ties broken by throughput)."""
        return max(self.evaluations, key=lambda e: (e.accuracy, e.throughput))

    def fastest(self) -> CascadeEvaluation:
        """The highest-throughput cascade (ties broken by accuracy)."""
        return max(self.evaluations, key=lambda e: (e.throughput, e.accuracy))
