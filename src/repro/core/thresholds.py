"""Decision-threshold calibration (paper Section V-C).

Each basic model gets a pair of thresholds ``(p_low, p_high)``.  A probability
at or below ``p_low`` is a confident negative, at or above ``p_high`` a
confident positive; anything in between is *uncertain* and falls through to
the next cascade level.  Thresholds are chosen per model, independently of any
cascade, by a grid search that requires the precision of confident decisions
to meet a target while maximizing how many examples are decided confidently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecisionThresholds", "ThresholdCalibration", "calibrate_thresholds",
           "PAPER_PRECISION_TARGETS"]

#: The five precision settings used in the paper's experiments.
PAPER_PRECISION_TARGETS = (0.91, 0.93, 0.95, 0.97, 0.99)

#: Candidate values per threshold: quantiles of the observed probabilities
#: (plus the 0/0.5/1 anchors).
GRID_SIZE = 25


@dataclass(frozen=True)
class DecisionThresholds:
    """A calibrated ``(p_low, p_high)`` pair and the target it was tuned for."""

    p_low: float
    p_high: float
    precision_target: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_low <= self.p_high <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= p_low <= p_high <= 1")
        if not 0.0 < self.precision_target <= 1.0:
            raise ValueError("precision_target must be in (0, 1]")

    def confident_mask(self, probabilities: np.ndarray) -> np.ndarray:
        """Boolean mask of examples decided confidently at this level."""
        probabilities = np.asarray(probabilities)
        return (probabilities <= self.p_low) | (probabilities >= self.p_high)

    def decide(self, probabilities: np.ndarray) -> np.ndarray:
        """Hard labels for the confident examples (undefined where uncertain)."""
        return (np.asarray(probabilities) >= self.p_high).astype(np.int64)


@dataclass(frozen=True)
class ThresholdCalibration:
    """The chosen thresholds plus the statistics observed during calibration."""

    thresholds: DecisionThresholds
    coverage: float
    positive_precision: float
    negative_precision: float
    feasible: bool


def _precision(predicted_positive: np.ndarray, labels: np.ndarray) -> float:
    """Precision of the predicted-positive set; 1.0 when the set is empty."""
    count = int(predicted_positive.sum())
    if count == 0:
        return 1.0
    return float(labels[predicted_positive].mean())


def calibrate_thresholds(probabilities: np.ndarray, labels: np.ndarray,
                         precision_target: float = 0.95) -> ThresholdCalibration:
    """Grid-search ``(p_low, p_high)`` for one model over :data:`GRID_SIZE`
    quantile candidates per threshold.

    Parameters
    ----------
    probabilities:
        Model outputs on the configuration set.
    labels:
        Ground-truth binary labels for the configuration set.
    precision_target:
        Required precision of confident decisions, applied to both the
        confident-positive side and the confident-negative side.

    Returns
    -------
    ThresholdCalibration
        The feasible pair maximizing coverage (the fraction of examples
        decided confidently).  When no pair meets the target the degenerate
        pair ``(0.5, 0.5)`` — every example decided, used only as a cascade's
        final level — is returned with ``feasible=False``.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if probabilities.shape != labels.shape:
        raise ValueError("probabilities and labels must have the same length")
    if probabilities.size == 0:
        raise ValueError("cannot calibrate thresholds on an empty set")
    if not 0.0 < precision_target <= 1.0:
        raise ValueError("precision_target must be in (0, 1]")

    quantiles = np.quantile(probabilities, np.linspace(0.0, 1.0, GRID_SIZE))
    candidates = np.unique(np.concatenate([quantiles, [0.0, 0.5, 1.0]]))
    low_candidates = candidates[candidates <= 0.5]
    high_candidates = candidates[candidates >= 0.5]

    best: ThresholdCalibration | None = None
    for p_low in low_candidates:
        negative_mask = probabilities <= p_low
        negative_precision = _precision(negative_mask, 1 - labels)
        if negative_precision < precision_target:
            # Raising p_low only admits more (noisier) negatives, but a
            # *smaller* p_low may still work, so keep scanning.
            continue
        for p_high in high_candidates:
            positive_mask = probabilities >= p_high
            positive_precision = _precision(positive_mask, labels)
            if positive_precision < precision_target:
                continue
            coverage = float((negative_mask | positive_mask).mean())
            if coverage == 0.0:
                # A pair that never decides anything is useless as a cascade
                # level; treat it as infeasible rather than "trivially precise".
                continue
            thresholds = DecisionThresholds(float(p_low), float(p_high),
                                            precision_target)
            candidate = ThresholdCalibration(
                thresholds=thresholds, coverage=coverage,
                positive_precision=positive_precision,
                negative_precision=negative_precision, feasible=True)
            if best is None or candidate.coverage > best.coverage:
                best = candidate

    if best is not None:
        return best

    fallback = DecisionThresholds(0.5, 0.5, precision_target)
    confident = fallback.confident_mask(probabilities)
    predictions = fallback.decide(probabilities)
    accuracy = float((predictions == labels).mean())
    return ThresholdCalibration(
        thresholds=fallback, coverage=float(confident.mean()),
        positive_precision=accuracy, negative_precision=accuracy,
        feasible=False)
