"""Cascade selection against user constraints (paper Section V-A).

Like approximate query systems (BlinkDB, VerdictDB), TAHOMA lets the user
declare how much accuracy (``U_acc``) or throughput (``U_thru``) they are
willing to give up; the selector then picks the Pareto-optimal cascade that
best honours the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluator import CascadeEvaluation

__all__ = ["UserConstraints", "select_cascade", "select_fastest",
           "select_most_accurate", "select_matching_accuracy"]


@dataclass(frozen=True)
class UserConstraints:
    """The user's tolerated losses, expressed as fractions of the best value.

    Parameters
    ----------
    max_accuracy_loss:
        Highest tolerable *relative* accuracy loss versus the most accurate
        cascade available (e.g. ``0.05`` tolerates a 5% relative drop).
        ``None`` means accuracy must not be sacrificed at all.
    min_throughput:
        Optional hard floor on throughput (frames per second).
    """

    max_accuracy_loss: float | None = None
    min_throughput: float | None = None

    def __post_init__(self) -> None:
        if self.max_accuracy_loss is not None and not 0.0 <= self.max_accuracy_loss < 1.0:
            raise ValueError("max_accuracy_loss must be in [0, 1)")
        # ``not x >= 0`` also rejects NaN, which every comparison fails.
        if self.min_throughput is not None and not self.min_throughput >= 0:
            raise ValueError("min_throughput must be non-negative")


def select_most_accurate(evaluations: list[CascadeEvaluation]) -> CascadeEvaluation:
    """The most accurate cascade; throughput breaks ties."""
    if not evaluations:
        raise ValueError("evaluations must be non-empty")
    return max(evaluations, key=lambda e: (e.accuracy, e.throughput))


def select_fastest(evaluations: list[CascadeEvaluation],
                   min_accuracy: float | None = None) -> CascadeEvaluation:
    """The fastest cascade, optionally subject to an accuracy floor."""
    if not evaluations:
        raise ValueError("evaluations must be non-empty")
    candidates = evaluations
    if min_accuracy is not None:
        candidates = [e for e in evaluations if e.accuracy >= min_accuracy]
        if not candidates:
            raise ValueError(
                f"no cascade reaches the accuracy floor {min_accuracy:.3f}")
    return max(candidates, key=lambda e: (e.throughput, e.accuracy))


def select_matching_accuracy(evaluations: list[CascadeEvaluation],
                             target_accuracy: float) -> CascadeEvaluation:
    """The cascade whose accuracy is closest to, but not below, the target.

    This mirrors how the paper compares against a single classifier: "choose
    the optimal cascade whose accuracy is both higher and closest to the
    accuracy of the single classifier".  Ties on accuracy are broken by
    throughput.  If no cascade reaches the target, the most accurate one is
    returned.
    """
    if not evaluations:
        raise ValueError("evaluations must be non-empty")
    at_or_above = [e for e in evaluations if e.accuracy >= target_accuracy]
    if not at_or_above:
        return select_most_accurate(evaluations)
    best_accuracy = min(e.accuracy for e in at_or_above)
    nearest = [e for e in at_or_above if e.accuracy == best_accuracy]
    return max(nearest, key=lambda e: e.throughput)


def select_cascade(evaluations: list[CascadeEvaluation],
                   constraints: UserConstraints) -> CascadeEvaluation:
    """Select the cascade honouring the user's constraints.

    The selection rule follows the paper's example: with an accuracy-loss
    budget, pick the *fastest* cascade whose accuracy stays within the budget
    relative to the most accurate cascade available; a throughput floor is
    applied afterwards as a hard filter (falling back to the fastest cascade
    meeting the accuracy bound if the floor is unreachable).
    """
    if not evaluations:
        raise ValueError("evaluations must be non-empty")
    most_accurate = select_most_accurate(evaluations)
    if constraints.max_accuracy_loss is None:
        accuracy_floor = most_accurate.accuracy
    else:
        accuracy_floor = most_accurate.accuracy * (1.0 - constraints.max_accuracy_loss)

    within_budget = [e for e in evaluations if e.accuracy >= accuracy_floor]
    if not within_budget:
        within_budget = [most_accurate]

    if constraints.min_throughput is not None:
        fast_enough = [e for e in within_budget
                       if e.throughput >= constraints.min_throughput]
        if fast_enough:
            within_budget = fast_enough

    return max(within_budget, key=lambda e: (e.throughput, e.accuracy))
