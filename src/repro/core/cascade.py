"""Classifier cascades and cascade enumeration (paper Sections V-B to V-D).

:meth:`Cascade.decide` is the one place the cascade's decision rule lives:
a thresholded level decides the inputs it is confident about and passes the
rest on, and the final level decides what is left at 0.5.  Execution
(:meth:`Cascade.classify_with_stats`) feeds it inference over raw rows; the
evaluator (:func:`~repro.core.evaluator.evaluate_cascade`) feeds it cached
eval-split probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.core.model import TrainedModel
from repro.core.thresholds import DecisionThresholds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CascadeLevel", "Cascade", "CascadeBuilder", "count_cascades"]


@dataclass(frozen=True, eq=False)
class CascadeLevel:
    """One level of a cascade: a model plus its decision thresholds.

    The final level of a cascade has ``thresholds=None``: its output is always
    accepted (a 0.5 cut on the probability).
    """

    model: TrainedModel
    thresholds: DecisionThresholds | None = None

    @property
    def is_final(self) -> bool:
        return self.thresholds is None

    @property
    def name(self) -> str:
        if self.thresholds is None:
            return self.model.name
        return f"{self.model.name}@p{self.thresholds.precision_target:.2f}"


@dataclass(frozen=True, eq=False)
class Cascade:
    """An ordered sequence of cascade levels; the last level always decides."""

    levels: tuple[CascadeLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a cascade needs at least one level")
        for level in self.levels[:-1]:
            if level.thresholds is None:
                raise ValueError("only the final level may omit thresholds")
        if self.levels[-1].thresholds is not None:
            raise ValueError("the final level must not have thresholds")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def name(self) -> str:
        return " -> ".join(level.name for level in self.levels)

    @property
    def models(self) -> tuple[TrainedModel, ...]:
        return tuple(level.model for level in self.levels)

    def ends_in_reference(self) -> bool:
        """Whether the final level is the expensive reference classifier."""
        return self.levels[-1].model.is_reference

    # -- execution ---------------------------------------------------------
    def classify(self, raw_images: np.ndarray,
                 batch_size: int = 256,
                 metrics: "MetricsRegistry | None" = None) -> np.ndarray:
        """Execute the cascade over every raw image, returning hard labels."""
        labels, _ = self.classify_with_stats(raw_images,
                                             batch_size=batch_size,
                                             metrics=metrics)
        return labels

    def classify_with_stats(
            self, raw_images: np.ndarray, batch_size: int = 256,
            metrics: "MetricsRegistry | None" = None, *,
            rows: np.ndarray | None = None,
            representations: Mapping[str, np.ndarray] | None = None
            ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Classify ``rows`` of ``raw_images``; labels plus per-level counts.

        ``rows`` are indices into ``raw_images`` (every row when omitted);
        the returned labels align with them.  ``representations`` maps
        ``TransformSpec.name`` to an already-transformed array row-aligned
        with ``raw_images``; a level whose spec is there indexes it by row.
        Any other spec is transformed from ``raw_images`` for just the rows
        still pending at the first level that needs it, and that result is
        reused by later levels sharing the spec — so a representation is
        paid for once per input, per level actually reached (the paper's
        data-handling rule).

        The stats dictionary contains ``evaluated`` (images reaching each
        level) and ``decided`` (images decided at each level), both arrays of
        length ``depth``.  A :class:`~repro.telemetry.metrics.MetricsRegistry`
        additionally records the per-level filter rates as
        ``repro_cascade_level_evaluated_total`` / ``_decided_total``
        counters labelled by cascade name and level index.
        """
        if raw_images.ndim != 4:
            raise ValueError(f"expected NHWC batch, got shape {raw_images.shape}")
        if rows is None:
            rows = np.arange(raw_images.shape[0])
        if representations is None:
            representations = {}
        # spec name -> (the pending positions it was transformed for, result).
        transformed: dict[str, tuple[np.ndarray, np.ndarray]] = {}

        def probabilities_for(level: CascadeLevel,
                              pending: np.ndarray) -> np.ndarray:
            spec = level.model.transform
            if spec.name in representations:
                representation = representations[spec.name][rows[pending]]
            elif spec.name in transformed:
                positions, array = transformed[spec.name]
                representation = array[np.searchsorted(positions, pending)]
            else:
                representation = spec.apply_batch(raw_images[rows[pending]])
                transformed[spec.name] = (pending, representation)
            return level.model.predict_proba_transformed(
                representation, batch_size=batch_size)

        labels, stats = self.decide(rows.size, probabilities_for)
        if metrics is not None:
            evaluated, decided = stats["evaluated"], stats["decided"]
            evaluated_total = metrics.counter(
                "repro_cascade_level_evaluated_total")
            decided_total = metrics.counter(
                "repro_cascade_level_decided_total")
            for index in range(self.depth):
                if evaluated[index]:
                    evaluated_total.inc(int(evaluated[index]),
                                        cascade=self.name, level=str(index))
                if decided[index]:
                    decided_total.inc(int(decided[index]),
                                      cascade=self.name, level=str(index))
        return labels, stats

    def decide(self, n: int,
               probabilities_for: Callable[[CascadeLevel, np.ndarray],
                                           np.ndarray]
               ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The cascade's decision rule over ``n`` inputs: labels plus counts.

        ``probabilities_for(level, pending)`` returns the level's
        probabilities for the input positions ``pending`` (sorted, a subset
        of ``range(n)``, the inputs no earlier level was confident about).
        A thresholded level decides the inputs it is confident about; the
        final level decides the rest at 0.5.

        Returns ``(labels, {"evaluated": ..., "decided": ...})`` with the
        per-level input counts as in :meth:`classify_with_stats`.
        """
        labels = np.zeros(n, dtype=np.int64)
        # Positions still undecided; stays sorted, so a later level finds its
        # inputs in whatever an earlier level computed for a superset.
        pending = np.arange(n)
        evaluated = np.zeros(self.depth, dtype=np.int64)
        decided = np.zeros(self.depth, dtype=np.int64)
        for index, level in enumerate(self.levels):
            if pending.size == 0:
                break
            evaluated[index] = pending.size
            probabilities = probabilities_for(level, pending)
            if level.is_final:
                labels[pending] = (probabilities >= 0.5).astype(np.int64)
                decided[index] = pending.size
                break
            confident = level.thresholds.confident_mask(probabilities)
            decided_idx = pending[confident]
            labels[decided_idx] = level.thresholds.decide(
                probabilities[confident])
            decided[index] = decided_idx.size
            pending = pending[~confident]
        return labels, {"evaluated": evaluated, "decided": decided}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cascade({self.name})"


def count_cascades(n_models: int, n_precision_targets: int, max_depth: int,
                   with_reference_tail: bool) -> int:
    """Size of the cascade design space enumerated by :class:`CascadeBuilder`.

    Counts every ordered arrangement of distinct models where the first
    ``depth - 1`` levels additionally pick one of the precision targets, for
    all depths up to ``max_depth``, plus (when ``with_reference_tail``) the
    variants whose thresholded prefix is followed by the reference classifier.
    This is the analogue of the paper's ~1.3 million cascades per predicate.
    """
    if n_models <= 0 or n_precision_targets <= 0 or max_depth <= 0:
        raise ValueError("all counts must be positive")
    total = 0
    for depth in range(1, max_depth + 1):
        arrangements = 1
        for i in range(depth - 1):
            arrangements *= (n_models - i) * n_precision_targets
        arrangements *= (n_models - (depth - 1))
        total += arrangements
        if with_reference_tail:
            # Same prefix but every level is thresholded and the reference
            # classifier is appended as the always-accept final level.
            tail_arrangements = 1
            for i in range(depth):
                tail_arrangements *= (n_models - i) * n_precision_targets
            total += tail_arrangements
    return total


class CascadeBuilder:
    """Enumerates the cascade set ``C`` from a pool of trained models.

    Parameters
    ----------
    precision_thresholds:
        Mapping from model name to the list of calibrated
        :class:`~repro.core.thresholds.DecisionThresholds` for that model
        (one per precision target).
    max_depth:
        Maximum number of levels drawn from the specialized model pool.
    reference_model:
        Optional expensive classifier appended as an extra final level,
        producing the paper's "+ ResNet50" cascade variants.
    """

    def __init__(self, precision_thresholds: dict[str, list[DecisionThresholds]],
                 max_depth: int = 2,
                 reference_model: TrainedModel | None = None) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.precision_thresholds = precision_thresholds
        self.max_depth = max_depth
        self.reference_model = reference_model

    def _thresholds_for(self, model: TrainedModel) -> list[DecisionThresholds]:
        thresholds = self.precision_thresholds.get(model.name, [])
        if not thresholds:
            raise KeyError(f"no calibrated thresholds for model {model.name!r}")
        return thresholds

    def build(self, models: list[TrainedModel],
              include_reference_tail: bool = True) -> list[Cascade]:
        """Enumerate all cascades up to ``max_depth`` (plus reference tails)."""
        if not models:
            raise ValueError("models must be non-empty")
        cascades: list[Cascade] = []
        self._extend(models, (), cascades, include_reference_tail)
        return cascades

    def _extend(self, models: list[TrainedModel],
                prefix: tuple[CascadeLevel, ...],
                output: list[Cascade],
                include_reference_tail: bool) -> None:
        depth_so_far = len(prefix)
        used = {level.model.name for level in prefix}

        if depth_so_far >= 1 and include_reference_tail and self.reference_model is not None:
            output.append(Cascade(prefix + (CascadeLevel(self.reference_model, None),)))

        if depth_so_far >= self.max_depth:
            return

        for model in models:
            if model.name in used or model.is_reference:
                continue
            # This model as the cascade's final (always-accept) level.
            output.append(Cascade(prefix + (CascadeLevel(model, None),)))
            # This model as an intermediate level, at every precision target.
            for thresholds in self._thresholds_for(model):
                self._extend(models,
                             prefix + (CascadeLevel(model, thresholds),),
                             output, include_reference_tail)
