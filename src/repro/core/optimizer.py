"""The TAHOMA optimizer: system initialization and query-time selection.

This module ties the pieces of Figure 2 together.  *System initialization*
(per binary predicate) trains the model set ``M`` over the ``A x F`` design
space, calibrates per-model decision thresholds on the configuration set,
caches per-model predictions on the evaluation set and enumerates the cascade
set ``C``.  *Query time* evaluates ``C`` under the current deployment
scenario's cost profile and computes the Pareto frontier — once per cost
profile, then remembered — and selects the cascade matching the user's
constraints from it; the selected cascade is then executed over the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cascade import Cascade, CascadeBuilder
from repro.core.evaluator import (
    CascadeEvaluation,
    EvaluatedCascadeSet,
    ModelPredictionCache,
    evaluate_cascades,
)
from repro.core.model import TrainedModel
from repro.core.selector import UserConstraints, select_cascade
from repro.core.spec import (
    ArchitectureSpec,
    ModelSpec,
    build_model_grid,
    standard_architecture_grid,
)
from repro.core.thresholds import (
    PAPER_PRECISION_TARGETS,
    DecisionThresholds,
    calibrate_thresholds,
)
from repro.core.trainer import ModelTrainer, TrainingConfig
from repro.costs.profiler import CostProfiler
from repro.data.corpus import PredicateDataSplits
from repro.transforms.spec import TransformSpec, standard_transform_grid

__all__ = ["TahomaConfig", "TahomaOptimizer"]


@dataclass(frozen=True)
class TahomaConfig:
    """Configuration of one TAHOMA optimizer instance.

    The defaults follow the paper's grids; benchmarks pass reduced grids so
    the whole pipeline runs on CPU in minutes.
    """

    architectures: tuple[ArchitectureSpec, ...] = tuple(standard_architecture_grid())
    transforms: tuple[TransformSpec, ...] = tuple(standard_transform_grid())
    precision_targets: tuple[float, ...] = PAPER_PRECISION_TARGETS
    max_depth: int = 2
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self) -> None:
        if not self.architectures or not self.transforms:
            raise ValueError("architectures and transforms must be non-empty")
        if not self.precision_targets:
            raise ValueError("precision_targets must be non-empty")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")

    def model_specs(self) -> list[ModelSpec]:
        """The valid points of the ``A x F`` design space."""
        return build_model_grid(list(self.architectures), list(self.transforms))


class TahomaOptimizer:
    """End-to-end TAHOMA pipeline for one binary predicate."""

    def __init__(self, config: TahomaConfig | None = None) -> None:
        self.config = config or TahomaConfig()
        self.models: list[TrainedModel] = []
        self.reference_model: TrainedModel | None = None
        self.thresholds: dict[str, list[DecisionThresholds]] = {}
        self.cache: ModelPredictionCache | None = None
        self.cascades: list[Cascade] = []
        # (evaluated cascade set, its frontier) per cost profile: ``_evaluated``.
        self._memo: dict[tuple, tuple[EvaluatedCascadeSet,
                                      list[CascadeEvaluation]]] = {}
        self._initialized = False

    # -- system initialization --------------------------------------------
    def initialize(self, splits: PredicateDataSplits,
                   reference_model: TrainedModel | None = None,
                   rng: np.random.Generator | None = None) -> None:
        """Run the full initialization pipeline for one predicate.

        Parameters
        ----------
        splits:
            Train / configuration / evaluation datasets for the predicate.
        reference_model:
            Optional expensive classifier (the ResNet50 stand-in) used as the
            cascades' final level and as a baseline.
        rng:
            Random generator controlling training.
        """
        rng = rng or np.random.default_rng(self.config.training.seed)
        trainer = ModelTrainer(self.config.training)
        models = trainer.train_models(self.config.model_specs(),
                                      splits.train, rng=rng)
        self.initialize_with_models(models, splits,
                                    reference_model=reference_model)

    def initialize_with_models(self, models: list[TrainedModel],
                               splits: PredicateDataSplits,
                               reference_model: TrainedModel | None = None) -> None:
        """Initialize from an existing model pool (skipping training).

        :meth:`initialize` ends here once the pool is trained; the
        experiment harness calls it directly to evaluate several cascade-set
        variants (e.g. the Figure 10 transformation subsets) without
        retraining shared models.
        """
        if not models:
            raise ValueError("models must be non-empty")
        self.models = list(models)
        self.reference_model = reference_model
        self._calibrate_thresholds(splits)
        self.cache = ModelPredictionCache.from_models(
            self._threshold_models(), splits.eval.images, splits.eval.labels)
        self._build_cascades()
        self._initialized = True

    def _calibrate_thresholds(self, splits: PredicateDataSplits) -> None:
        """Calibrate (p_low, p_high) per model per precision target on the
        configuration split."""
        config = ModelPredictionCache.from_models(
            self._threshold_models(), splits.config.images,
            splits.config.labels)
        self.thresholds = {}
        for model in self._threshold_models():
            calibrated = []
            for target in self.config.precision_targets:
                calibration = calibrate_thresholds(
                    config.get(model), config.labels, precision_target=target)
                calibrated.append(calibration.thresholds)
            self.thresholds[model.name] = calibrated

    def _threshold_models(self) -> list[TrainedModel]:
        models = list(self.models)
        if self.reference_model is not None:
            models.append(self.reference_model)
        return models

    def _build_cascades(self) -> None:
        builder = CascadeBuilder(self.thresholds,
                                 max_depth=self.config.max_depth,
                                 reference_model=self.reference_model)
        self.cascades = builder.build(
            self.models,
            include_reference_tail=self.reference_model is not None)
        self._memo = {}

    # -- query time ---------------------------------------------------------
    def _require_initialized(self) -> None:
        if not self._initialized or self.cache is None:
            raise RuntimeError("optimizer not initialized; call initialize() first")

    def _evaluated(self, profiler: CostProfiler
                   ) -> tuple[EvaluatedCascadeSet, list[CascadeEvaluation]]:
        """The evaluated cascade set and its frontier, computed once per
        cost profile.

        The key is every value a profiler prices with, so another scenario,
        a calibrated device or a shard rendered at another resolution is
        simply another entry; only a new cascade set (``_build_cascades``)
        empties the memo.  Unlocked on purpose: threads that miss together
        compute equal values and one assignment wins.
        """
        self._require_initialized()
        key = (profiler.device, profiler.scenario, profiler.source_resolution,
               profiler.cost_resolution)
        entry = self._memo.get(key)
        if entry is None:
            evaluated = evaluate_cascades(self.cascades, self.cache, profiler)
            entry = self._memo[key] = (evaluated, evaluated.frontier())
        return entry

    def evaluate(self, profiler: CostProfiler) -> EvaluatedCascadeSet:
        """Evaluate every cascade under the given deployment cost profile."""
        return self._evaluated(profiler)[0]

    def frontier(self, profiler: CostProfiler) -> list[CascadeEvaluation]:
        """The Pareto-optimal cascades under the given cost profile."""
        return list(self._evaluated(profiler)[1])

    def select(self, profiler: CostProfiler,
               constraints: UserConstraints | None = None) -> CascadeEvaluation:
        """Pick the Pareto-optimal cascade matching the user's constraints."""
        constraints = constraints or UserConstraints()
        return select_cascade(self.frontier(profiler), constraints)

    def query(self, images: np.ndarray,
              cascade: Cascade | CascadeEvaluation) -> np.ndarray:
        """Execute a (selected) cascade over raw corpus images."""
        self._require_initialized()
        if isinstance(cascade, CascadeEvaluation):
            cascade = cascade.cascade
        return cascade.classify(images)

    # -- introspection -----------------------------------------------------
    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def n_cascades(self) -> int:
        return len(self.cascades)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TahomaOptimizer(models={self.n_models}, "
                f"cascades={self.n_cascades}, initialized={self._initialized})")
