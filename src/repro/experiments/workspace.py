"""Experiment workspaces: trained model pools shared by all figures.

Building the model pool (training ~60 models plus the reference classifier
per predicate) is by far the most expensive part of the reproduction, and
every figure reuses the same pool under different cost profiles or cascade
subsets.  The workspace is therefore built once per scale and cached at
process level; benchmarks and examples obtain it through
:func:`get_workspace`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import TrainedModel
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.selector import UserConstraints
from repro.costs.device import DeviceProfile, calibrate_device
from repro.costs.profiler import CostProfiler
from repro.data.categories import get_category
from repro.data.corpus import ImageCorpus, PredicateDataSplits, build_predicate_splits
from repro.db.database import VisualDatabase, initialize_predicate
from repro.experiments.presets import ExperimentScale, simulation_scenarios

__all__ = ["PredicateWorkspace", "ExperimentWorkspace", "build_workspace",
           "get_workspace"]


@dataclass
class PredicateWorkspace:
    """Everything initialized for one binary predicate."""

    category_name: str
    splits: PredicateDataSplits
    optimizer: TahomaOptimizer
    reference_model: TrainedModel

    @property
    def models(self) -> list[TrainedModel]:
        return self.optimizer.models


@dataclass
class ExperimentWorkspace:
    """Initialized predicates plus the calibrated device for one scale."""

    scale: ExperimentScale
    predicates: dict[str, PredicateWorkspace]
    device: DeviceProfile

    def profilers(self) -> dict[str, CostProfiler]:
        """One calibrated cost profiler per deployment scenario."""
        return {name: CostProfiler(self.device, scenario,
                                   source_resolution=self.scale.image_size,
                                   cost_resolution=self.scale.cost_resolution)
                for name, scenario in simulation_scenarios().items()}

    def profiler(self, scenario_name: str) -> CostProfiler:
        """The profiler for one named scenario."""
        profilers = self.profilers()
        try:
            return profilers[scenario_name]
        except KeyError:
            raise KeyError(f"unknown scenario {scenario_name!r}; "
                           f"available: {sorted(profilers)}") from None

    def category_names(self) -> list[str]:
        return list(self.predicates)

    def database(self, scenario_name: str = "infer_only",
                 corpus: "ImageCorpus | dict[str, ImageCorpus] | None" = None,
                 constraints: UserConstraints | None = None) -> VisualDatabase:
        """A :class:`~repro.db.VisualDatabase` over this workspace's predicates.

        The facade reuses the workspace's trained optimizers and calibrated
        device (no retraining, no re-calibration), so experiments and
        benchmarks can issue SQL queries against the exact model pools the
        figures were produced from.  ``corpus`` may be a single corpus
        (registered as the table ``images``) or a ``{name: corpus}`` mapping
        opening a multi-camera catalog (``SELECT * FROM <table>`` /
        ``FROM all_cameras``).
        """
        db = VisualDatabase(
            corpus,
            device=self.device,
            scenario=simulation_scenarios()[scenario_name],
            cost_resolution=self.scale.cost_resolution,
            source_resolution=self.scale.image_size,
            calibrate_target_fps=None,
            default_constraints=constraints)
        reference_params = {"base_width": self.scale.reference_width,
                            "n_stages": self.scale.reference_stages,
                            "blocks_per_stage": self.scale.reference_blocks}
        for name, predicate in self.predicates.items():
            db.register_optimizer(name, predicate.optimizer,
                                  reference_params=reference_params)
        return db


def build_predicate_workspace(scale: ExperimentScale, category_name: str,
                              rng: np.random.Generator) -> PredicateWorkspace:
    """Render data, train the model pool and initialize one predicate."""
    category = get_category(category_name)
    splits = build_predicate_splits(
        category, n_train=scale.n_train, n_config=scale.n_config,
        n_eval=scale.n_eval, image_size=scale.image_size, rng=rng)

    config = TahomaConfig(
        architectures=tuple(scale.architectures()),
        transforms=tuple(scale.transforms()),
        precision_targets=scale.precision_targets,
        max_depth=scale.max_depth,
        training=scale.training)
    optimizer, reference = initialize_predicate(
        splits, config,
        reference_params={"epochs": scale.reference_epochs,
                          "base_width": scale.reference_width,
                          "n_stages": scale.reference_stages,
                          "blocks_per_stage": scale.reference_blocks},
        reference_name=f"reference-{category_name}", rng=rng)

    return PredicateWorkspace(category_name=category_name, splits=splits,
                              optimizer=optimizer, reference_model=reference)


def build_workspace(scale: ExperimentScale,
                    categories: tuple[str, ...] | None = None,
                    seed: int | None = None) -> ExperimentWorkspace:
    """Build the full workspace for a scale (all predicates)."""
    categories = categories if categories is not None else scale.categories
    if not categories:
        raise ValueError("categories must be non-empty")
    seed = seed if seed is not None else scale.seed

    predicates: dict[str, PredicateWorkspace] = {}
    reference_flops: list[int] = []
    for index, name in enumerate(categories):
        rng = np.random.default_rng(seed + index)
        workspace = build_predicate_workspace(scale, name, rng)
        predicates[name] = workspace
        reference_flops.append(workspace.reference_model.flops)

    # Calibrate the device so the reference classifier lands near the paper's
    # ~75 fps anchor; all reference networks share an architecture, so any
    # predicate's FLOP count works.
    device = calibrate_device(scale.device, reference_flops[0],
                              target_fps=scale.reference_target_fps)
    return ExperimentWorkspace(scale=scale, predicates=predicates, device=device)


_WORKSPACE_CACHE: dict[tuple, ExperimentWorkspace] = {}


def get_workspace(scale: ExperimentScale,
                  categories: tuple[str, ...] | None = None,
                  seed: int | None = None) -> ExperimentWorkspace:
    """Build (or fetch from the process-level cache) a workspace."""
    key = (scale.name, categories if categories is not None else scale.categories,
           seed if seed is not None else scale.seed)
    if key not in _WORKSPACE_CACHE:
        _WORKSPACE_CACHE[key] = build_workspace(scale, categories, seed)
    return _WORKSPACE_CACHE[key]
