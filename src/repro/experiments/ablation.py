"""Ablation experiments: Figure 10 (input transformations) and Figure 11 (depth)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.alc import average_throughput
from repro.core.cascade import CascadeBuilder
from repro.core.evaluator import evaluate_cascades
from repro.core.model import TrainedModel
from repro.experiments.workspace import ExperimentWorkspace, PredicateWorkspace
from repro.transforms.spec import transform_subsets

__all__ = ["TransformAblationRow", "transform_ablation", "DepthRow", "depth_analysis"]

#: The transformation subsets of Figure 10, in the paper's plotting order.
TRANSFORM_SUBSETS = ("none", "color", "resize", "full")


@dataclass
class TransformAblationRow:
    """Figure 10: one predicate's average optimal throughput per subset."""

    category: str
    subset_throughputs: dict[str, float]


def _models_for_subset(predicate: PredicateWorkspace,
                       allowed_names: set[str]) -> list[TrainedModel]:
    return [model for model in predicate.optimizer.models
            if model.transform.name in allowed_names]


def transform_ablation(workspace: ExperimentWorkspace,
                       scenario_name: str = "camera",
                       categories: list[str] | None = None
                       ) -> list[TransformAblationRow]:
    """Figure 10: average throughput of optimal cascades per transformation subset.

    For each predicate, cascade sets are rebuilt from the subset of already-
    trained models whose representation belongs to the subset (None / Color
    Variations / Resizing / Full) and compared by ALC-average throughput over
    the Full set's accuracy range, exactly as in the paper.
    """
    categories = categories or workspace.category_names()
    profiler = workspace.profiler(scenario_name)
    subsets = transform_subsets(workspace.scale.resolutions,
                                workspace.scale.color_modes)
    subset_names = {name: {spec.name for spec in specs}
                    for name, specs in subsets.items()}

    rows = []
    for category in categories:
        predicate = workspace.predicates[category]
        builder = CascadeBuilder(predicate.optimizer.thresholds,
                                 max_depth=workspace.scale.max_depth,
                                 reference_model=predicate.reference_model)

        evaluations = {}
        for subset_name in TRANSFORM_SUBSETS:
            models = _models_for_subset(predicate, subset_names[subset_name])
            if not models:
                evaluations[subset_name] = None
                continue
            cascades = builder.build(models, include_reference_tail=True)
            evaluations[subset_name] = evaluate_cascades(
                cascades, predicate.optimizer.cache, profiler)

        full_eval = evaluations["full"]
        accuracy_range = full_eval.accuracy_range()
        throughputs = {}
        for subset_name in TRANSFORM_SUBSETS:
            evaluation = evaluations[subset_name]
            if evaluation is None:
                throughputs[subset_name] = 0.0
                continue
            throughputs[subset_name] = average_throughput(
                evaluation.frontier_points(), accuracy_range)
        rows.append(TransformAblationRow(category=category,
                                         subset_throughputs=throughputs))
    return rows


@dataclass
class DepthRow:
    """Figure 11: one cascade-depth configuration's frontier statistics."""

    label: str
    max_depth: int
    with_reference_tail: bool
    n_cascades: int
    average_throughput: float
    frontier: list[tuple[float, float]]


def _select_depth_pool(predicate: PredicateWorkspace, pool_size: int
                       ) -> list[TrainedModel]:
    """A deterministic subset of models, largest first by training accuracy.

    The full three-level cross product over every model is intractable (the
    paper makes the same point: ~45M cascades, 40 minutes); like the paper we
    demonstrate the diminishing returns on a restricted pool.
    """
    ranked = sorted(predicate.optimizer.models,
                    key=lambda m: (m.train_accuracy, m.name), reverse=True)
    return ranked[:pool_size]


def depth_analysis(workspace: ExperimentWorkspace, category: str,
                   scenario_name: str = "camera", max_depth: int = 3,
                   pool_size: int = 10) -> list[DepthRow]:
    """Figure 11: Pareto frontier evolution as maximum cascade depth grows."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    predicate = workspace.predicates[category]
    profiler = workspace.profiler(scenario_name)
    pool = _select_depth_pool(predicate, pool_size)

    rows = []
    accuracy_range: tuple[float, float] | None = None
    for depth in range(1, max_depth + 1):
        for with_tail in (False, True):
            builder = CascadeBuilder(
                predicate.optimizer.thresholds, max_depth=depth,
                reference_model=predicate.reference_model if with_tail else None)
            cascades = builder.build(pool, include_reference_tail=with_tail)
            evaluation = evaluate_cascades(cascades, predicate.optimizer.cache,
                                           profiler)
            if accuracy_range is None:
                accuracy_range = evaluation.accuracy_range()
            label = f"{depth} level" + (" + reference" if with_tail else "")
            rows.append(DepthRow(
                label=label, max_depth=depth, with_reference_tail=with_tail,
                n_cascades=len(cascades),
                average_throughput=average_throughput(
                    evaluation.frontier_points(), accuracy_range),
                frontier=evaluation.frontier_points()))
    return rows
