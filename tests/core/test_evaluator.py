"""Tests for the cached-prediction cascade evaluator."""

import numpy as np
import pytest

from repro.core.cascade import Cascade, CascadeBuilder, CascadeLevel
from repro.core.evaluator import (
    ModelPredictionCache,
    evaluate_cascade,
    evaluate_cascades,
    expected_cost,
)
from repro.core.model import TrainedModel
from repro.core.pareto import is_dominated
from repro.core.selector import select_fastest, select_most_accurate
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.core.thresholds import DecisionThresholds
from repro.costs.device import DeviceProfile
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import ARCHIVE, INFER_ONLY
from repro.transforms.spec import TransformSpec

DEVICE = DeviceProfile("test", flops_per_second=1e9,
                       transform_seconds_per_value=1e-8,
                       inference_overhead_s=1e-5)


def make_model(name, resolution=8, mode="gray", seed=0):
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(resolution, mode))
    network = spec.build(rng=np.random.default_rng(seed))
    return TrainedModel(name=name, network=network, transform=spec.transform,
                        architecture=spec.architecture)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    models = [make_model("a", 8, "gray", 1), make_model("b", 8, "rgb", 2),
              make_model("c", 16, "gray", 3)]
    images = rng.random((40, 16, 16, 3))
    labels = rng.integers(0, 2, 40)
    cache = ModelPredictionCache.from_models(models, images, labels)
    thresholds = {m.name: [DecisionThresholds(0.3, 0.7, 0.95)] for m in models}
    profiler = CostProfiler(DEVICE, INFER_ONLY, source_resolution=16)
    return models, images, labels, cache, thresholds, profiler


class TestModelPredictionCache:
    def test_contains_all_models(self, setup):
        models, _, _, cache, _, _ = setup
        assert len(cache) == 3
        assert all(model in cache for model in models)

    def test_cached_probs_match_direct_prediction(self, setup):
        models, images, _, cache, _, _ = setup
        direct = models[0].predict_proba(images)
        np.testing.assert_allclose(cache.get(models[0]), direct)

    def test_missing_model_raises(self, setup):
        _, _, _, cache, _, _ = setup
        with pytest.raises(KeyError):
            cache.get(make_model("unknown"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelPredictionCache({"m": np.zeros(3)}, np.zeros(4))


class TestEvaluateCascade:
    def test_simulated_accuracy_matches_real_execution(self, setup):
        """The core soundness check: simulation == actually running the cascade."""
        models, images, labels, cache, thresholds, profiler = setup
        cascade = Cascade((CascadeLevel(models[0], thresholds["a"][0]),
                           CascadeLevel(models[2], None)))
        evaluation = evaluate_cascade(cascade, cache, profiler)
        executed = cascade.classify(images)
        real_accuracy = float((executed == labels).mean())
        assert evaluation.accuracy == pytest.approx(real_accuracy)

    def test_level_fractions_monotone_nonincreasing(self, setup):
        models, _, _, cache, thresholds, profiler = setup
        cascade = Cascade((CascadeLevel(models[0], thresholds["a"][0]),
                           CascadeLevel(models[1], thresholds["b"][0]),
                           CascadeLevel(models[2], None)))
        evaluation = evaluate_cascade(cascade, cache, profiler)
        fractions = evaluation.level_fractions
        assert fractions[0] == 1.0
        assert all(fractions[i] >= fractions[i + 1]
                   for i in range(len(fractions) - 1))

    def test_cascade_cost_at_most_sum_of_models(self, setup):
        models, _, _, cache, thresholds, profiler = setup
        cascade = Cascade((CascadeLevel(models[0], thresholds["a"][0]),
                           CascadeLevel(models[2], None)))
        evaluation = evaluate_cascade(cascade, cache, profiler)
        full_cost = sum(
            expected_cost(Cascade((CascadeLevel(model, None),)), (1.0,),
                          profiler).total_s
            for model in (models[0], models[2]))
        assert evaluation.cost.total_s <= full_cost + 1e-12

    def test_shared_representation_charged_once(self, setup):
        """Two levels sharing one representation pay its handling cost once."""
        models, _, _, cache, thresholds, _ = setup
        profiler = CostProfiler(DEVICE, ARCHIVE, source_resolution=16)
        shared = Cascade((CascadeLevel(models[0], thresholds["a"][0]),
                          CascadeLevel(make_model("a2", 8, "gray", 5), None)))
        cache2 = ModelPredictionCache.from_models(
            list(shared.models), np.random.default_rng(1).random((20, 16, 16, 3)),
            np.random.default_rng(1).integers(0, 2, 20))
        evaluation = evaluate_cascade(shared, cache2, profiler)
        single_handling = profiler.data_handling_cost(models[0].transform).total_s
        handling_paid = evaluation.cost.load_s + evaluation.cost.transform_s
        assert handling_paid <= single_handling + 1e-12

    def test_empty_labels_raise(self, setup):
        models, _, _, _, thresholds, profiler = setup
        cascade = Cascade((CascadeLevel(models[0], None),))
        empty_cache = ModelPredictionCache({models[0].name: np.zeros(0)}, np.zeros(0))
        with pytest.raises(ValueError):
            evaluate_cascade(cascade, empty_cache, profiler)


class TestEvaluatedCascadeSet:
    def test_frontier_points_are_nondominated(self, setup):
        models, _, _, cache, thresholds, profiler = setup
        builder = CascadeBuilder(thresholds, max_depth=2)
        cascades = builder.build(models, include_reference_tail=False)
        evaluated = evaluate_cascades(cascades, cache, profiler)
        points = evaluated.points()
        for evaluation in evaluated.frontier():
            others = [p for p in points if p != evaluation.point()]
            assert not is_dominated(evaluation.point(), others) \
                or evaluation.point() in others

    def test_best_and_fastest(self, setup):
        models, _, _, cache, thresholds, profiler = setup
        builder = CascadeBuilder(thresholds, max_depth=2)
        evaluated = evaluate_cascades(builder.build(models, False), cache, profiler)
        best = select_most_accurate(evaluated.evaluations)
        fastest = select_fastest(evaluated.evaluations)
        assert best.accuracy == max(e.accuracy for e in evaluated.evaluations)
        assert fastest.throughput == max(e.throughput for e in evaluated.evaluations)

    def test_accuracy_range_ordering(self, setup):
        models, _, _, cache, thresholds, profiler = setup
        builder = CascadeBuilder(thresholds, max_depth=1)
        evaluated = evaluate_cascades(builder.build(models, False), cache, profiler)
        low, high = evaluated.accuracy_range()
        assert low <= high

    def test_empty_cascade_list_raises(self, setup):
        _, _, _, cache, _, profiler = setup
        with pytest.raises(ValueError):
            evaluate_cascades([], cache, profiler)
