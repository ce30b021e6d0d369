"""Tests for cascade selection against user constraints."""

import pytest

from repro.core.cascade import Cascade, CascadeLevel
from repro.core.evaluator import CascadeEvaluation
from repro.core.model import TrainedModel
from repro.core.selector import (
    UserConstraints,
    select_cascade,
    select_fastest,
    select_matching_accuracy,
    select_most_accurate,
)
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.costs.profiler import CostBreakdown
from repro.transforms.spec import TransformSpec

import numpy as np


def make_evaluation(accuracy, throughput, name="m"):
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "gray"))
    model = TrainedModel(name=name, network=spec.build(rng=np.random.default_rng(0)),
                         transform=spec.transform)
    cascade = Cascade((CascadeLevel(model, None),))
    return CascadeEvaluation(cascade=cascade, accuracy=accuracy,
                             cost=CostBreakdown(infer_s=1.0 / throughput),
                             level_fractions=(1.0,))


@pytest.fixture
def evaluations():
    return [make_evaluation(0.95, 100.0, "slow-accurate"),
            make_evaluation(0.90, 1000.0, "balanced"),
            make_evaluation(0.80, 5000.0, "fast-sloppy")]


class TestUserConstraints:
    def test_validation(self):
        with pytest.raises(ValueError):
            UserConstraints(max_accuracy_loss=1.5)
        with pytest.raises(ValueError):
            UserConstraints(min_throughput=-1.0)

    def test_defaults_allow_no_loss(self):
        assert UserConstraints().max_accuracy_loss is None

    def test_nan_bounds_rejected(self):
        # NaN fails every comparison, so a `< 0` check alone lets it through.
        with pytest.raises(ValueError):
            UserConstraints(min_throughput=float("nan"))
        with pytest.raises(ValueError):
            UserConstraints(max_accuracy_loss=float("nan"))


class TestSelectors:
    def test_most_accurate(self, evaluations):
        assert select_most_accurate(evaluations).accuracy == 0.95

    def test_fastest(self, evaluations):
        assert select_fastest(evaluations).throughput == 5000.0

    def test_fastest_with_floor(self, evaluations):
        chosen = select_fastest(evaluations, min_accuracy=0.85)
        assert chosen.accuracy == 0.90

    def test_fastest_unreachable_floor_raises(self, evaluations):
        with pytest.raises(ValueError):
            select_fastest(evaluations, min_accuracy=0.99)

    def test_matching_accuracy_picks_nearest_higher(self, evaluations):
        chosen = select_matching_accuracy(evaluations, target_accuracy=0.85)
        assert chosen.accuracy == 0.90

    def test_matching_accuracy_falls_back_to_best(self, evaluations):
        chosen = select_matching_accuracy(evaluations, target_accuracy=0.99)
        assert chosen.accuracy == 0.95

    def test_empty_lists_raise(self):
        with pytest.raises(ValueError):
            select_most_accurate([])
        with pytest.raises(ValueError):
            select_fastest([])
        with pytest.raises(ValueError):
            select_matching_accuracy([], 0.5)
        with pytest.raises(ValueError):
            select_cascade([], UserConstraints())


class TestSelectCascade:
    def test_no_loss_budget_keeps_best_accuracy(self, evaluations):
        chosen = select_cascade(evaluations, UserConstraints())
        assert chosen.accuracy == 0.95

    def test_loss_budget_trades_for_throughput(self, evaluations):
        # 10% relative loss from 0.95 allows accuracy down to 0.855.
        chosen = select_cascade(evaluations,
                                UserConstraints(max_accuracy_loss=0.10))
        assert chosen.accuracy == 0.90
        assert chosen.throughput == 1000.0

    def test_large_budget_takes_fastest(self, evaluations):
        chosen = select_cascade(evaluations,
                                UserConstraints(max_accuracy_loss=0.5))
        assert chosen.throughput == 5000.0

    def test_throughput_floor_filters(self, evaluations):
        chosen = select_cascade(evaluations,
                                UserConstraints(max_accuracy_loss=0.10,
                                                min_throughput=900.0))
        assert chosen.throughput >= 900.0

    def test_unreachable_floor_falls_back_gracefully(self, evaluations):
        chosen = select_cascade(evaluations,
                                UserConstraints(max_accuracy_loss=0.0,
                                                min_throughput=10_000.0))
        assert chosen.accuracy == 0.95
