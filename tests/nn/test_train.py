"""Tests for the training loop."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Sigmoid
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.train import EarlyStopping, evaluate_accuracy, fit, iterate_minibatches


def linearly_separable(n, rng):
    x = rng.standard_normal((n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


def make_logistic(rng):
    return Sequential([Dense(4, 1, rng=rng), Sigmoid()], input_shape=(4,))


class TestIterateMinibatches:
    def test_covers_all_examples(self):
        rng = np.random.default_rng(0)
        x = np.arange(10).reshape(10, 1).astype(float)
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_minibatches(x, y, batch_size=3, rng=rng):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_batch_sizes(self):
        rng = np.random.default_rng(0)
        x = np.zeros((10, 1))
        y = np.zeros(10)
        sizes = [xb.shape[0] for xb, _ in iterate_minibatches(x, y, 4, rng)]
        assert sizes == [4, 4, 2]


class TestFit:
    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(1)
        x, y = linearly_separable(200, rng)
        net = make_logistic(rng)
        history = fit(net, x, y, epochs=15, batch_size=32,
                      optimizer=Adam(learning_rate=0.1), rng=rng)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.train_accuracy[-1] > 0.85

    def test_validation_metrics_recorded(self):
        rng = np.random.default_rng(2)
        x, y = linearly_separable(100, rng)
        xv, yv = linearly_separable(50, rng)
        net = make_logistic(rng)
        history = fit(net, x, y, x_val=xv, y_val=yv, epochs=3, rng=rng)
        assert len(history.val_loss) == 3
        assert len(history.val_accuracy) == 3

    def test_empty_training_set_raises(self):
        net = make_logistic(np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(net, np.zeros((0, 4)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        net = make_logistic(np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(net, np.zeros((4, 4)), np.zeros(3))

    def test_early_stopping_requires_validation(self):
        net = make_logistic(np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(net, np.zeros((4, 4)), np.zeros(4), early_stopping=EarlyStopping())

    def test_early_stopping_can_cut_training_short(self):
        rng = np.random.default_rng(3)
        x, y = linearly_separable(60, rng)
        net = make_logistic(rng)
        history = fit(net, x, y, x_val=x, y_val=y, epochs=50,
                      early_stopping=EarlyStopping(patience=1, min_delta=10.0),
                      rng=rng)
        assert len(history.train_loss) < 50


class TestEvaluateAccuracy:
    def test_empty_set_is_nan(self):
        net = make_logistic(np.random.default_rng(0))
        assert np.isnan(evaluate_accuracy(net, np.zeros((0, 4)), np.zeros(0)))

    def test_perfect_classifier(self):
        net = Sequential([Dense(1, 1), Sigmoid()], input_shape=(1,))
        net.layers[0].params["weight"] = np.array([[10.0]])
        net.layers[0].params["bias"] = np.array([0.0])
        x = np.array([[-1.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        assert evaluate_accuracy(net, x, y) == 1.0


class TestEarlyStopping:
    def test_stops_after_patience_without_improvement(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        assert not stopper.should_stop(1.0)
        assert not stopper.should_stop(1.0)
        assert stopper.should_stop(1.0)

    def test_resets_on_improvement(self):
        stopper = EarlyStopping(patience=2, min_delta=0.01)
        assert not stopper.should_stop(1.0)
        assert not stopper.should_stop(1.0)
        assert not stopper.should_stop(0.5)
        assert not stopper.should_stop(0.5)
        assert stopper.should_stop(0.5)
