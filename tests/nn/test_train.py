"""Tests for the training loop."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Sigmoid
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.train import evaluate_accuracy, fit, iterate_minibatches


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
        losses = fit(net, x, y, epochs=15, batch_size=32,
                     optimizer=Adam(learning_rate=0.1), rng=rng)
        assert losses[-1] < losses[0]
        assert evaluate_accuracy(net, x, y) > 0.85

    def test_returns_one_mean_loss_per_epoch(self):
        rng = np.random.default_rng(2)
        x, y = linearly_separable(50, rng)
        losses = fit(make_logistic(rng), x, y, epochs=3, batch_size=16,
                     rng=rng)
        assert len(losses) == 3
        assert all(type(value) is float and np.isfinite(value)
                   for value in losses)

    def test_empty_training_set_raises(self):
        net = make_logistic(np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(net, np.zeros((0, 4)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        net = make_logistic(np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(net, np.zeros((4, 4)), np.zeros(3))

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_rejects_epochs_below_one(self, epochs):
        # Zero epochs used to return the untrained network as if trained.
        net = make_logistic(np.random.default_rng(0))
        before = net.layers[0].params["weight"].copy()
        with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
            fit(net, np.zeros((4, 4)), np.zeros(4), epochs=epochs)
        np.testing.assert_array_equal(net.layers[0].params["weight"], before)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_rejects_batch_size_below_one(self, batch_size):
        # Zero used to die inside range() with "arg 3 must not be zero".
        net = make_logistic(np.random.default_rng(0))
        with pytest.raises(ValueError,
                           match=f"batch_size must be >= 1, got {batch_size}"):
            fit(net, np.zeros((4, 4)), np.zeros(4), batch_size=batch_size)


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
