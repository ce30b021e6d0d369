"""Tests for the gradient-descent optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.optimizers import Adam


def make_layer_with_grad(grad_value=1.0):
    layer = Dense(2, 2)
    layer.params["weight"] = np.zeros((2, 2))
    layer.params["bias"] = np.zeros(2)
    layer.grads["weight"] = np.full((2, 2), grad_value)
    layer.grads["bias"] = np.full(2, grad_value)
    return layer


class TestAdam:
    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_learning_rate(self, value):
        # NaN passed the old `learning_rate <= 0` check and trained NaN weights.
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            Adam(learning_rate=value)

    @pytest.mark.parametrize("value", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_bad_epsilon(self, value):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            Adam(epsilon=value)

    def test_skips_layers_without_grads(self):
        layer = Dense(2, 2)
        before = layer.params["weight"].copy()
        Adam(0.1).step([layer])
        np.testing.assert_allclose(layer.params["weight"], before)

    def test_step_magnitude_bounded_by_learning_rate(self):
        layer = make_layer_with_grad(100.0)
        Adam(learning_rate=0.01).step([layer])
        assert np.all(np.abs(layer.params["weight"]) <= 0.011)

    def test_converges_on_quadratic(self):
        """Adam drives a simple quadratic objective toward its minimum."""
        layer = Dense(1, 1)
        layer.params["weight"] = np.array([[5.0]])
        layer.params["bias"] = np.array([0.0])
        optimizer = Adam(learning_rate=0.2)
        for _ in range(200):
            layer.grads["weight"] = 2 * layer.params["weight"]
            layer.grads["bias"] = np.zeros(1)
            optimizer.step([layer])
        assert abs(layer.params["weight"][0, 0]) < 0.05

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
