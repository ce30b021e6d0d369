"""Tests for loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import BinaryCrossEntropy


class TestBinaryCrossEntropy:
    def test_perfect_predictions_have_low_loss(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.array([0.999, 0.001]), np.array([1, 0]))
        assert value < 0.01

    def test_wrong_predictions_have_high_loss(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.array([0.01, 0.99]), np.array([1, 0]))
        assert value > 2.0

    def test_handles_extreme_probabilities_without_nan(self):
        loss = BinaryCrossEntropy()
        value = loss.forward(np.array([0.0, 1.0]), np.array([1, 0]))
        assert np.isfinite(value)

    def test_column_vector_targets_are_aligned(self):
        loss = BinaryCrossEntropy()
        pred = np.array([[0.8], [0.2]])
        assert loss.forward(pred, np.array([1, 0])) == pytest.approx(
            loss.forward(pred, np.array([[1], [0]])))

    def test_gradient_sign(self):
        """Gradient is negative when the prediction should increase."""
        loss = BinaryCrossEntropy()
        grad = loss.backward(np.array([0.3]), np.array([1.0]))
        assert grad[0] < 0
        grad = loss.backward(np.array([0.7]), np.array([0.0]))
        assert grad[0] > 0

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        loss = BinaryCrossEntropy()
        predictions = rng.uniform(0.1, 0.9, size=(6, 1))
        targets = rng.integers(0, 2, size=(6, 1)).astype(float)
        analytic = loss.backward(predictions, targets)
        eps = 1e-6
        numeric = np.zeros_like(predictions)
        for i in range(predictions.size):
            p = predictions.copy()
            p.ravel()[i] += eps
            plus = loss.forward(p, targets)
            p.ravel()[i] -= 2 * eps
            minus = loss.forward(p, targets)
            numeric.ravel()[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20),
       st.data())
def test_bce_is_nonnegative_property(probabilities, data):
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(probabilities),
                                max_size=len(probabilities)))
    loss = BinaryCrossEntropy()
    assert loss.forward(np.array(probabilities), np.array(labels)) >= 0.0
