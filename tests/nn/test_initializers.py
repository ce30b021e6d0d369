"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn.initializers import glorot_uniform, he_normal, zeros


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    weights = glorot_uniform((200, 100), fan_in=200, fan_out=100, rng=rng)
    limit = np.sqrt(6.0 / 300.0)
    assert weights.shape == (200, 100)
    assert weights.min() >= -limit and weights.max() <= limit
    # Roughly centered.
    assert abs(weights.mean()) < limit / 10


def test_he_normal_scale():
    rng = np.random.default_rng(1)
    weights = he_normal((500, 100), fan_in=500, rng=rng)
    expected_std = np.sqrt(2.0 / 500.0)
    assert weights.std() == pytest.approx(expected_std, rel=0.1)


def test_zeros():
    assert np.all(zeros((3, 4)) == 0.0)


def test_initializers_are_deterministic_given_rng():
    a = glorot_uniform((4, 4), 4, 4, np.random.default_rng(7))
    b = glorot_uniform((4, 4), 4, 4, np.random.default_rng(7))
    np.testing.assert_allclose(a, b)


def test_initializers_are_float64():
    assert glorot_uniform((2, 2), 2, 2, np.random.default_rng(0)).dtype == np.float64
    assert he_normal((2, 2), 2, np.random.default_rng(0)).dtype == np.float64
