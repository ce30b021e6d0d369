"""Tests for the residual block composite layer."""

import numpy as np
import pytest

from repro.nn.blocks import ResidualBlock
from repro.nn.layers import Dense, Flatten, GlobalAveragePool, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.train import evaluate_accuracy, fit


def test_forward_shape_same_channels():
    block = ResidualBlock(4, 4)
    x = np.random.default_rng(0).random((2, 6, 6, 4))
    assert block.forward(x).shape == (2, 6, 6, 4)


def test_forward_shape_projection():
    block = ResidualBlock(3, 8)
    x = np.random.default_rng(0).random((2, 6, 6, 3))
    assert block.forward(x).shape == (2, 6, 6, 8)
    assert block.project is not None


def test_no_projection_when_channels_match():
    assert ResidualBlock(4, 4).project is None


def test_params_exposed_for_optimizer():
    block = ResidualBlock(3, 8)
    assert "conv1.weight" in block.params
    assert "project.weight" in block.params
    assert block.num_parameters() > 0


def test_backward_populates_grads_and_shapes():
    rng = np.random.default_rng(1)
    block = ResidualBlock(3, 5, rng=rng)
    x = rng.standard_normal((2, 6, 6, 3))
    out = block.forward(x, training=True)
    grad = block.backward(np.ones_like(out))
    assert grad.shape == x.shape
    assert set(block.grads) == set(block.params)


def test_flops_larger_than_single_conv():
    block = ResidualBlock(3, 8)
    assert block.flops((10, 10, 3)) > block.conv1.flops((10, 10, 3))


def test_residual_network_trains():
    """A small residual classifier learns a simple bright-patch task."""
    rng = np.random.default_rng(2)
    x = rng.random((80, 8, 8, 3)) * 0.3
    y = rng.integers(0, 2, 80)
    x[y == 1, 2:6, 2:6, :] += 0.6
    net = Sequential([
        ResidualBlock(3, 6, rng=rng),
        GlobalAveragePool(),
        Dense(6, 8, rng=rng), ReLU(),
        Dense(8, 1, rng=rng), Sigmoid(),
    ], input_shape=(8, 8, 3))
    fit(net, x, y, epochs=10, batch_size=16, optimizer=Adam(0.03), rng=rng)
    assert evaluate_accuracy(net, x, y) >= 0.75


def test_output_shape_inference():
    block = ResidualBlock(3, 8)
    assert block.output_shape((12, 12, 3)) == (12, 12, 8)


def test_set_parameters_reaches_sublayers():
    """Regression test: loading weights into a network containing composite
    blocks must update the sublayers the forward pass actually uses."""
    x = np.random.default_rng(5).random((2, 6, 6, 3))
    source = Sequential([ResidualBlock(3, 4, rng=np.random.default_rng(1)),
                         GlobalAveragePool(), Dense(4, 1), Sigmoid()],
                        input_shape=(6, 6, 3))
    target = Sequential([ResidualBlock(3, 4, rng=np.random.default_rng(2)),
                         GlobalAveragePool(), Dense(4, 1), Sigmoid()],
                        input_shape=(6, 6, 3))
    assert not np.allclose(source.forward(x), target.forward(x))
    target.set_parameters(source.parameters())
    np.testing.assert_allclose(source.forward(x), target.forward(x))


def test_gradient_flows_through_skip_path():
    """With zeroed main-path weights the gradient still reaches the input."""
    rng = np.random.default_rng(3)
    block = ResidualBlock(4, 4, rng=rng)
    block.conv1.params["weight"][:] = 0.0
    block.conv2.params["weight"][:] = 0.0
    x = rng.standard_normal((1, 5, 5, 4))
    out = block.forward(x, training=True)
    grad = block.backward(np.ones_like(out))
    assert np.abs(grad).sum() > 0
