"""Batched-vs-per-row equivalence: the batch dimension must be inert.

Every registered layer, every representation transform and the full
cascade classify path must produce, for a batch, exactly what it produces
row by row, with the batch axis and the dtype intact — across batch sizes
including the degenerate batch of one.
"""

import numpy as np
import pytest

from repro.core.cascade import Cascade, CascadeLevel
from repro.core.model import TrainedModel
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.core.thresholds import DecisionThresholds
from repro.nn.blocks import ResidualBlock
from repro.nn.layers import (Conv2D, Dense, Flatten, GlobalAveragePool,
                             MaxPool2D, ReLU, Sigmoid)
from repro.nn.network import Sequential
from repro.transforms.spec import TransformSpec, standard_transform_grid

BATCH_SIZES = (1, 2, 7, 64)


def _layer_cases():
    rng = np.random.default_rng(7)
    return [
        ("conv2d", Conv2D(3, 4, kernel_size=3, rng=rng), (6, 6, 3)),
        ("maxpool", MaxPool2D(2), (6, 6, 3)),
        ("gap", GlobalAveragePool(), (6, 6, 3)),
        ("flatten", Flatten(), (2, 3, 2)),
        ("dense", Dense(12, 5, rng=rng), (12,)),
        ("relu", ReLU(), (12,)),
        ("sigmoid", Sigmoid(), (12,)),
        ("residual", ResidualBlock(3, 5), (6, 6, 3)),
    ]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "layer,row_shape",
    [pytest.param(layer, shape, id=name)
     for name, layer, shape in _layer_cases()])
def test_layer_batch_matches_per_row(layer, row_shape, batch_size):
    x = np.random.default_rng(batch_size).normal(size=(batch_size, *row_shape))
    batched = layer.forward(x)
    per_row = np.concatenate(
        [layer.forward(x[i:i + 1]) for i in range(batch_size)], axis=0)
    assert batched.shape[0] == batch_size
    np.testing.assert_allclose(batched, per_row, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "spec", standard_transform_grid((8, 16), ("rgb", "red", "gray")),
    ids=str)
def test_apply_batch_matches_per_row(spec, batch_size):
    images = np.random.default_rng(batch_size).random((batch_size, 16, 16, 3))
    batched = spec.apply_batch(images)
    per_row = np.concatenate(
        [spec.apply_batch(images[i:i + 1]) for i in range(batch_size)])
    assert batched.shape == (batch_size, *spec.shape)
    assert batched.dtype == np.float64
    np.testing.assert_allclose(batched, per_row, rtol=1e-10, atol=1e-12)


def _make_cascade():
    rng = np.random.default_rng(11)
    levels = []
    for resolution, mode in ((8, "gray"), (8, "rgb")):
        spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(resolution, mode))
        network = spec.build(rng=rng)
        model = TrainedModel(name=f"m-{mode}", network=network,
                             transform=spec.transform,
                             architecture=spec.architecture, kind="specialized")
        levels.append(CascadeLevel(model, DecisionThresholds(0.3, 0.7, 0.95)))
    levels[-1] = CascadeLevel(levels[-1].model, None)  # terminal level
    return Cascade(tuple(levels))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_cascade_classify_batch_matches_per_row(batch_size):
    cascade = _make_cascade()
    images = np.random.default_rng(batch_size).random((batch_size, 16, 16, 3))
    batched = cascade.classify(images)
    per_row = np.concatenate(
        [cascade.classify(images[i:i + 1]) for i in range(batch_size)])
    assert batched.shape == (batch_size,)
    assert batched.dtype == np.int64
    np.testing.assert_array_equal(batched, per_row)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_model_predict_batch_matches_per_row(batch_size):
    model = _make_cascade().levels[0].model
    images = np.random.default_rng(batch_size).random((batch_size, 16, 16, 3))
    batched = model.predict(images)
    per_row = np.concatenate(
        [model.predict(images[i:i + 1]) for i in range(batch_size)])
    assert batched.shape == (batch_size,)
    assert batched.dtype == np.int64
    np.testing.assert_array_equal(batched, per_row)


class TestBatchOfOneRegression:
    """A batch of one must keep its batch dimension (never collapse to 0-d)."""

    def _net(self, out_units):
        rng = np.random.default_rng(3)
        return Sequential([
            Conv2D(3, 4, 3, rng=rng), ReLU(), MaxPool2D(2),
            Flatten(), Dense(4 * 4 * 4, out_units, rng=rng), Sigmoid(),
        ], input_shape=(8, 8, 3))

    def test_predict_proba_single_output_batch_of_one(self):
        net = self._net(1)
        out = net.predict_proba(np.random.default_rng(0).random((1, 8, 8, 3)))
        assert out.shape == (1,)

    def test_predict_proba_two_outputs_batch_of_one(self):
        net = self._net(2)
        out = net.predict_proba(np.random.default_rng(0).random((1, 8, 8, 3)))
        assert out.shape == (1,)

    def test_predict_proba_wide_output_keeps_batch(self):
        net = self._net(5)
        out = net.predict_proba(np.random.default_rng(0).random((1, 8, 8, 3)))
        assert out.shape == (1, 5)

    def test_cascade_classify_batch_of_one(self):
        cascade = _make_cascade()
        labels = cascade.classify(np.random.default_rng(0).random((1, 16, 16, 3)))
        assert labels.shape == (1,)
