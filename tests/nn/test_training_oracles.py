"""Bit-identity oracles for the training-only array paths.

``col2im`` folds in a spatial-major layout, ``MaxPool2D`` finds its argmax
by comparing strided slices with the pooled maximum and scatters its
gradient with broadcast index vectors, and ``Sequential.backward`` asks the
first layer for parameter gradients only.  The simpler code each replaced is
kept here as the reference, and every comparison is on bytes
(``tobytes()``), so ``-0.0`` against ``0.0`` counts as a difference.

The shapes are every ``Conv2D`` and ``MaxPool2D`` input that a build of the
SMOKE, BENCH and DEFAULT scales trains on (pools and references), plus the
geometries none of them uses: padding 0 with a 3x3 kernel, stride 2
convolutions, and pools whose stride is below or above their size.
"""

import inspect

import numpy as np
import pytest

from benchmarks.e2e.harness import BENCH_SCALE
from repro.baselines.reference import (build_reference_network,
                                       reference_transform,
                                       train_reference_model)
from repro.core.spec import build_model_grid
from repro.experiments.presets import DEFAULT_SCALE, SMOKE_SCALE
from repro.nn.blocks import ResidualBlock
from repro.nn.im2col import col2im, conv_output_size
from repro.nn.layers import (Conv2D, Dense, GlobalAveragePool, MaxPool2D,
                             ReLU, Sigmoid, _window_argmax)
from repro.nn.network import Sequential

REFERENCE_BATCH = inspect.signature(
    train_reference_model).parameters["batch_size"].default


def reference_col2im(cols, image_shape, kernel_h, kernel_w, stride, pad):
    """The NHWC fold: one strided add per kernel offset into the image."""
    batch, height, width, channels = image_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    padded = np.zeros((batch, height + 2 * pad, width + 2 * pad, channels))
    cols_6d = cols.reshape(batch, out_h, out_w, kernel_h, kernel_w, channels)
    for i in range(kernel_h):
        for j in range(kernel_w):
            padded[:, i:i + stride * out_h:stride,
                   j:j + stride * out_w:stride] += cols_6d[:, :, :, i, j]
    return padded[:, pad:pad + height, pad:pad + width]


def reference_argmax(x, pool, stride):
    """``argmax`` over a copy of every pool x pool window."""
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, pool, stride, 0)
    out_w = conv_output_size(width, pool, stride, 0)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(batch, out_h, out_w, pool, pool, channels),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False)
    return windows.reshape(batch, out_h, out_w, pool * pool,
                           channels).argmax(axis=3)


def reference_pool_backward(grad_output, x_shape, argmax, pool, stride):
    """``np.add.at`` into zeros over a full 4-D index grid."""
    batch, _, _, channels = x_shape
    out_h, out_w = argmax.shape[1:3]
    grad_input = np.zeros(x_shape)
    b_idx, i_idx, j_idx, c_idx = np.meshgrid(
        np.arange(batch), np.arange(out_h), np.arange(out_w),
        np.arange(channels), indexing="ij")
    np.add.at(grad_input, (b_idx, i_idx * stride + argmax // pool,
                           j_idx * stride + argmax % pool, c_idx), grad_output)
    return grad_input


def _trained_networks(scale):
    """``(network, batch size)`` for every network a build of ``scale`` fits."""
    for spec in build_model_grid(scale.architectures(), scale.transforms()):
        yield spec.build(), scale.training.batch_size
    yield build_reference_network(
        reference_transform(scale.image_size).shape,
        base_width=scale.reference_width, n_stages=scale.reference_stages,
        blocks_per_stage=scale.reference_blocks), REFERENCE_BATCH


def _layer_inputs(net):
    """``(layer, input shape)`` for every layer, residual sublayers included."""
    shape = net.input_shape
    for layer in net.layers:
        if isinstance(layer, ResidualBlock):
            yield layer.conv1, shape
            yield layer.conv2, layer.conv1.output_shape(shape)
            if layer.project is not None:
                yield layer.project, shape
        yield layer, shape
        shape = layer.output_shape(shape)


def _training_geometries():
    convs, pools = set(), set()
    for scale in (SMOKE_SCALE, BENCH_SCALE, DEFAULT_SCALE):
        for net, batch in _trained_networks(scale):
            for layer, shape in _layer_inputs(net):
                if isinstance(layer, Conv2D):
                    convs.add(((batch, *shape), layer.kernel_size,
                               layer.stride, layer.pad))
                elif isinstance(layer, MaxPool2D):
                    pools.add(((batch, *shape), layer.pool_size, layer.stride))
    return sorted(convs), sorted(pools)


TRAINING_CONVS, TRAINING_POOLS = _training_geometries()
EXTRA_CONVS = [((2, 7, 7, 3), 3, 1, 0), ((2, 7, 7, 3), 3, 2, 1),
               ((3, 9, 8, 2), 3, 2, 0), ((2, 6, 6, 5), 1, 2, 1),
               ((1, 5, 5, 1), 5, 1, 2)]
EXTRA_POOLS = [((2, 9, 9, 3), 3, 2), ((2, 6, 6, 2), 2, 1),
               ((2, 8, 8, 3), 2, 3), ((2, 5, 5, 1), 1, 1), ((2, 6, 7, 4), 3, 3)]


def _signed_values(rng, shape, nan=False):
    """Normal values rounded to one decimal (ties), with a tenth set to 0.0,
    a tenth to -0.0 and, optionally, a few NaNs."""
    values = np.round(rng.standard_normal(shape), 1)
    pick = rng.random(shape)
    values[pick < 0.1] = 0.0
    values[(pick >= 0.1) & (pick < 0.2)] = -0.0
    if nan:
        values[pick > 0.995] = np.nan
    return values


def test_the_scales_train_what_the_oracles_need():
    assert {k for _, k, _, _ in TRAINING_CONVS} == {1, 3}
    assert {pad for *_, pad in TRAINING_CONVS} == {0, 1}
    assert len(TRAINING_POOLS) >= 10


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("shape, kernel, stride, pad",
                         TRAINING_CONVS + EXTRA_CONVS)
def test_col2im_is_bit_identical_to_the_nhwc_fold(shape, kernel, stride, pad,
                                                  nan):
    out_h = conv_output_size(shape[1], kernel, stride, pad)
    out_w = conv_output_size(shape[2], kernel, stride, pad)
    rng = np.random.default_rng(sum(shape) + kernel + stride + pad)
    cols = _signed_values(
        rng, (shape[0] * out_h * out_w, kernel * kernel * shape[3]), nan)
    got = col2im(cols, shape, kernel, kernel, stride, pad)
    want = reference_col2im(cols, shape, kernel, kernel, stride, pad)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _pool_input(shape, nan):
    """A post-ReLU activation: many all-zero windows, ties, both zeros."""
    rng = np.random.default_rng(sum(shape))
    x = np.maximum(_signed_values(rng, shape), 0.0)
    x[rng.random(shape) < 0.05] = -0.0
    if nan:
        x[rng.random(shape) < 0.02] = np.nan
    return x


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("shape, pool, stride", TRAINING_POOLS + EXTRA_POOLS)
def test_max_pool_argmax_and_scatter_are_bit_identical(shape, pool, stride,
                                                       nan):
    x = _pool_input(shape, nan)
    layer = MaxPool2D(pool, stride)
    out = layer.forward(x, training=True)
    want_argmax = reference_argmax(x, pool, stride)
    assert _window_argmax(x, out, pool, stride).tobytes() == \
        want_argmax.tobytes()

    rng = np.random.default_rng(len(shape) + pool)
    grad = _signed_values(rng, out.shape, nan)
    want = reference_pool_backward(grad, x.shape, want_argmax, pool, stride)
    assert layer.backward(grad).tobytes() == want.tobytes()


def test_argmax_scan_keeps_the_first_of_tied_maxima_and_nans():
    x = np.zeros((1, 2, 2, 5))
    x[0, :, :, 1] = [[1.0, 5.0], [5.0, 5.0]]
    x[0, :, :, 2] = [[-0.0, 0.0], [0.0, -0.0]]
    x[0, :, :, 3] = [[1.0, np.nan], [9.0, np.nan]]
    x[0, :, :, 4] = [[-np.inf, -np.inf], [-np.inf, -np.inf]]
    out = MaxPool2D(2).forward(x)
    assert _window_argmax(x, out, 2, 2).ravel().tolist() == [0, 1, 0, 1, 0]


def _residual_first():
    rng = np.random.default_rng(5)
    return Sequential([ResidualBlock(2, 3, rng=rng), GlobalAveragePool(),
                       Dense(3, 1, rng=rng), Sigmoid()], input_shape=(6, 6, 2))


def _conv_first():
    rng = np.random.default_rng(6)
    return build_model_grid(SMOKE_SCALE.architectures(),
                            SMOKE_SCALE.transforms())[-1].build(rng=rng)


def _reference():
    return build_reference_network((8, 8, 3), base_width=4, n_stages=2,
                                   blocks_per_stage=1,
                                   rng=np.random.default_rng(7))


def _dense_first():
    rng = np.random.default_rng(8)
    return Sequential([Dense(5, 4, rng=rng), ReLU(), Dense(4, 1, rng=rng),
                       Sigmoid()], input_shape=(5,))


@pytest.mark.parametrize("build", [_conv_first, _reference, _residual_first,
                                   _dense_first])
def test_sequential_backward_fills_what_a_full_backward_fills(build):
    net = build()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, *net.input_shape))
    upstream = rng.standard_normal((4, 1))

    net.forward(x, training=True)
    assert net.backward(upstream) is None
    got = [{name: grad.copy() for name, grad in layer.grads.items()}
           for layer in net.layers]

    net.forward(x, training=True)
    grad = upstream
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    assert grad.shape == x.shape
    for layer, filled in zip(net.layers, got):
        assert filled.keys() == layer.grads.keys()
        for name, value in layer.grads.items():
            assert filled[name].tobytes() == value.tobytes(), (layer, name)
    assert any(layer.grads for layer in net.layers)
