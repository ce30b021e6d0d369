"""The inference path: ``forward(x, training=False)``.

Inference keeps no backward state, pools by pairwise maxima, runs ReLU in
place on arrays it allocated and, for ``Conv2D -> ReLU -> MaxPool2D``, adds
bias and ReLU *after* the pool.  None of that may change a single bit of the
output: the training-mode forward is the reference every test here compares
against.
"""

import sys
import threading

import numpy as np
import pytest

from repro.baselines.reference import (build_reference_network,
                                       reference_transform)
from repro.core.cascade import Cascade, CascadeLevel
from repro.core.model import TrainedModel
from repro.core.spec import build_model_grid
from repro.core.thresholds import DecisionThresholds
from repro.experiments.presets import SMOKE_SCALE
from repro.nn.blocks import ResidualBlock
from repro.nn.layers import (Conv2D, Dense, Flatten, GlobalAveragePool,
                             MaxPool2D, ReLU, Sigmoid)
from repro.nn.network import Sequential

BATCH_SIZES = (1, 2, 7, 64, 300)
SMOKE_GRID = build_model_grid(SMOKE_SCALE.architectures(),
                              SMOKE_SCALE.transforms())


def _with_random_biases(net, seed=0):
    """Biases initialise to zero, which would make the bias-after-pool
    reorder trivially exact; give every one a real value."""
    rng = np.random.default_rng(seed)
    for name, value in net.parameters().items():
        if name.endswith("bias"):
            value[...] = rng.normal(size=value.shape)
    return net


def _reference_net(rng):
    return build_reference_network(
        reference_transform(SMOKE_SCALE.image_size).shape,
        base_width=SMOKE_SCALE.reference_width,
        n_stages=SMOKE_SCALE.reference_stages,
        blocks_per_stage=SMOKE_SCALE.reference_blocks, rng=rng)


def _residual_net(in_channels, out_channels, rng):
    return Sequential([
        ResidualBlock(in_channels, out_channels, rng=rng), MaxPool2D(2),
        GlobalAveragePool(), Dense(out_channels, 1, rng=rng), Sigmoid(),
    ], input_shape=(6, 6, in_channels))


def _networks():
    rng = np.random.default_rng(5)
    cases = [(spec.name, spec.build(rng=rng)) for spec in SMOKE_GRID]
    cases.append(("reference", _reference_net(rng)))
    cases.append(("residual-identity-skip", _residual_net(4, 4, rng)))
    cases.append(("residual-projected-skip", _residual_net(3, 5, rng)))
    # A conv whose ReLU is not followed by a pool, then a strided conv.
    cases.append(("conv-relu-conv", Sequential([
        Conv2D(2, 3, 3, rng=rng), ReLU(),
        Conv2D(3, 4, 3, stride=2, padding="valid", rng=rng), ReLU(),
        MaxPool2D(3, stride=1), Flatten(), Dense(16, 2, rng=rng), Sigmoid(),
    ], input_shape=(9, 9, 2))))
    return [pytest.param(_with_random_biases(net), id=name)
            for name, net in cases]


class TestBitIdenticalToTrainingMode:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("net", _networks())
    def test_network(self, net, batch_size):
        x = np.random.default_rng(batch_size).normal(
            size=(batch_size, *net.input_shape))
        assert np.array_equal(net.forward(x, training=False),
                              net.forward(x, training=True))

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("pool, stride, size", [
        (2, None, 7), (2, None, 16), (3, 1, 5), (3, None, 10), (2, 3, 8),
        (1, None, 4), (1, 2, 5)])
    def test_max_pool(self, pool, stride, size, batch_size):
        layer = MaxPool2D(pool, stride)
        x = np.random.default_rng(batch_size).normal(
            size=(batch_size, size, size + 1, 3))
        x[0, :pool, :pool, 0] = 1.5  # a tie inside the first window
        out = layer.forward(x, training=False)
        assert out.shape[1:] == layer.output_shape(x.shape[1:])
        assert np.array_equal(out, layer.forward(x, training=True))
        # ... and both equal the definition, window by window.
        step = layer.stride
        expected = np.array([[x[:, i:i + pool, j:j + pool].max(axis=(1, 2))
                              for j in range(0, x.shape[2] - pool + 1, step)]
                             for i in range(0, x.shape[1] - pool + 1, step)])
        assert np.array_equal(out, expected.transpose(2, 0, 1, 3))
        assert not np.shares_memory(out, x)

    def test_fused_block_propagates_nan_and_inf(self):
        """The reorder must stay exact for the values rounding arguments
        usually forget."""
        net = _with_random_biases(SMOKE_GRID[0].build(
            rng=np.random.default_rng(1)))
        net = Sequential(net.layers[:3], input_shape=net.input_shape)
        x = np.random.default_rng(2).normal(size=(4, *net.input_shape))
        x[0, 2, 2, 0] = np.nan
        x[1, 3, 3, 0] = np.inf
        x[2, 1, 1, 0] = -np.inf
        with np.errstate(invalid="ignore"):
            inferred = net.forward(x, training=False)
            trained = net.forward(x, training=True)
        assert np.isnan(inferred).any() and np.isinf(inferred).any()
        assert np.array_equal(inferred, trained, equal_nan=True)


def _brute_force_labels(cascade, images, batch_size=256):
    """The cascade's definition, level by level over the rows still
    undecided, from training-mode forwards (chunked like ``predict``, so the
    matrix products see the same shapes)."""
    labels = np.full(images.shape[0], -1, dtype=np.int64)
    pending = np.arange(images.shape[0])
    for level in cascade.levels:
        representation = level.model.transform.apply_batch(images[pending])
        probabilities = np.concatenate([
            level.model.network.forward(representation[start:start + batch_size],
                                        training=True)[:, 0]
            for start in range(0, pending.size, batch_size)])
        if level.is_final:
            labels[pending] = probabilities >= 0.5
            break
        low = probabilities <= level.thresholds.p_low
        high = probabilities >= level.thresholds.p_high
        labels[pending[high]] = 1
        labels[pending[low & ~high]] = 0
        pending = pending[~(low | high)]
    return labels


def test_cascade_labels_match_training_mode_brute_force():
    rng = np.random.default_rng(11)
    images = rng.random((512, SMOKE_SCALE.image_size, SMOKE_SCALE.image_size, 3))
    models = [TrainedModel(name=spec.name,
                           network=_with_random_biases(spec.build(rng=rng)),
                           transform=spec.transform,
                           architecture=spec.architecture)
              for spec in (SMOKE_GRID[2], SMOKE_GRID[5])]
    transform = reference_transform(SMOKE_SCALE.image_size)
    models.append(TrainedModel(
        name="reference", network=_with_random_biases(_reference_net(rng)),
        transform=transform, kind="reference"))
    levels = []
    for model in models[:-1]:
        # Thresholds at this model's own terciles, so every level decides
        # some rows each way and passes some on.
        low, high = np.quantile(model.predict_proba(images), [1 / 3, 2 / 3])
        levels.append(CascadeLevel(model, DecisionThresholds(low, high, 0.95)))
    levels.append(CascadeLevel(models[-1], None))
    cascade = Cascade(tuple(levels))

    labels, stats = cascade.classify_with_stats(images)
    assert (stats["decided"] > 0).all()
    assert 0 < labels.sum() < labels.size
    np.testing.assert_array_equal(labels, _brute_force_labels(cascade, images))


def _served_networks():
    rng = np.random.default_rng(9)
    return [pytest.param(SMOKE_GRID[-1].build(rng=rng), id=SMOKE_GRID[-1].name),
            pytest.param(_reference_net(rng), id="reference")]


class TestInferenceKeepsNothing:
    @pytest.mark.parametrize("net", _served_networks())
    def test_no_backward_state_after_predict(self, net):
        x = np.random.default_rng(0).random((5, *net.input_shape))
        out = net.predict(x)
        layers = list(net.layers)
        for block in net.layers:
            if isinstance(block, ResidualBlock):
                layers += [sub for sub in (block.conv1, block.relu1, block.conv2,
                                           block.relu_out, block.project)
                           if sub is not None]
        for layer in layers:
            for attr in ("_cache", "_mask", "_out"):
                assert getattr(layer, attr, None) is None, (layer, attr)
            with pytest.raises(RuntimeError, match="before forward"):
                layer.backward(np.ones(1))
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(np.ones_like(out))

    def test_inference_leaves_the_training_state_alone(self):
        """The numerical gradient checks rely on this: an inference pass
        between forward(training=True) and backward() changes nothing."""
        net = SMOKE_GRID[0].build(rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x, other = (rng.random((3, *net.input_shape)) for _ in range(2))
        out = net.forward(x, training=True)
        net.backward(np.ones_like(out))
        expected = [{name: grad.copy() for name, grad in layer.grads.items()}
                    for layer in net.layers]
        for layer in net.layers:
            layer.grads.clear()  # the second backward must refill them
        net.forward(x, training=True)
        net.predict(other)
        net.backward(np.ones_like(out))
        for layer, grads in zip(net.layers, expected):
            assert grads.keys() == layer.grads.keys() == layer.params.keys()
            for name, value in grads.items():
                np.testing.assert_array_equal(layer.grads[name], value)


def _first_layer_cases():
    rng = np.random.default_rng(13)
    return [
        pytest.param(Sequential([ReLU(), Dense(6, 2, rng=rng)]), (6,),
                     id="relu-first"),
        pytest.param(Sequential([Dense(6, 3, rng=rng), ReLU()]), (6,),
                     id="dense-relu"),
        pytest.param(Sequential([Flatten(), ReLU()]), (2, 3), id="flatten-relu"),
        pytest.param(Sequential([Conv2D(2, 3, rng=rng), ReLU(), MaxPool2D(2)]),
                     (4, 4, 2), id="conv-relu-pool"),
        pytest.param(Sequential([ResidualBlock(3, 3, rng=rng)]), (4, 4, 3),
                     id="residual-identity-skip"),
    ]


@pytest.mark.parametrize("net, row_shape", _first_layer_cases())
def test_predict_never_writes_to_its_input(net, row_shape):
    x = np.random.default_rng(1).normal(size=(5, *row_shape))
    before = x.copy()
    x.setflags(write=False)  # an in-place write would raise, not just differ
    first = net.predict(x)
    np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(net.predict(x), first)


def test_threads_sharing_one_network_agree_with_a_serial_call():
    net = _with_random_biases(SMOKE_GRID[-1].build(rng=np.random.default_rng(6)))
    rng = np.random.default_rng(7)
    inputs = [rng.random((96, *net.input_shape)) for _ in range(4)]
    expected = [net.predict(x, batch_size=32) for x in inputs]
    results = [None] * len(inputs)

    def work(slot):
        for _ in range(10):
            results[slot] = net.predict(inputs[slot], batch_size=32)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)
