"""Tests for the Sequential container."""

import numpy as np
import pytest

from repro.baselines.reference import (build_reference_network,
                                       reference_transform)
from repro.core.model import TrainedModel
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.transforms.spec import TransformSpec


def make_net(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential([
        Conv2D(3, 4, 3, rng=rng), ReLU(), MaxPool2D(2),
        Flatten(), Dense(4 * 4 * 4, 8, rng=rng), ReLU(),
        Dense(8, 1, rng=rng), Sigmoid(),
    ], input_shape=(8, 8, 3))


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_forward_shape(self):
        net = make_net()
        out = net.forward(np.random.default_rng(0).random((5, 8, 8, 3)))
        assert out.shape == (5, 1)

    def test_output_shape_inference(self):
        assert make_net().output_shape() == (1,)

    def test_predict_matches_forward(self):
        net = make_net()
        x = np.random.default_rng(1).random((7, 8, 8, 3))
        np.testing.assert_allclose(net.predict(x, batch_size=3), net.forward(x))

    def test_predict_single_chunk_is_returned_without_a_copy(self, monkeypatch):
        net = make_net()
        x = np.random.default_rng(1).random((7, 8, 8, 3))
        expected = net.forward(x)
        monkeypatch.setattr(np, "concatenate", None)  # calling it would raise
        np.testing.assert_array_equal(net.predict(x, batch_size=7), expected)

    def test_predict_joins_its_chunks_once(self, monkeypatch):
        net = make_net()
        x = np.random.default_rng(1).random((7, 8, 8, 3))
        expected = net.forward(x)
        joins = []
        concatenate = np.concatenate

        def counting(arrays, *args, **kwargs):
            joins.append(len(arrays))
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        np.testing.assert_allclose(net.predict(x, batch_size=3), expected)
        assert joins == [3]  # one copy of every chunk, not a running join

    def test_predict_proba_squeezes_single_output(self):
        net = make_net()
        x = np.random.default_rng(2).random((4, 8, 8, 3))
        probs = net.predict_proba(x)
        assert probs.shape == (4,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_num_parameters_positive(self):
        assert make_net().num_parameters() > 0

    def test_parameters_round_trip(self):
        net_a = make_net(np.random.default_rng(3))
        net_b = make_net(np.random.default_rng(4))
        x = np.random.default_rng(5).random((3, 8, 8, 3))
        assert not np.allclose(net_a.forward(x), net_b.forward(x))
        net_b.set_parameters(net_a.parameters())
        np.testing.assert_allclose(net_a.forward(x), net_b.forward(x))

    def test_set_parameters_rejects_missing_key(self):
        net = make_net()
        params = net.parameters()
        params.pop(next(iter(params)))
        with pytest.raises(KeyError):
            net.set_parameters(params)

    def test_set_parameters_rejects_bad_shape(self):
        net = make_net()
        params = net.parameters()
        key = next(iter(params))
        params[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.set_parameters(params)

    def test_summary_mentions_every_layer(self):
        summary = make_net().summary()
        assert "Conv2D" in summary and "Dense" in summary

    def test_backward_returns_input_shaped_gradient(self):
        """``Sequential.backward`` fills every parameter gradient and returns
        nothing; each layer's own ``backward`` still returns a gradient
        shaped like that layer's input, the first layer's included."""
        net = make_net()
        x = np.random.default_rng(6).random((2, 8, 8, 3))
        out = net.forward(x, training=True)
        assert net.backward(np.ones_like(out)) is None
        for layer in net.layers:
            assert layer.grads.keys() == layer.params.keys()
            for name, grad in layer.grads.items():
                assert grad.shape == layer.params[name].shape
        grad = np.ones_like(out)
        for layer in reversed(net.layers):
            grad = layer.backward(grad)
        assert grad.shape == x.shape


class TestEmptyBatch:
    """Zero rows in, zero rows out, with the output's trailing shape --
    not numpy's 'need at least one array to concatenate'."""

    NETWORKS = [
        pytest.param(make_net, TransformSpec(8, "rgb"), "specialized",
                     id="conv-net"),
        pytest.param(lambda: build_reference_network((8, 8, 3), base_width=4,
                                                     n_stages=2,
                                                     blocks_per_stage=1),
                     reference_transform(8), "reference", id="reference-net"),
    ]

    @pytest.mark.parametrize("build, transform, kind", NETWORKS)
    def test_predict_and_predict_proba(self, build, transform, kind):
        net = build()
        empty = np.zeros((0, *transform.shape))
        assert net.forward(empty).shape == (0, 1)
        assert net.predict(empty).shape == (0, 1)
        assert net.predict(empty).dtype == np.float64
        assert net.predict_proba(empty).shape == (0,)

    @pytest.mark.parametrize("build, transform, kind", NETWORKS)
    def test_trained_model_predict(self, build, transform, kind):
        model = TrainedModel(name="m", network=build(), transform=transform,
                             kind=kind)
        labels = model.predict(np.zeros((0, 16, 16, 3)))
        assert labels.shape == (0,)
        assert labels.dtype == np.int64
