"""Layer tests: shapes, forward values and numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    MaxPool2D,
    ReLU,
    Sigmoid,
)


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued ``f`` with respect to ``x``."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_input_gradient(layer, x, tol=1e-5):
    """Compare the layer's backward pass against a numerical gradient."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=True)
    upstream = rng.standard_normal(out.shape)

    def loss():
        return float((layer.forward(x, training=False) * upstream).sum())

    analytic = layer.backward(upstream)
    # Re-run forward in training mode so caches match the analytic pass.
    layer.forward(x, training=True)
    numeric = numerical_gradient(loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-3)


class TestConv2D:
    def test_output_shape_same_padding(self):
        layer = Conv2D(3, 8, kernel_size=3, padding="same")
        x = np.random.default_rng(0).random((2, 10, 10, 3))
        assert layer.forward(x).shape == (2, 10, 10, 8)
        assert layer.output_shape((10, 10, 3)) == (10, 10, 8)

    def test_output_shape_valid_padding(self):
        layer = Conv2D(1, 4, kernel_size=3, padding="valid")
        assert layer.output_shape((8, 8, 1)) == (6, 6, 4)

    def test_rejects_wrong_channels(self):
        layer = Conv2D(3, 4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 6, 6, 1)))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Conv2D(0, 4)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_rejects_stride_below_one_at_construction(self, stride):
        with pytest.raises(ValueError, match=f"stride must be >= 1, got {stride}"):
            Conv2D(1, 2, 3, stride=stride)

    def test_rejects_negative_padding_at_construction(self):
        # It used to build a layer that returned the top-left crop of a
        # "valid" convolution (4x4 from an 8x8 input).
        with pytest.raises(ValueError, match="padding must be >= 0, got -1"):
            Conv2D(1, 2, 3, padding=-1)

    def test_flops_scale_with_resolution(self):
        layer = Conv2D(3, 8, kernel_size=3)
        assert layer.flops((20, 20, 3)) == 4 * layer.flops((10, 10, 3))

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 3, kernel_size=3, padding="same", rng=rng)
        x = rng.standard_normal((2, 5, 5, 2))
        upstream = rng.standard_normal((2, 5, 5, 3))
        layer.forward(x, training=True)
        layer.backward(upstream)
        analytic = layer.grads["weight"].copy()

        def loss():
            return float((layer.forward(x) * upstream).sum())

        numeric = numerical_gradient(loss, layer.params["weight"])
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 3, kernel_size=3, padding="same", rng=rng)
        check_input_gradient(layer, rng.standard_normal((1, 5, 5, 2)))


class TestMaxPool2D:
    def test_output_shape(self):
        layer = MaxPool2D(2)
        x = np.random.default_rng(0).random((2, 8, 8, 3))
        assert layer.forward(x).shape == (2, 4, 4, 3)

    def test_picks_maximum(self):
        x = np.zeros((1, 2, 2, 1))
        x[0, 1, 0, 0] = 5.0
        layer = MaxPool2D(2)
        assert layer.forward(x)[0, 0, 0, 0] == 5.0

    def test_backward_routes_to_argmax(self):
        x = np.zeros((1, 2, 2, 1))
        x[0, 1, 1, 0] = 3.0
        layer = MaxPool2D(2)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 1, 1)))
        assert grad[0, 1, 1, 0] == 1.0
        assert grad.sum() == 1.0

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        # Distinct values avoid argmax ties that break numerical checks.
        x = rng.permutation(np.arange(1 * 4 * 4 * 2, dtype=float)).reshape(1, 4, 4, 2)
        check_input_gradient(MaxPool2D(2), x)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            MaxPool2D(4).forward(np.zeros((1, 2, 2, 1)))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_rejects_stride_below_one_at_construction(self, stride):
        with pytest.raises(ValueError, match=f"stride must be >= 1, got {stride}"):
            MaxPool2D(2, stride=stride)

    @pytest.mark.parametrize("training", [False, True])
    def test_rejects_non_nhwc_input_naming_the_shape(self, training):
        with pytest.raises(ValueError, match=r"NHWC.*\(3, 8, 8\)"):
            MaxPool2D(2).forward(np.zeros((3, 8, 8)), training=training)


class TestDense:
    def test_forward_shape_and_values(self):
        layer = Dense(3, 2)
        layer.params["weight"] = np.eye(3, 2)
        layer.params["bias"] = np.array([1.0, -1.0])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[2.0, 1.0]])

    def test_rejects_wrong_features(self):
        with pytest.raises(ValueError):
            Dense(3, 2).forward(np.zeros((1, 4)))

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(4)
        layer = Dense(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        check_input_gradient(layer, x)

    def test_flops(self):
        assert Dense(10, 5).flops((10,)) == 50


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([-1.0, 2.0]), training=True)
        np.testing.assert_allclose(layer.backward(np.array([5.0, 5.0])), [0.0, 5.0])

    @pytest.mark.parametrize("training", [False, True])
    def test_relu_propagates_nan(self, training):
        """A corrupted representation must surface, not turn into 0.0."""
        layer = ReLU()
        out = layer.forward(np.array([-0.0, np.nan, 1.0]), training=training)
        np.testing.assert_array_equal(out, [0.0, np.nan, 1.0])
        if training:  # the mask is still a mask: no gradient through a NaN
            np.testing.assert_array_equal(
                layer.backward(np.array([5.0, 5.0, 5.0])), [0.0, 0.0, 5.0])

    def test_sigmoid_range_and_symmetry(self):
        layer = Sigmoid()
        out = layer.forward(np.array([-50.0, 0.0, 50.0]))
        assert np.all((out >= 0) & (out <= 1))
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(0.5)
        moderate = layer.forward(np.array([-4.0, 4.0]))
        assert 0 < moderate[0] < 0.5 < moderate[1] < 1

    def test_sigmoid_gradient_matches_numerical(self):
        rng = np.random.default_rng(5)
        check_input_gradient(Sigmoid(), rng.standard_normal((4, 3)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros(3))


class TestFlattenAndPooling:
    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.random.default_rng(0).random((2, 3, 3, 2))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 18)
        np.testing.assert_allclose(layer.backward(out), x)

    def test_global_average_pool(self):
        layer = GlobalAveragePool()
        x = np.ones((2, 4, 4, 3)) * 2.0
        out = layer.forward(x)
        np.testing.assert_allclose(out, np.full((2, 3), 2.0))

    def test_global_average_pool_gradient(self):
        rng = np.random.default_rng(7)
        check_input_gradient(GlobalAveragePool(), rng.standard_normal((2, 3, 3, 2)))
