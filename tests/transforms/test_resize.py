"""Tests for resolution-scaling transformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms.resize import resize, resize_area, resize_bilinear


def gradient_image(size=16, channels=3):
    ramp = np.linspace(0, 1, size)
    image = np.broadcast_to(ramp[None, :, None], (size, size, channels))
    return np.array(image)


#: Integer downscaling factors (source -> target px) the area resize must
#: reproduce bit for bit.
AREA_FACTORS = [(16, 8), (32, 16), (32, 8), (24, 8), (64, 8), (60, 30),
                (120, 30), (224, 56), (224, 28)]


def window_mean(image, size):
    """Block averaging as NumPy's ``mean`` over the window axes."""
    batch = image if image.ndim == 4 else image[None]
    n, height, width, channels = batch.shape
    out = batch.reshape(n, size, height // size, size, width // size,
                        channels).mean(axis=(2, 4))
    return out if image.ndim == 4 else out[0]


class TestResizeModes:
    @pytest.mark.parametrize("fn", [resize_bilinear, resize_area])
    def test_output_shape(self, fn):
        out = fn(gradient_image(16), 8)
        assert out.shape == (8, 8, 3)

    @pytest.mark.parametrize("fn", [resize_bilinear, resize_area])
    def test_batch_input(self, fn):
        batch = np.stack([gradient_image(16) for _ in range(4)])
        out = fn(batch, 8)
        assert out.shape == (4, 8, 8, 3)

    def test_constant_image_stays_constant(self):
        image = np.full((12, 12, 3), 0.7)
        for fn in (resize_bilinear, resize_area):
            np.testing.assert_allclose(fn(image, 6), 0.7)

    def test_area_is_exact_block_average(self):
        image = np.zeros((4, 4, 1))
        image[:2, :2, 0] = 1.0
        out = resize_area(image, 2)
        np.testing.assert_allclose(out[:, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("source, target", AREA_FACTORS)
    @pytest.mark.parametrize("batch", [None, 1, 5])
    def test_area_equals_numpy_window_mean_bit_for_bit_on_rgb(
            self, source, target, batch):
        rng = np.random.default_rng(source * target)
        shape = (source, source, 3) if batch is None else (batch, source, source, 3)
        image = rng.random(shape)
        out = resize_area(image, target)
        np.testing.assert_array_equal(out, window_mean(image, target))
        assert out.shape == shape[:-3] + (target, target, 3)

    @pytest.mark.parametrize("source, target", AREA_FACTORS)
    def test_area_on_one_channel_matches_to_rounding(self, source, target):
        # NumPy sums one-channel window rows pairwise, the window sum
        # row-major; no engine path resizes a single channel.
        image = np.random.default_rng(source).random((5, source, source, 1))
        np.testing.assert_allclose(resize_area(image, target),
                                   window_mean(image, target), rtol=2e-15)

    def test_area_falls_back_for_non_integer_ratio(self):
        out = resize_area(gradient_image(10), 4)
        assert out.shape == (4, 4, 3)

    def test_upscaling_supported(self):
        out = resize_bilinear(gradient_image(8), 16)
        assert out.shape == (16, 16, 3)

    def test_bilinear_preserves_horizontal_gradient_order(self):
        out = resize_bilinear(gradient_image(16), 8)
        row = out[0, :, 0]
        assert np.all(np.diff(row) >= -1e-9)


class TestResizeDispatch:
    def test_integer_ratio_is_area(self):
        image = gradient_image(16)
        np.testing.assert_array_equal(resize(image, 4), resize_area(image, 4))

    def test_non_integer_ratio_is_bilinear(self):
        image = gradient_image(16)
        np.testing.assert_array_equal(resize(image, 6),
                                      resize_bilinear(image, 6))

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            resize(gradient_image(), 0)

    def test_noop_returns_copy(self):
        image = gradient_image(8)
        out = resize(image, 8)
        np.testing.assert_allclose(out, image)
        out[0, 0, 0] = 99.0
        assert image[0, 0, 0] != 99.0

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            resize(np.zeros((4, 4)), 2)


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([8, 12, 16]), target=st.sampled_from([2, 4, 8]))
def test_resize_preserves_value_range(size, target):
    """Resizing never produces values outside the input's [min, max] range
    (12 -> 8 px takes the bilinear fallback)."""
    rng = np.random.default_rng(size * target)
    image = rng.random((size, size, 3))
    out = resize(image, target)
    assert out.min() >= image.min() - 1e-9
    assert out.max() <= image.max() + 1e-9
