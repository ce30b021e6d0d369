"""Tests for the im2col/col2im utilities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn.im2col import col2im, conv_output_size, im2col


def strided_view_im2col(images, kernel_h, kernel_w, stride, pad):
    """The reference gather: reshape a strided window view of the padded input."""
    batch, height, width, channels = images.shape
    out_h = (height + 2 * pad - kernel_h) // stride + 1
    out_w = (width + 2 * pad - kernel_w) // stride + 1
    padded = np.zeros((batch, height + 2 * pad, width + 2 * pad, channels))
    padded[:, pad:pad + height, pad:pad + width] = images
    s0, s1, s2, s3 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(batch, out_h, out_w, kernel_h, kernel_w, channels),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3))
    return np.ascontiguousarray(
        windows.reshape(-1, kernel_h * kernel_w * channels))


def test_conv_output_size_basic():
    assert conv_output_size(8, 3, 1, 1) == 8
    assert conv_output_size(8, 3, 1, 0) == 6
    assert conv_output_size(8, 2, 2, 0) == 4
    assert conv_output_size(7, 2, 2, 0) == 3


@pytest.mark.parametrize("stride", [0, -1])
def test_conv_output_size_rejects_stride_below_one(stride):
    with pytest.raises(ValueError, match=f"stride must be >= 1, got {stride}"):
        conv_output_size(8, 3, stride, 1)


def test_conv_output_size_rejects_negative_padding():
    with pytest.raises(ValueError, match="padding must be >= 0, got -1"):
        conv_output_size(8, 3, 1, -1)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("stride, pad", [(0, 1), (-1, 1), (1, -1)])
def test_im2col_rejects_bad_geometry(channels, stride, pad):
    # A zero stride used to die with ZeroDivisionError; a negative one would
    # wrap through the single-channel index gather silently.
    with pytest.raises(ValueError):
        im2col(np.zeros((1, 8, 8, channels)), 3, 3, stride, pad)


def test_im2col_shape():
    images = np.arange(2 * 5 * 5 * 3, dtype=float).reshape(2, 5, 5, 3)
    cols = im2col(images, 3, 3, stride=1, pad=0)
    assert cols.shape == (2 * 3 * 3, 3 * 3 * 3)


def test_im2col_values_single_window():
    """A kernel covering the whole image reproduces the image itself."""
    image = np.arange(1 * 3 * 3 * 1, dtype=float).reshape(1, 3, 3, 1)
    cols = im2col(image, 3, 3)
    np.testing.assert_allclose(cols.ravel(), image.ravel())


def test_im2col_with_padding_adds_zeros():
    image = np.ones((1, 2, 2, 1))
    cols = im2col(image, 3, 3, stride=1, pad=1)
    # Top-left window has zeros where padding was added.
    first_window = cols[0].reshape(3, 3)
    assert first_window[0, 0] == 0.0
    assert first_window[1, 1] == 1.0


@pytest.mark.parametrize("channels", [1, 3])
def test_col2im_adjoint_of_im2col(channels):
    """<im2col(x), y> == <x, col2im(y)> — the two operators are adjoint."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 6, 6, channels))
    cols = im2col(x, 3, 3, stride=1, pad=1)
    y = rng.standard_normal(cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, 3, 3, stride=1, pad=1)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(batch=st.integers(0, 4), height=st.integers(1, 12),
       width=st.integers(1, 12), channels=st.integers(1, 5),
       kernel_h=st.integers(1, 5), kernel_w=st.integers(1, 5),
       stride=st.integers(1, 3), pad=st.integers(0, 2))
def test_im2col_shape_property(batch, height, width, channels, kernel_h,
                               kernel_w, stride, pad):
    """Both gathers build the strided view's matrix: same values, same shape,
    C-contiguous."""
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    assume(out_h > 0 and out_w > 0)
    images = np.random.default_rng(0).random((batch, height, width, channels))
    cols = im2col(images, kernel_h, kernel_w, stride=stride, pad=pad)
    expected = strided_view_im2col(images, kernel_h, kernel_w, stride, pad)
    assert cols.shape == expected.shape == (batch * out_h * out_w,
                                            kernel_h * kernel_w * channels)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, expected)


def test_col2im_counts_overlaps():
    """col2im of all-ones counts how many windows cover each pixel."""
    shape = (1, 4, 4, 1)
    cols = np.ones((1 * 2 * 2, 3 * 3 * 1))
    counts = col2im(cols, shape, 3, 3, stride=1, pad=0)
    # The centre pixels are covered by all four 3x3 windows.
    assert counts[0, 1, 1, 0] == 4
    assert counts[0, 0, 0, 0] == 1
