"""im2col / col2im utilities used by the convolution and pooling layers.

These transform sliding windows of an NHWC image tensor into a 2-D matrix so
that convolution becomes a single matrix multiplication, which is the only way
to make a pure-NumPy CNN fast enough to train on CPU.

``im2col`` gathers in one of two ways, chosen by the input's channel count,
and both build the same C-contiguous matrix.  A multi-channel input is a
strided window view whose reshape is the gather, the one copy: NumPy copies
it in runs of ``kernel_w * channels`` values.  For one channel those runs
are 3 values of a 3x3 window, so a single-channel input is gathered with
``np.take`` over a flat window index instead (2.4x faster at 8-16 px; the
index is rebuilt per call, about 15 us, so nothing is cached).  From 4
channels up the view's runs are long enough that the index gather loses.

``col2im`` copies the columns once into ``(kernel_h, kernel_w, out_h,
out_w, batch, channels)`` order and sums each kernel offset's slab into a
zeroed ``(height, width, batch, channels)`` buffer.  Each of the
``kernel_h * kernel_w`` adds then runs over whole ``batch * channels``
blocks (``out_w`` of them back to back at stride 1), not over ``channels``
values at a time.  Every element still receives its terms in the same
order -- zero first, then offset ``(0, 0)``, ``(0, 1)``, ... row by row --
so the sums are bit-identical to folding in NHWC order, signed zeros
included.  The result is an NHWC view of that buffer.  On the 3x3 training
shapes a call is 1.2-1.7x faster, and about even on the largest
(16 x 32 x 32 x 16); a 1x1 kernel's single add gains nothing from the copy,
so the reference's projection pays 10-45 us more per call.

Both functions are pure: they allocate what they return and keep nothing.
The column matrix is the largest array of a forward pass (4.7-14 MB for a
256-row batch of the served models), so ``Conv2D`` holds on to it only under
``forward(x, training=True)``, for ``backward``; inference drops it with the
call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["im2col", "col2im", "conv_output_size"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial size of a convolution/pooling along one dimension."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"padding must be >= 0, got {pad}")
    return (size + 2 * pad - kernel) // stride + 1


def im2col(images: np.ndarray, kernel_h: int, kernel_w: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Unfold an NHWC batch into a matrix of receptive-field columns.

    Parameters
    ----------
    images:
        Array of shape ``(batch, height, width, channels)``.
    kernel_h, kernel_w:
        Receptive field size.
    stride:
        Stride in both spatial dimensions.
    pad:
        Zero-padding in both spatial dimensions.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(batch * out_h * out_w, kernel_h * kernel_w * channels)``.
    """
    batch, height, width, channels = images.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    if pad > 0:
        padded = np.zeros(
            (batch, height + 2 * pad, width + 2 * pad, channels),
            dtype=images.dtype)
        padded[:, pad:pad + height, pad:pad + width, :] = images
        images = padded

    if channels == 1:
        # The flat pixel index of every window entry, shaped (out_h, out_w,
        # kernel_h, kernel_w) and raveled in the column matrix's order; one
        # ``np.take`` per batch is the gather, the one copy.
        _, height_p, width_p, _ = images.shape
        window_rows = (np.arange(out_h) * stride)[:, None, None, None] \
            + np.arange(kernel_h)[:, None]
        window_cols = (np.arange(out_w) * stride)[:, None, None] \
            + np.arange(kernel_w)
        index = (window_rows * width_p + window_cols).ravel()
        flat = images.reshape(batch, height_p * width_p)
        return np.take(flat, index, axis=1).reshape(batch * out_h * out_w,
                                                    kernel_h * kernel_w)

    # Strided view: (batch, out_h, out_w, kernel_h, kernel_w, channels)
    s0, s1, s2, s3 = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(batch, out_h, out_w, kernel_h, kernel_w, channels),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    # With several channels this reshape is the gather, the one copy.  The
    # ascontiguousarray after it is a no-op unless the reshape could stay a
    # view (a 1x1 window over a sliced input).
    cols = windows.reshape(batch * out_h * out_w,
                           kernel_h * kernel_w * channels)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, image_shape: tuple[int, int, int, int],
           kernel_h: int, kernel_w: int, stride: int = 1,
           pad: int = 0) -> np.ndarray:
    """Fold a column matrix back into an NHWC tensor, summing overlaps.

    This is the adjoint of :func:`im2col` and is used in the convolution
    backward pass to accumulate gradients with respect to the input.
    The result is a view of a spatial-major buffer (see the module
    docstring).
    """
    batch, height, width, channels = image_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    # The one copy: kernel offsets first, then the spatial position, so each
    # offset's slab is contiguous and lands on the buffer in runs of at least
    # batch * channels values.
    slabs = np.ascontiguousarray(
        cols.reshape(batch, out_h, out_w, kernel_h, kernel_w, channels)
        .transpose(3, 4, 1, 2, 0, 5))
    padded = np.zeros((height + 2 * pad, width + 2 * pad, batch, channels),
                      dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[i:i_max:stride, j:j_max:stride] += slabs[i, j]

    return padded.transpose(2, 0, 1, 3)[:, pad:pad + height, pad:pad + width]
