"""im2col / col2im utilities used by the convolution and pooling layers.

These transform sliding windows of an NHWC image tensor into a 2-D matrix so
that convolution becomes a single matrix multiplication, which is the only way
to make a pure-NumPy CNN fast enough to train on CPU.

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
    return (size + 2 * pad - kernel) // stride + 1


def im2col(images: np.ndarray, kernel_h: int, kernel_w: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    # shape: (N, H, W, C) -> (M, D)
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

    # Strided view: (batch, out_h, out_w, kernel_h, kernel_w, channels)
    s0, s1, s2, s3 = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(batch, out_h, out_w, kernel_h, kernel_w, channels),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    # This reshape is the gather, the one copy im2col makes.  The
    # ascontiguousarray after it is a no-op unless the reshape could stay a
    # view (a 1x1 window over a sliced input).
    cols = windows.reshape(batch * out_h * out_w,
                           kernel_h * kernel_w * channels)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, image_shape: tuple[int, int, int, int],
           kernel_h: int, kernel_w: int, stride: int = 1,
           pad: int = 0) -> np.ndarray:
    # shape: (M, D) -> (N, H, W, C)
    """Fold a column matrix back into an NHWC tensor, summing overlaps.

    This is the adjoint of :func:`im2col` and is used in the convolution
    backward pass to accumulate gradients with respect to the input.
    """
    batch, height, width, channels = image_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    padded = np.zeros((batch, height + 2 * pad, width + 2 * pad, channels),
                      dtype=cols.dtype)
    cols_6d = cols.reshape(batch, out_h, out_w, kernel_h, kernel_w, channels)

    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride, :] += cols_6d[:, :, :, i, j, :]

    if pad > 0:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded
