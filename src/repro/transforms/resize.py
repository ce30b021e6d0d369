"""Resolution-scaling transformations.

All functions accept a single HWC image (float array in [0, 1]) or a batch of
NHWC images and return the same rank.  :func:`resize` is area interpolation
(block averaging), the natural choice when downscaling camera frames for
small classifiers; it falls back to bilinear interpolation when the input
size is not an integer multiple of the output size.  The block average is a
window sum (see :func:`resize_area`), which matches NumPy's ``mean`` over
the window axes bit for bit on RGB frames at a quarter of its cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["resize", "resize_bilinear", "resize_area"]


def _as_batch(image: np.ndarray) -> tuple[np.ndarray, bool]:
    if image.ndim == 3:
        return image[None, ...], True
    if image.ndim == 4:
        return image, False
    raise ValueError(f"expected HWC or NHWC array, got shape {image.shape}")


def _validate_size(size: int) -> None:
    if size <= 0:
        raise ValueError("target size must be positive")


def resize_bilinear(image: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize to ``size`` x ``size``."""
    _validate_size(size)
    batch, squeeze = _as_batch(image)
    _, height, width, _ = batch.shape

    def grid(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coords = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
        coords = np.clip(coords, 0, n_in - 1)
        low = np.floor(coords).astype(int)
        high = np.minimum(low + 1, n_in - 1)
        frac = coords - low
        return low, high, frac

    row_lo, row_hi, row_frac = grid(size, height)
    col_lo, col_hi, col_frac = grid(size, width)

    top = (batch[:, row_lo][:, :, col_lo] * (1 - col_frac)[None, None, :, None]
           + batch[:, row_lo][:, :, col_hi] * col_frac[None, None, :, None])
    bottom = (batch[:, row_hi][:, :, col_lo] * (1 - col_frac)[None, None, :, None]
              + batch[:, row_hi][:, :, col_hi] * col_frac[None, None, :, None])
    out = top * (1 - row_frac)[None, :, None, None] + bottom * row_frac[None, :, None, None]
    return out[0] if squeeze else out


def resize_area(image: np.ndarray, size: int) -> np.ndarray:
    """Area (block-average) resize to ``size`` x ``size``.

    Exact block averaging when the input size is an integer multiple of the
    output size; otherwise falls back to bilinear interpolation, which is a
    good approximation for arbitrary ratios.

    The average is a window sum: each output pixel starts as a copy of its
    window's first pixel, the others are added one at a time in row-major
    order, and the sum is divided by the window's pixel count.  Every step
    is a whole-array operation, so NumPy streams long runs instead of the
    ``channels``-value runs a ``mean`` over the window axes walks.  On
    3-channel input this is NumPy's own reduction order, so the result is
    that ``mean``'s bit for bit; ``TransformSpec.apply`` only ever resizes
    3-channel frames (``to_color_mode`` rejects anything else).  On
    1-channel input NumPy sums window rows pairwise instead, and the two
    agree to about 1e-15 relative.
    """
    _validate_size(size)
    batch, squeeze = _as_batch(image)
    n, height, width, channels = batch.shape
    if height % size == 0 and width % size == 0:
        fh, fw = height // size, width // size
        windows = batch.reshape(n, size, fh, size, fw, channels)
        out = windows[:, :, 0, :, 0].copy()
        for offset in range(1, fh * fw):
            out += windows[:, :, offset // fw, :, offset % fw]
        out /= fh * fw
        return out[0] if squeeze else out
    return resize_bilinear(image, size)


def resize(image: np.ndarray, size: int) -> np.ndarray:
    """Area-resize ``image`` to ``size`` x ``size`` (a copy when already that size)."""
    spatial = image.shape[:2] if image.ndim == 3 else image.shape[1:3]
    if spatial == (size, size):
        return image.copy()
    return resize_area(image, size)
