"""Miscellaneous image operations: augmentation flips."""

from __future__ import annotations

import numpy as np

__all__ = ["horizontal_flip"]


def horizontal_flip(image: np.ndarray) -> np.ndarray:
    """Mirror an HWC image (or NHWC batch) left-to-right.

    This is the data-augmentation operation the paper uses to double its
    training sets.
    """
    if image.ndim == 3:
        return image[:, ::-1, :].copy()
    if image.ndim == 4:
        return image[:, :, ::-1, :].copy()
    raise ValueError(f"expected HWC or NHWC array, got shape {image.shape}")
