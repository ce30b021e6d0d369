"""Color-space transformations: channel extraction, grayscale, depth reduction.

The paper's five color variants per resolution are: full 3-channel color, the
individual red/green/blue channels, and single-channel grayscale.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COLOR_MODES",
    "channels_for_mode",
    "to_grayscale",
    "extract_channel",
    "to_color_mode",
    "quantize_color_depth",
]

#: The paper's five color variants.
COLOR_MODES = ("rgb", "red", "green", "blue", "gray")

_CHANNEL_INDEX = {"red": 0, "green": 1, "blue": 2}

#: ITU-R BT.601 luma coefficients.
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)


def channels_for_mode(mode: str) -> int:
    """Number of channels in the representation produced by ``mode``."""
    if mode == "rgb":
        return 3
    if mode in COLOR_MODES:
        return 1
    raise ValueError(f"unknown color mode {mode!r}; choose from {COLOR_MODES}")


def _check_rgb(image: np.ndarray) -> None:
    if image.shape[-1] != 3:
        raise ValueError(
            f"expected a 3-channel image, got {image.shape[-1]} channels")


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Convert an RGB image (HWC or NHWC) to single-channel grayscale."""
    _check_rgb(image)
    gray = image @ _LUMA
    return gray[..., None]


def extract_channel(image: np.ndarray, channel: str) -> np.ndarray:
    """Extract one of the ``red``/``green``/``blue`` channels as a 1-channel image."""
    _check_rgb(image)
    try:
        index = _CHANNEL_INDEX[channel]
    except KeyError:
        raise ValueError(f"unknown channel {channel!r}; "
                         f"choose from {sorted(_CHANNEL_INDEX)}") from None
    return image[..., index:index + 1].copy()


def to_color_mode(image: np.ndarray, mode: str) -> np.ndarray:
    """Apply one of the paper's color variants to an RGB image."""
    if mode == "rgb":
        _check_rgb(image)
        return image.copy()
    if mode == "gray":
        return to_grayscale(image)
    if mode in _CHANNEL_INDEX:
        return extract_channel(image, mode)
    raise ValueError(f"unknown color mode {mode!r}; choose from {COLOR_MODES}")


def quantize_color_depth(image: np.ndarray, bits: int) -> np.ndarray:
    """Reduce color depth to ``bits`` bits per channel (values stay in [0, 1]).

    Not part of the paper's default grid but listed as one of the physical
    representation knobs; exposed for the extension benchmarks.
    """
    if not 1 <= bits <= 8:
        raise ValueError("bits must be between 1 and 8")
    levels = 2 ** bits - 1
    return np.round(np.clip(image, 0.0, 1.0) * levels) / levels
