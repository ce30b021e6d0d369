"""Declarative transformation specifications (the elements of the set ``F``).

A :class:`TransformSpec` names one *physical representation* of the input
image: a target square resolution plus one of the paper's five color variants.
The cross product of a resolution list and the color variants — built by
:func:`standard_transform_grid` — is the paper's 4 x 5 = 20-element ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.transforms.color import COLOR_MODES, channels_for_mode, to_color_mode
from repro.transforms.resize import resize

__all__ = [
    "TransformSpec",
    "standard_transform_grid",
    "transform_subsets",
    "PAPER_RESOLUTIONS",
    "PAPER_COLOR_MODES",
]

#: The resolutions used in the paper's experiments (Section VII-A).
PAPER_RESOLUTIONS = (30, 60, 120, 224)

#: The color variants used in the paper's experiments.
PAPER_COLOR_MODES = COLOR_MODES


@dataclass(frozen=True)
class TransformSpec:
    """One physical input representation.

    Parameters
    ----------
    resolution:
        Target square size in pixels.
    color_mode:
        One of ``rgb``, ``red``, ``green``, ``blue``, ``gray``.

    Resizing is area interpolation, bilinear for non-integer ratios
    (:func:`~repro.transforms.resize.resize`): the paper's design space
    varies resolution and colour only.
    """

    resolution: int
    color_mode: str = "rgb"

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.color_mode not in COLOR_MODES:
            raise ValueError(f"unknown color mode {self.color_mode!r}")

    # -- derived properties ------------------------------------------------
    @property
    def channels(self) -> int:
        """Number of channels in the produced representation."""
        return channels_for_mode(self.color_mode)

    @property
    def shape(self) -> tuple[int, int, int]:
        """HWC shape of the produced representation."""
        return (self.resolution, self.resolution, self.channels)

    @property
    def num_values(self) -> int:
        """Number of scalar input values (drives CNN input size and cost)."""
        return self.resolution * self.resolution * self.channels

    @property
    def name(self) -> str:
        """Stable human-readable identifier, e.g. ``60x60-gray``."""
        return f"{self.resolution}x{self.resolution}-{self.color_mode}"

    def is_native(self, frame_shape: tuple[int, ...]) -> bool:
        """Whether this representation *is* frames of HWC ``frame_shape``:
        RGB at the frames' own resolution, so producing it transforms
        nothing.  The one definition of "native" — the cost model prices it
        at zero and the query engine reads the frames in its place."""
        return self.color_mode == "rgb" and tuple(frame_shape) == self.shape

    # -- application ---------------------------------------------------------
    def apply(self, image: np.ndarray) -> np.ndarray:
        """Transform one HWC image (or an NHWC batch) into this representation.

        Always a fresh array: for a native spec (:meth:`is_native`)
        ``to_color_mode`` still makes one copy, which is why the query
        engine never calls this for one and reads the frames instead.
        """
        if image.shape[-3:-1] != (self.resolution, self.resolution):
            image = resize(image, self.resolution)
        return to_color_mode(image, self.color_mode)

    def apply_batch(self, images: np.ndarray) -> np.ndarray:
        """Transform an NHWC batch; provided for readability at call sites."""
        if images.ndim != 4:
            raise ValueError(f"expected NHWC batch, got shape {images.shape}")
        return self.apply(images)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def standard_transform_grid(
        resolutions: tuple[int, ...] = PAPER_RESOLUTIONS,
        color_modes: tuple[str, ...] = PAPER_COLOR_MODES) -> list[TransformSpec]:
    """The paper's grid: every resolution crossed with every color variant."""
    if not resolutions or not color_modes:
        raise ValueError("resolutions and color_modes must be non-empty")
    return [TransformSpec(resolution=r, color_mode=c)
            for r in resolutions for c in color_modes]


def transform_subsets(
        resolutions: tuple[int, ...] = PAPER_RESOLUTIONS,
        color_modes: tuple[str, ...] = PAPER_COLOR_MODES
        ) -> dict[str, list[TransformSpec]]:
    """The four transformation subsets of Figure 10.

    * ``none`` — only the full-resolution, full-color representation,
    * ``color`` — full resolution, all color variants,
    * ``resize`` — all resolutions, full color only,
    * ``full`` — the complete grid.
    """
    full_resolution = max(resolutions)
    return {
        "none": [TransformSpec(full_resolution, "rgb")],
        "color": [TransformSpec(full_resolution, mode) for mode in color_modes],
        "resize": [TransformSpec(resolution, "rgb") for resolution in resolutions],
        "full": standard_transform_grid(resolutions, color_modes),
    }
