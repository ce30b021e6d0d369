"""Input transformation functions (the paper's set ``F``).

A *physical representation* of an image is produced by resizing it and/or
reducing its color information.  TAHOMA treats the choice of representation as
part of query optimization: smaller representations are cheaper to load,
cheaper to transform and enable much smaller CNNs.

The public surface is:

* low-level image ops (:mod:`repro.transforms.resize`,
  :mod:`repro.transforms.color`, :mod:`repro.transforms.ops`),
* :class:`~repro.transforms.spec.TransformSpec`, the declarative description
  of one representation (resolution + color mode), and
* :func:`~repro.transforms.spec.standard_transform_grid`, the paper's default
  grid of 4 resolutions x 5 color variants.
"""

from repro.transforms.color import (
    COLOR_MODES,
    channels_for_mode,
    extract_channel,
    quantize_color_depth,
    to_color_mode,
    to_grayscale,
)
from repro.transforms.ops import horizontal_flip
from repro.transforms.resize import resize, resize_area, resize_bilinear
from repro.transforms.spec import (
    PAPER_COLOR_MODES,
    PAPER_RESOLUTIONS,
    TransformSpec,
    standard_transform_grid,
    transform_subsets,
)

__all__ = [
    "resize",
    "resize_area",
    "resize_bilinear",
    "to_grayscale",
    "extract_channel",
    "to_color_mode",
    "quantize_color_depth",
    "channels_for_mode",
    "COLOR_MODES",
    "horizontal_flip",
    "TransformSpec",
    "standard_transform_grid",
    "transform_subsets",
    "PAPER_RESOLUTIONS",
    "PAPER_COLOR_MODES",
]
