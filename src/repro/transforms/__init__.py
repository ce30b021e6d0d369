"""Input transformation functions (the paper's set ``F``).

A *physical representation* of an image is produced by resizing it and/or
reducing its color information.  TAHOMA treats the choice of representation as
part of query optimization: smaller representations are cheaper to load,
cheaper to transform and enable much smaller CNNs.

The modules:

* :mod:`repro.transforms.resize`, :mod:`repro.transforms.color` and
  :mod:`repro.transforms.ops` — the low-level image ops, and
* :mod:`repro.transforms.spec` —
  :class:`~repro.transforms.spec.TransformSpec`, the declarative description
  of one representation (resolution + color mode), and
  :func:`~repro.transforms.spec.standard_transform_grid`, the paper's default
  grid of 4 resolutions x 5 color variants.
"""
