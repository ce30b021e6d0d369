"""Synthetic visual corpus generation.

The paper evaluates on ten ImageNet categories plus two NoScope video
datasets.  Neither is redistributable (nor usable offline), so this package
provides a parametric substitute:

* :mod:`repro.data.categories` — the ten Table II categories, each mapped to a
  procedural object renderer (shape, color signature, texture),
* :mod:`repro.data.synthesis` — the renderer that composites objects onto
  cluttered backgrounds,
* :mod:`repro.data.corpus` — labeled datasets and train/config/eval splits per
  binary predicate, plus a queryable image corpus with metadata,
* :mod:`repro.data.video` — temporally coherent synthetic video streams used
  for the NoScope comparison (Figure 8), and
* :mod:`repro.data.augment` — the horizontal-flip augmentation the paper uses.

The relevant behaviour preserved by the substitution: labels are exact, task
difficulty responds to resolution and color-channel reduction, and video
streams exhibit controllable frame-to-frame redundancy.
"""
