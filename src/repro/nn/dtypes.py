"""Single entry point for float coercions in the ``nn/`` stack.

Every ``np.asarray(..., dtype=...)`` in the training/loss path goes through
:func:`as_float` / :func:`align_targets`, so the stack's precision is set in
one place and a batch/target size mismatch raises a :class:`ValueError`
naming both shapes instead of numpy's opaque reshape error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_FLOAT", "as_float", "align_targets"]

#: The stack's working precision.
DEFAULT_FLOAT = np.float64


def as_float(values, dtype=DEFAULT_FLOAT):
    """Coerce ``values`` to a floating ndarray of the stack's precision."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError(f"as_float needs a floating dtype, got {dtype}")
    return np.asarray(values, dtype=dtype)


def align_targets(predictions, targets):
    """Return ``(predictions, targets)`` as floats with matching shapes.

    ``targets`` is reshaped to ``predictions.shape`` only when the element
    counts agree; a count mismatch raises a ``ValueError`` naming both
    shapes (instead of numpy's opaque reshape error).
    """
    predictions = as_float(predictions)
    targets = as_float(targets)
    if targets.shape != predictions.shape:
        if targets.size != predictions.size:
            raise ValueError(
                f"targets shape {targets.shape} ({targets.size} elements) "
                f"does not match predictions shape {predictions.shape} "
                f"({predictions.size} elements)")
        targets = targets.reshape(predictions.shape)
    return predictions, targets
