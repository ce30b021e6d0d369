"""Weight initialization schemes for the NumPy network layers."""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "he_normal", "zeros"]


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    Draws from ``U(-limit, limit)`` with ``limit = sqrt(6 / (fan_in + fan_out))``.
    Suitable for layers followed by sigmoid/tanh activations.
    """
    limit = np.sqrt(6.0 / float(fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_normal(shape: tuple[int, ...], fan_in: int,
              rng: np.random.Generator) -> np.ndarray:
    """He normal initialization, suited to ReLU activations."""
    std = np.sqrt(2.0 / float(fan_in))
    return (rng.standard_normal(shape) * std).astype(np.float64)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)
