"""Loss functions for the NumPy substrate."""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import align_targets

__all__ = ["Loss", "BinaryCrossEntropy"]

_EPS = 1e-12


class Loss:
    """Base class: ``forward`` returns the scalar loss, ``backward`` the gradient."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class BinaryCrossEntropy(Loss):
    """Binary cross-entropy over sigmoid outputs in (0, 1)."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = align_targets(predictions, targets)
        clipped = np.clip(predictions, _EPS, 1.0 - _EPS)
        losses = -(targets * np.log(clipped)
                   + (1.0 - targets) * np.log(1.0 - clipped))
        return float(losses.mean())

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions, targets = align_targets(predictions, targets)
        clipped = np.clip(predictions, _EPS, 1.0 - _EPS)
        grad = (clipped - targets) / (clipped * (1.0 - clipped))
        return grad / predictions.size
