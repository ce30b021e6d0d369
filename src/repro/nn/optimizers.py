"""Gradient-descent optimizers for the NumPy substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer.

    ``step`` receives the list of layers and updates every parameter in place
    using the gradients populated by the preceding backward pass.
    """

    def __init__(self, learning_rate: float = 0.01) -> None:
        if not 0.0 < learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {learning_rate}")
        self.learning_rate = learning_rate

    def step(self, layers) -> None:
        raise NotImplementedError

    def _iter_params(self, layers):
        for layer_index, layer in enumerate(layers):
            for name, param in layer.params.items():
                grad = layer.grads.get(name)
                if grad is None:
                    continue
                yield (layer_index, name), param, grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if not 0.0 < epsilon < np.inf:
            raise ValueError(
                f"epsilon must be positive and finite, got {epsilon}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0

    def step(self, layers) -> None:
        self._t += 1
        lr_t = (self.learning_rate
                * np.sqrt(1.0 - self.beta2 ** self._t)
                / (1.0 - self.beta1 ** self._t))
        for key, param, grad in self._iter_params(layers):
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param)
                v = np.zeros_like(param)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * (grad * grad)
            self._m[key] = m
            self._v[key] = v
            param -= lr_t * m / (np.sqrt(v) + self.epsilon)
