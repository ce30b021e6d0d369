"""Training loop for the NumPy substrate."""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import as_float
from repro.nn.losses import BinaryCrossEntropy, Loss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam, Optimizer

__all__ = ["fit", "evaluate_accuracy", "iterate_minibatches"]


def iterate_minibatches(x: np.ndarray, y: np.ndarray, batch_size: int,
                        rng: np.random.Generator, shuffle: bool = True):
    """Yield ``(x_batch, y_batch)`` mini-batches, optionally shuffled."""
    indices = np.arange(x.shape[0])
    if shuffle:
        rng.shuffle(indices)
    for start in range(0, x.shape[0], batch_size):
        batch = indices[start:start + batch_size]
        yield x[batch], y[batch]


def evaluate_accuracy(network: Sequential, x: np.ndarray, y: np.ndarray,
                      threshold: float = 0.5, batch_size: int = 256) -> float:
    """Binary classification accuracy of ``network`` on ``(x, y)``."""
    if x.shape[0] == 0:
        return float("nan")
    probabilities = network.predict_proba(x, batch_size=batch_size)
    predictions = (probabilities >= threshold).astype(np.int64)
    return float((predictions == np.asarray(y).astype(np.int64).ravel()).mean())


def fit(network: Sequential, x_train: np.ndarray, y_train: np.ndarray,
        *, epochs: int = 10, batch_size: int = 32,
        loss: Loss | None = None, optimizer: Optimizer | None = None,
        rng: np.random.Generator | None = None) -> list[float]:
    """Train ``network`` with mini-batch gradient descent.

    Returns the mean training loss of each epoch.  The loop scores nothing
    else: a caller that wants an accuracy asks :func:`evaluate_accuracy`
    once, after training.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if x_train.shape[0] == 0:
        raise ValueError("training set is empty")
    if x_train.shape[0] != np.asarray(y_train).shape[0]:
        raise ValueError("x_train and y_train have different lengths")

    loss = loss or BinaryCrossEntropy()
    optimizer = optimizer or Adam(learning_rate=0.002)
    rng = rng or np.random.default_rng(0)
    y_train = as_float(y_train)

    epoch_losses = []
    for _ in range(epochs):
        batch_losses = []
        for x_batch, y_batch in iterate_minibatches(x_train, y_train,
                                                    batch_size, rng):
            predictions = network.forward(x_batch, training=True)
            batch_losses.append(loss.forward(predictions, y_batch))
            network.backward(loss.backward(predictions, y_batch))
            optimizer.step(network.layers)
        epoch_losses.append(float(np.mean(batch_losses)))
    return epoch_losses
