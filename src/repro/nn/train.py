"""Training loop for the NumPy substrate."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.dtypes import as_float
from repro.nn.losses import BinaryCrossEntropy, Loss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam, Optimizer

__all__ = ["TrainingHistory", "EarlyStopping", "fit", "evaluate_accuracy", "iterate_minibatches"]


@dataclass
class TrainingHistory:
    """Loss/accuracy recorded per epoch during :func:`fit`."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)


@dataclass
class EarlyStopping:
    """Stop training when validation loss stops improving.

    Parameters
    ----------
    patience:
        Number of epochs without improvement tolerated before stopping.
    min_delta:
        Minimum decrease in validation loss that counts as an improvement.
    """

    patience: int = 3
    min_delta: float = 1e-4
    _best: float = field(default=float("inf"), init=False)
    _bad_epochs: int = field(default=0, init=False)

    def should_stop(self, val_loss: float) -> bool:
        if val_loss < self._best - self.min_delta:
            self._best = val_loss
            self._bad_epochs = 0
            return False
        self._bad_epochs += 1
        return self._bad_epochs >= self.patience


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
    # shape: (N, ...), (...) -> ()
    """Binary classification accuracy of ``network`` on ``(x, y)``."""
    if x.shape[0] == 0:
        return float("nan")
    probabilities = network.predict_proba(x, batch_size=batch_size)
    predictions = (probabilities >= threshold).astype(np.int64)
    return float((predictions == np.asarray(y).astype(np.int64).ravel()).mean())


def fit(network: Sequential, x_train: np.ndarray, y_train: np.ndarray,
        *, x_val: np.ndarray | None = None, y_val: np.ndarray | None = None,
        epochs: int = 10, batch_size: int = 32,
        loss: Loss | None = None, optimizer: Optimizer | None = None,
        early_stopping: EarlyStopping | None = None,
        rng: np.random.Generator | None = None,
        verbose: bool = False) -> TrainingHistory:
    """Train ``network`` with mini-batch gradient descent.

    Returns the per-epoch :class:`TrainingHistory`.  Validation metrics are
    recorded only when a validation set is provided; early stopping requires
    a validation set.
    """
    if x_train.shape[0] == 0:
        raise ValueError("training set is empty")
    if x_train.shape[0] != np.asarray(y_train).shape[0]:
        raise ValueError("x_train and y_train have different lengths")
    if early_stopping is not None and (x_val is None or y_val is None):
        raise ValueError("early stopping requires a validation set")

    loss = loss or BinaryCrossEntropy()
    optimizer = optimizer or Adam(learning_rate=0.002)
    rng = rng or np.random.default_rng(0)
    y_train = as_float(y_train)

    history = TrainingHistory()
    for epoch in range(epochs):
        epoch_losses = []
        for x_batch, y_batch in iterate_minibatches(x_train, y_train,
                                                    batch_size, rng):
            predictions = network.forward(x_batch, training=True)
            batch_loss = loss.forward(predictions, y_batch)
            grad = loss.backward(predictions, y_batch)
            network.backward(grad)
            optimizer.step(network.layers)
            epoch_losses.append(batch_loss)

        history.train_loss.append(float(np.mean(epoch_losses)))
        history.train_accuracy.append(
            evaluate_accuracy(network, x_train, y_train))

        if x_val is not None and y_val is not None:
            val_pred = network.predict(x_val)
            val_loss = loss.forward(val_pred, as_float(y_val))
            history.val_loss.append(float(val_loss))
            history.val_accuracy.append(
                evaluate_accuracy(network, x_val, y_val))
            if verbose:  # pragma: no cover - logging only
                print(f"epoch {epoch + 1}/{epochs} "
                      f"loss={history.train_loss[-1]:.4f} "
                      f"val_loss={val_loss:.4f} "
                      f"val_acc={history.val_accuracy[-1]:.3f}")
            if early_stopping is not None and early_stopping.should_stop(val_loss):
                break
        elif verbose:  # pragma: no cover - logging only
            print(f"epoch {epoch + 1}/{epochs} loss={history.train_loss[-1]:.4f}")

    return history
