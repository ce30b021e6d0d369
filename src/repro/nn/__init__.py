"""A small, self-contained NumPy deep-learning substrate.

This package stands in for the Keras/TensorFlow stack the TAHOMA paper used
to train and execute its convolutional classifiers.  It provides:

* layers (:mod:`repro.nn.layers`): convolution, pooling, dense, activations,
* losses (:mod:`repro.nn.losses`) and optimizers (:mod:`repro.nn.optimizers`),
* a :class:`~repro.nn.network.Sequential` container with forward/backward
  passes and parameter management,
* a training loop (:mod:`repro.nn.train`) with mini-batching and shuffling,
  and
* per-layer FLOP accounting (:mod:`repro.nn.flops`) used by the analytic cost
  model.

A network's weights are the flat mapping
:meth:`~repro.nn.network.Sequential.parameters` returns and
:meth:`~repro.nn.network.Sequential.set_parameters` loads; the model
repository (:mod:`repro.core.persistence`) stores them.

The layer API is intentionally tiny: every layer implements ``forward``,
``backward`` and exposes ``params`` / ``grads`` dictionaries.  Input tensors
use the NHWC layout (batch, height, width, channels).
"""

from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
)
from repro.nn.losses import BinaryCrossEntropy, Loss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.train import evaluate_accuracy, fit
from repro.nn.flops import count_network_flops, count_layer_flops

__all__ = [
    "Layer",
    "Conv2D",
    "MaxPool2D",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Flatten",
    "GlobalAveragePool",
    "Loss",
    "BinaryCrossEntropy",
    "Optimizer",
    "Adam",
    "Sequential",
    "fit",
    "evaluate_accuracy",
    "count_network_flops",
    "count_layer_flops",
]
