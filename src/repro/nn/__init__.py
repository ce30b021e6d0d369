"""A small, self-contained NumPy deep-learning substrate.

This package stands in for the Keras/TensorFlow stack the TAHOMA paper used
to train and execute its convolutional classifiers.  It provides:

* layers (:mod:`repro.nn.layers`): convolution, pooling, dense, activations,
  with residual blocks (:mod:`repro.nn.blocks`), weight initializers
  (:mod:`repro.nn.initializers`) and im2col (:mod:`repro.nn.im2col`),
* losses (:mod:`repro.nn.losses`) and optimizers (:mod:`repro.nn.optimizers`),
* a :class:`~repro.nn.network.Sequential` container with forward/backward
  passes and parameter management,
* a training loop (:mod:`repro.nn.train`) with mini-batching and shuffling,
* per-layer FLOP accounting (:mod:`repro.nn.flops`) used by the analytic cost
  model,
* one place for float coercions (:mod:`repro.nn.dtypes`), and
* OpenBLAS's thread count, held at one while fan-out shards run in parallel
  (:mod:`repro.nn.blas`).

A network's weights are the flat mapping
:meth:`~repro.nn.network.Sequential.parameters` returns and
:meth:`~repro.nn.network.Sequential.set_parameters` loads; the model
repository (:mod:`repro.core.persistence`) stores them.

The layer API is intentionally tiny: every layer implements ``forward``,
``backward`` and exposes ``params`` / ``grads`` dictionaries.  Input tensors
use the NHWC layout (batch, height, width, channels).
"""
