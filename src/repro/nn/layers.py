"""Neural-network layers for the NumPy substrate.

Every layer implements:

* ``forward(x, training=False)`` returning the layer output,
* ``backward(grad_output)`` returning the gradient with respect to the input
  and populating ``self.grads`` for parameters,
* ``backward_params(grad_output)`` populating ``self.grads`` alone:
  ``Sequential`` never asks its first layer for an input gradient, since no
  caller reads one, so a first ``Conv2D`` skips ``grad @ W.T`` and
  ``col2im``,
* ``params`` / ``grads`` dictionaries keyed by parameter name,
* ``output_shape(input_shape)`` for static shape inference (batch dim omitted),
* ``flops(input_shape)`` giving the multiply-accumulate count of one forward
  pass on a single example, used by the analytic cost model.

Image tensors use the NHWC layout (batch, height, width, channels).

**One method, two modes.**  ``forward(x, training=True)`` also records what
``backward`` will need (``_cache`` / ``_mask`` / ``_out``).
``forward(x, training=False)`` -- inference, the default -- writes nothing to
``self``: queries on several threads can share one network, and no
batch-sized array (a convolution's im2col matrix is megabytes) stays pinned
between calls.  ``backward`` therefore needs a preceding
``forward(x, training=True)`` and raises ``RuntimeError("backward called
before forward")`` without one.  Neither mode writes to its input, and both
return the same bits, which ``tests/nn/test_inference_path.py`` pins.

That equality covers the one place inference reorders work:
``Sequential.forward`` runs ``Conv2D -> ReLU -> MaxPool2D`` as
``cols @ W`` -> pool -> ``+= bias`` -> ReLU.  The order is exact, not
approximate: floating-point addition of one bias is monotone, so
``max(fl(a + b), fl(c + b)) == fl(max(a, c) + b)``, and max commutes with
ReLU.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.im2col import col2im, conv_output_size, im2col

__all__ = [
    "Layer",
    "Conv2D",
    "MaxPool2D",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Flatten",
    "GlobalAveragePool",
]


class Layer:
    """Base class for all layers."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    # -- interface -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Populate ``self.grads`` for a caller that never reads the input
        gradient.  This default runs ``backward`` and drops the result;
        ``Conv2D`` skips computing it."""
        self.backward(grad_output)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of a single example's output given a single example's input."""
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Approximate multiply-accumulate count for one example."""
        return 0

    def num_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Conv2D(Layer):
    """2-D convolution over NHWC inputs, implemented with im2col.

    Parameters
    ----------
    in_channels:
        Number of input channels.
    out_channels:
        Number of filters.
    kernel_size:
        Square receptive-field size.
    stride:
        Spatial stride.
    padding:
        Either ``"same"`` (zero-pad to preserve spatial size for stride 1) or
        ``"valid"`` (no padding), or an explicit integer.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, padding: str | int = "same",
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("Conv2D dimensions must be positive")
        if stride < 1:
            raise ValueError(f"Conv2D stride must be >= 1, got {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        if padding == "same":
            self.pad = (kernel_size - 1) // 2
        elif padding == "valid":
            self.pad = 0
        elif isinstance(padding, int):
            if padding < 0:
                raise ValueError(f"Conv2D padding must be >= 0, got {padding}")
            self.pad = padding
        else:
            raise ValueError(f"unknown padding {padding!r}")

        rng = rng or np.random.default_rng(0)
        fan_in = kernel_size * kernel_size * in_channels
        weight = initializers.he_normal(
            (fan_in, out_channels), fan_in=fan_in, rng=rng)
        self.params = {"weight": weight,
                       "bias": initializers.zeros((out_channels,))}
        self._cache: tuple | None = None

    def _convolve(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The im2col matrix of ``x`` and its product with the weights, shaped
        ``(N, H', W', K)``: the layer's output before the bias is added, for a
        caller that adds it after pooling (``Sequential.forward``)."""
        if x.ndim != 4:
            raise ValueError(f"Conv2D expects NHWC input, got shape {x.shape}")
        if x.shape[3] != self.in_channels:
            raise ValueError(
                f"Conv2D configured for {self.in_channels} channels, "
                f"got input with {x.shape[3]}")
        batch, height, width, _ = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.pad)
        cols = im2col(x, self.kernel_size, self.kernel_size, self.stride, self.pad)
        out = cols @ self.params["weight"]
        return cols, out.reshape(batch, out_h, out_w, self.out_channels)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, out = self._convolve(x)
        out += self.params["bias"]
        if training:
            self._cache = (x.shape, cols)
        return out

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols = self._cache[1]
        grad_flat = grad_output.reshape(-1, self.out_channels)
        self.grads["weight"] = cols.T @ grad_flat
        self.grads["bias"] = grad_flat.sum(axis=0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params(grad_output)
        grad_cols = (grad_output.reshape(-1, self.out_channels)
                     @ self.params["weight"].T)
        return col2im(grad_cols, self._cache[0], self.kernel_size,
                      self.kernel_size, self.stride, self.pad)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        height, width, _ = input_shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.pad)
        return (out_h, out_w, self.out_channels)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        out_h, out_w, out_c = self.output_shape(input_shape)
        macs_per_output = self.kernel_size * self.kernel_size * self.in_channels
        return int(out_h * out_w * out_c * macs_per_output)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Conv2D({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.pad})")


def _window_max(x: np.ndarray, axis: int, pool: int, stride: int,
                out_size: int) -> np.ndarray:
    """Maximum over ``pool`` consecutive positions along ``axis``, taken every
    ``stride``: ``pool - 1`` calls of ``np.maximum`` on strided slices."""
    span = (out_size - 1) * stride + 1
    lead = (slice(None),) * axis
    out = x[lead + (slice(0, span, stride),)]
    for offset in range(1, pool):
        window = x[lead + (slice(offset, offset + span, stride),)]
        # The first maximum allocates the result; later ones reuse it.
        out = np.maximum(out, window, out=out if offset > 1 else None)
    return out


def _window_argmax(x: np.ndarray, out: np.ndarray, pool: int,
                   stride: int) -> np.ndarray:
    """Flat in-window index (``row * pool + col``) of each window's maximum
    ``out``, as ``argmax`` over a copy of every window would give it: the
    first maximum, or the first NaN where ``out`` is NaN.

    Each of the ``pool**2`` strided slices is compared with ``out``, last
    offset first, so an earlier offset overwrites a later tie.  The last
    offset needs no comparison: a window whose earlier offsets all differ
    from its maximum has it there."""
    out_h, out_w = out.shape[1:3]
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    offsets = [x[:, row:row + span_h:stride, col:col + span_w:stride]
               for row in range(pool) for col in range(pool)]
    argmax = np.full(out.shape, len(offsets) - 1, dtype=np.intp)
    for k in range(len(offsets) - 2, -1, -1):
        argmax[offsets[k] == out] = k
    if np.isnan(out).any():
        # NaN equals nothing, so those windows still point at the last
        # offset; a NaN in a window makes its maximum NaN.
        for k in range(len(offsets) - 1, -1, -1):
            argmax[np.isnan(offsets[k])] = k
    return argmax


class MaxPool2D(Layer):
    """Max pooling over NHWC inputs."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        if stride is not None and stride < 1:
            raise ValueError(f"MaxPool2D stride must be >= 1, got {stride}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(
                f"MaxPool2D expects NHWC input, got shape {x.shape}")
        _, height, width, _ = x.shape
        pool, stride = self.pool_size, self.stride
        out_h = conv_output_size(height, pool, stride, 0)
        out_w = conv_output_size(width, pool, stride, 0)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"input spatial size {(height, width)} too small for pool "
                f"size {pool}")

        # Pairwise maxima over the pool x pool strided slices, rows first
        # (long contiguous runs), then columns of the already-halved result.
        out = _window_max(_window_max(x, 1, pool, stride, out_h),
                          2, pool, stride, out_w)
        if pool == 1:
            out = out.copy()  # a lone slice is still a view of the input
        if training:
            # Only backward() needs to know *where* each maximum sits.
            self._cache = (x.shape, _window_argmax(x, out, pool, stride))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, argmax = self._cache
        batch, _, _, channels = x_shape
        out_h, out_w = argmax.shape[1:3]
        pool, stride = self.pool_size, self.stride
        grad_input = np.zeros(x_shape, dtype=grad_output.dtype)

        # Scatter each output gradient back to its argmax location; the index
        # vectors broadcast against the (N, H', W', C) argmax.
        rows = np.arange(out_h)[:, None, None] * stride + argmax // pool
        cols = np.arange(out_w)[:, None] * stride + argmax % pool
        index = (np.arange(batch)[:, None, None, None], rows, cols,
                 np.arange(channels))
        if stride >= pool:
            # Disjoint windows: each input position receives at most one
            # gradient, so an assignment is the sum.  ``+ 0.0`` turns -0.0
            # into 0.0, as adding it to the zeros would.
            grad_input[index] = grad_output + 0.0
        else:
            np.add.at(grad_input, index, grad_output)
        return grad_input

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        height, width, channels = input_shape
        out_h = conv_output_size(height, self.pool_size, self.stride, 0)
        out_w = conv_output_size(width, self.pool_size, self.stride, 0)
        return (out_h, out_w, channels)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        out_h, out_w, channels = self.output_shape(input_shape)
        return int(out_h * out_w * channels * self.pool_size * self.pool_size)


class GlobalAveragePool(Layer):
    """Average the spatial dimensions of an NHWC tensor, yielding (batch, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._cache = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        batch, height, width, channels = self._cache
        scale = 1.0 / (height * width)
        grad = np.broadcast_to(
            grad_output[:, None, None, :] * scale,
            (batch, height, width, channels))
        return np.array(grad)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        _, _, channels = input_shape
        return (channels,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        height, width, channels = input_shape
        return int(height * width * channels)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._cache = x.shape
        # The explicit product (not -1) keeps a batch of zero rows reshapable.
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._cache)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class Dense(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        weight = initializers.glorot_uniform(
            (in_features, out_features), in_features, out_features, rng)
        self.params = {"weight": weight,
                       "bias": initializers.zeros((out_features,))}
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects 2-D input, got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense configured for {self.in_features} features, got "
                f"{x.shape[1]}")
        out = x @ self.params["weight"]
        out += self.params["bias"]
        if training:
            self._cache = x
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache
        self.grads["weight"] = x.T @ grad_output
        self.grads["bias"] = grad_output.sum(axis=0)
        return grad_output @ self.params["weight"].T

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(self.in_features * self.out_features)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}->{self.out_features})"


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # np.maximum, not np.where(x > 0, x, 0.0): a NaN stays a NaN instead
        # of becoming a confident 0.0.  Inference writes nothing to self, so
        # threads sharing a model share no state.
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        exp_x = np.exp(x[~pos])
        out[~pos] = exp_x / (1.0 + exp_x)
        if training:
            self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._out * (1.0 - self._out)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape)) * 4
