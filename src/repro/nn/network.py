"""Sequential network container."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D, ReLU

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers with forward/backward passes.

    Parameters
    ----------
    layers:
        The layers, applied in order.
    input_shape:
        Shape of a single example (without the batch dimension), e.g.
        ``(30, 30, 3)`` for a 30x30 RGB image.  Required for shape inference
        and FLOP accounting; forward passes work without it.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...] | None = None) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape) if input_shape is not None else None

    # -- execution -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Apply the layers in order.

        Inference (``training=False``) returns the bits the training-mode
        pass returns, but runs a ``ReLU`` that follows a ``Conv2D`` or
        ``Dense`` in place on the array that layer just allocated, and a
        ``Conv2D -> ReLU -> MaxPool2D`` block as ``cols @ W`` -> pool ->
        ``+= bias`` -> ReLU, so bias and ReLU touch ``pool**2`` times fewer
        elements (exact: see :mod:`repro.nn.layers`).
        """
        layers = self.layers
        # Exact types: a subclass may override the forward() this bypasses.
        kinds = [type(layer) for layer in layers]
        out, index = x, 0
        while index < len(layers):
            layer = layers[index]
            if not training and kinds[index:index + 3] == [Conv2D, ReLU,
                                                           MaxPool2D]:
                out = layers[index + 2].forward(layer._convolve(out)[1])
                out += layer.params["bias"]
                np.maximum(out, 0.0, out=out)
                index += 3
            elif not training and kinds[index:index + 2] in ([Conv2D, ReLU],
                                                             [Dense, ReLU]):
                out = layer.forward(out)
                np.maximum(out, 0.0, out=out)
                index += 2
            else:
                out = layer.forward(out, training=training)
                index += 1
        return out

    def backward(self, grad_output: np.ndarray) -> None:
        """Populate every layer's ``grads``.  Nothing reads the gradient with
        respect to the network's input, so the first layer is asked only
        for its parameter gradients (:meth:`Layer.backward_params`)."""
        grad = grad_output
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward_params(grad)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Run inference in batches; zero rows give an empty array of the
        output's trailing shape."""
        outputs = []
        for start in range(0, max(x.shape[0], 1), batch_size):
            outputs.append(self.forward(x[start:start + batch_size], training=False))
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=0)

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference returning per-example probabilities.

        For a single sigmoid output node this drops the trailing feature
        dimension; for a two-node softmax head it returns the probability of
        class 1.  The batch dimension always survives — a batch of one maps
        to shape ``(1,)``, never a 0-d scalar.
        """
        out = self.predict(x, batch_size=batch_size)
        if out.ndim == 2 and out.shape[1] == 1:
            return out[:, 0]
        if out.ndim == 2 and out.shape[1] == 2:
            return out[:, 1]
        flat = out.reshape(out.shape[0], -1)
        if flat.shape[1] == 1:
            return flat[:, 0]
        return flat

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, training=False)

    # -- introspection ----------------------------------------------------
    def output_shape(self, input_shape: tuple[int, ...] | None = None) -> tuple[int, ...]:
        shape = input_shape if input_shape is not None else self.input_shape
        if shape is None:
            raise ValueError("input_shape not provided")
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def num_parameters(self) -> int:
        return int(sum(layer.num_parameters() for layer in self.layers))

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat mapping of ``layer<idx>.<name>`` to parameter arrays."""
        params: dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                params[f"layer{index}.{name}"] = value
        return params

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`parameters` (in place).

        Values are copied *into* the existing arrays rather than rebinding
        them: composite layers (e.g. residual blocks) expose views of their
        sublayers' arrays, and rebinding would silently detach the two.
        """
        for index, layer in enumerate(self.layers):
            for name in layer.params:
                key = f"layer{index}.{name}"
                if key not in params:
                    raise KeyError(f"missing parameter {key}")
                value = np.asarray(params[key], dtype=np.float64)
                if value.shape != layer.params[name].shape:
                    raise ValueError(
                        f"shape mismatch for {key}: "
                        f"{value.shape} vs {layer.params[name].shape}")
                layer.params[name][...] = value

    def summary(self) -> str:
        """Human-readable architecture summary."""
        lines = ["Sequential ("]
        shape = self.input_shape
        for layer in self.layers:
            if shape is not None:
                shape = layer.output_shape(shape)
                lines.append(f"  {layer!r} -> {shape}")
            else:
                lines.append(f"  {layer!r}")
        lines.append(f") params={self.num_parameters()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(n_layers={len(self.layers)}, params={self.num_parameters()})"
