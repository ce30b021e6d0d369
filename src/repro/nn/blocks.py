"""Composite layers (residual blocks) built on top of the basic layers.

The TAHOMA paper uses a fine-tuned ResNet50 as its expensive reference
classifier.  Our stand-in (:mod:`repro.baselines.reference`) is built from the
:class:`ResidualBlock` defined here: two convolutions with a skip connection,
the defining structural element of residual networks.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D, Layer, ReLU

__all__ = ["ResidualBlock"]


class ResidualBlock(Layer):
    """``y = ReLU(conv2(ReLU(conv1(x))) + project(x))``.

    When ``in_channels != out_channels`` a 1x1 convolution projects the skip
    path so the addition is well defined.  Spatial size is preserved
    (stride 1, "same" padding).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.conv1 = Conv2D(in_channels, out_channels, kernel_size,
                            padding="same", rng=rng)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, kernel_size,
                            padding="same", rng=rng)
        self.relu_out = ReLU()
        self.project: Conv2D | None = None
        if in_channels != out_channels:
            self.project = Conv2D(in_channels, out_channels, kernel_size=1,
                                  padding="valid", rng=rng)
        self._rebind_params()

    # -- parameter plumbing ----------------------------------------------
    def _sublayers(self) -> dict[str, Layer]:
        sublayers = {"conv1": self.conv1, "conv2": self.conv2}
        if self.project is not None:
            sublayers["project"] = self.project
        return sublayers

    def _rebind_params(self) -> None:
        self.params = {}
        for prefix, sublayer in self._sublayers().items():
            for name, value in sublayer.params.items():
                self.params[f"{prefix}.{name}"] = value

    def _collect_grads(self) -> None:
        self.grads = {}
        for prefix, sublayer in self._sublayers().items():
            for name, value in sublayer.grads.items():
                self.grads[f"{prefix}.{name}"] = value

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            hidden = self.relu1.forward(self.conv1.forward(x, training), training)
            main = self.conv2.forward(hidden, training)
            skip = x if self.project is None else self.project.forward(x, training)
            return self.relu_out.forward(main + skip, training)
        # Inference: the same values, with the sum and both ReLUs written in
        # place into arrays the convolutions just allocated; nothing is kept
        # on self and x is only read.
        hidden = self.conv1.forward(x)
        np.maximum(hidden, 0.0, out=hidden)
        main = self.conv2.forward(hidden)
        main += x if self.project is None else self.project.forward(x)
        return np.maximum(main, 0.0, out=main)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_output)
        grad_main = self.conv1.backward(
            self.relu1.backward(self.conv2.backward(grad_sum)))
        if self.project is None:
            grad_skip = grad_sum
        else:
            grad_skip = self.project.backward(grad_sum)
        self._collect_grads()
        return grad_main + grad_skip

    # -- introspection -------------------------------------------------------
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.conv2.output_shape(self.conv1.output_shape(input_shape))

    def flops(self, input_shape: tuple[int, ...]) -> int:
        total = self.conv1.flops(input_shape)
        mid_shape = self.conv1.output_shape(input_shape)
        total += self.conv2.flops(mid_shape)
        if self.project is not None:
            total += self.project.flops(input_shape)
        total += int(np.prod(self.conv2.output_shape(mid_shape)))  # the addition
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResidualBlock({self.in_channels}->{self.out_channels})"
