"""Model design space: architecture specifications and model specifications.

The paper parameterizes each basic model by an architecture specification
``A`` (number of convolutional layers, nodes per layer, dense-layer width) and
an input transformation ``F`` (a :class:`~repro.transforms.spec.TransformSpec`).
The cross product ``A x F`` is the model design space; in the paper's
experiments it contains 360 models per binary predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.transforms.spec import TransformSpec

__all__ = [
    "ArchitectureSpec",
    "ModelSpec",
    "standard_architecture_grid",
    "build_model_grid",
    "PAPER_CONV_LAYERS",
    "PAPER_CONV_FILTERS",
    "PAPER_DENSE_UNITS",
]

#: Architecture hyperparameter values used in the paper (Section VII-A).
PAPER_CONV_LAYERS = (1, 2, 4)
PAPER_CONV_FILTERS = (16, 32)
PAPER_DENSE_UNITS = (16, 32, 64)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Hyperparameters of one small specialized CNN (paper Figure 3).

    The network is ``[Conv -> ReLU -> MaxPool] * n`` followed by a fully
    connected ReLU layer and a single sigmoid output node.

    Parameters
    ----------
    conv_layers:
        Number of convolution/pooling blocks.
    conv_filters:
        Number of filters in each convolutional layer.
    dense_units:
        Width of the fully connected layer before the output node.
    kernel_size:
        Convolution kernel size.
    pool_size:
        Max-pooling window (and stride).
    """

    conv_layers: int
    conv_filters: int
    dense_units: int
    kernel_size: int = 3
    pool_size: int = 2

    def __post_init__(self) -> None:
        if self.conv_layers < 1:
            raise ValueError("need at least one convolutional layer")
        if self.conv_filters < 1 or self.dense_units < 1:
            raise ValueError("layer widths must be positive")
        if self.kernel_size < 1 or self.pool_size < 1:
            raise ValueError("kernel and pool sizes must be positive")

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``c2f16d32``."""
        return f"c{self.conv_layers}f{self.conv_filters}d{self.dense_units}"

    def fits_input(self, resolution: int) -> bool:
        """Whether an input of the given resolution survives all pooling stages."""
        size = resolution
        for _ in range(self.conv_layers):
            size = size // self.pool_size
            if size < 1:
                return False
        return True

    def build(self, input_shape: tuple[int, int, int],
              rng: np.random.Generator | None = None) -> Sequential:
        """Instantiate a :class:`~repro.nn.network.Sequential` for this spec."""
        height, width, channels = input_shape
        if height != width:
            raise ValueError("only square inputs are supported")
        if not self.fits_input(height):
            raise ValueError(
                f"input resolution {height} too small for {self.conv_layers} "
                f"pooling stages of size {self.pool_size}")
        rng = rng or np.random.default_rng(0)

        layers = []
        in_channels = channels
        size = height
        for _ in range(self.conv_layers):
            layers.append(Conv2D(in_channels, self.conv_filters,
                                 kernel_size=self.kernel_size,
                                 padding="same", rng=rng))
            layers.append(ReLU())
            layers.append(MaxPool2D(self.pool_size))
            in_channels = self.conv_filters
            size = size // self.pool_size

        layers.append(Flatten())
        flat_features = size * size * in_channels
        layers.append(Dense(flat_features, self.dense_units, rng=rng))
        layers.append(ReLU())
        layers.append(Dense(self.dense_units, 1, rng=rng))
        layers.append(Sigmoid())
        return Sequential(layers, input_shape=input_shape)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class ModelSpec:
    """One point in the design space: an architecture plus an input representation."""

    architecture: ArchitectureSpec
    transform: TransformSpec

    @property
    def name(self) -> str:
        """Stable identifier combining both components."""
        return f"{self.architecture.name}-{self.transform.name}"

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return self.transform.shape

    def is_valid(self) -> bool:
        """Whether the architecture fits the representation's resolution."""
        return self.architecture.fits_input(self.transform.resolution)

    def build(self, rng: np.random.Generator | None = None) -> Sequential:
        """Instantiate the untrained network for this model spec."""
        return self.architecture.build(self.input_shape, rng=rng)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def standard_architecture_grid(
        conv_layers: tuple[int, ...] = PAPER_CONV_LAYERS,
        conv_filters: tuple[int, ...] = PAPER_CONV_FILTERS,
        dense_units: tuple[int, ...] = PAPER_DENSE_UNITS) -> list[ArchitectureSpec]:
    """The paper's architecture grid: 3 x 2 x 3 = 18 specifications by default."""
    if not conv_layers or not conv_filters or not dense_units:
        raise ValueError("all hyperparameter tuples must be non-empty")
    return [ArchitectureSpec(layers, filters, units)
            for layers in conv_layers
            for filters in conv_filters
            for units in dense_units]


def build_model_grid(architectures: list[ArchitectureSpec],
                     transforms: list[TransformSpec],
                     skip_invalid: bool = True) -> list[ModelSpec]:
    """Cross the architecture and transformation grids into model specs.

    Combinations whose architecture cannot pool the representation's small
    resolution are dropped when ``skip_invalid`` is True (the default) and
    raise otherwise.
    """
    if not architectures or not transforms:
        raise ValueError("architectures and transforms must be non-empty")
    specs = []
    for architecture in architectures:
        for transform in transforms:
            spec = ModelSpec(architecture=architecture, transform=transform)
            if spec.is_valid():
                specs.append(spec)
            elif not skip_invalid:
                raise ValueError(f"architecture {architecture.name} does not fit "
                                 f"representation {transform.name}")
    return specs
