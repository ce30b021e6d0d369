"""The expensive reference classifier (stand-in for ResNet50 / YOLOv2).

The paper fine-tunes a pre-trained ResNet50 as its most accurate (and by far
slowest) classifier, and uses YOLOv2 as the expensive oracle in the NoScope
comparison.  Neither can be run here, so this module builds a much deeper and
wider residual NumPy CNN over the full-size, full-color representation.  What
matters for the reproduction is preserved: it is the most accurate model in
the pool and its per-image FLOP count is orders of magnitude above the
specialized models', which produces the paper's large speedup headroom.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import TrainedModel
from repro.data.augment import augment_with_flips
from repro.data.corpus import PredicateDataSplits
from repro.nn.blocks import ResidualBlock
from repro.nn.layers import Conv2D, Dense, GlobalAveragePool, MaxPool2D, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.train import evaluate_accuracy, fit
from repro.transforms.spec import TransformSpec

__all__ = ["build_reference_network", "train_reference_model", "reference_transform"]


def reference_transform(resolution: int) -> TransformSpec:
    """The reference classifier always consumes the full-color representation."""
    return TransformSpec(resolution=resolution, color_mode="rgb")


def build_reference_network(input_shape: tuple[int, int, int],
                            base_width: int = 24, n_stages: int = 3,
                            blocks_per_stage: int = 2,
                            dense_units: int = 64,
                            rng: np.random.Generator | None = None) -> Sequential:
    """Build the deep residual reference network.

    The architecture is a scaled-down ResNet: a convolutional stem followed by
    ``n_stages`` stages of residual blocks, each stage doubling the channel
    width and halving the spatial resolution, then global average pooling and
    a small dense head with a sigmoid output.
    """
    if n_stages < 1 or blocks_per_stage < 1:
        raise ValueError("n_stages and blocks_per_stage must be positive")
    height, width, channels = input_shape
    if height < 2 ** n_stages:
        raise ValueError(
            f"input resolution {height} too small for {n_stages} pooling stages")
    rng = rng or np.random.default_rng(0)

    layers: list = [Conv2D(channels, base_width, kernel_size=3, padding="same",
                           rng=rng), ReLU()]
    in_channels = base_width
    for stage in range(n_stages):
        out_channels = base_width * (2 ** stage)
        for block in range(blocks_per_stage):
            block_in = in_channels if block == 0 else out_channels
            layers.append(ResidualBlock(block_in, out_channels, rng=rng))
        layers.append(MaxPool2D(2))
        in_channels = out_channels

    layers.append(GlobalAveragePool())
    layers.append(Dense(in_channels, dense_units, rng=rng))
    layers.append(ReLU())
    layers.append(Dense(dense_units, 1, rng=rng))
    layers.append(Sigmoid())
    return Sequential(layers, input_shape=input_shape)


def train_reference_model(splits: PredicateDataSplits, *, resolution: int,
                          epochs: int = 8, batch_size: int = 16,
                          learning_rate: float = 0.004,
                          base_width: int = 24, n_stages: int = 3,
                          blocks_per_stage: int = 2, dense_units: int = 64,
                          augment: bool = True,
                          name: str = "reference",
                          rng: np.random.Generator | None = None) -> TrainedModel:
    """Train the reference classifier for one predicate.

    This plays the role of the paper's fine-tuned ResNet50: trained on the
    same (augmented) training set as the specialized models, but consuming the
    full-resolution, full-color representation.
    """
    rng = rng or np.random.default_rng(0)
    transform = reference_transform(resolution)
    network = build_reference_network(transform.shape, base_width=base_width,
                                      n_stages=n_stages,
                                      blocks_per_stage=blocks_per_stage,
                                      dense_units=dense_units, rng=rng)

    dataset = splits.train
    if augment:
        dataset = augment_with_flips(dataset, rng=rng)
    images = transform.apply_batch(dataset.images)
    labels = dataset.labels

    fit(network, images, labels, epochs=epochs, batch_size=batch_size,
        optimizer=Adam(learning_rate=learning_rate), rng=rng)
    train_accuracy = evaluate_accuracy(network, images, labels)

    return TrainedModel(name=name, network=network, transform=transform,
                        architecture=None, kind="reference",
                        train_accuracy=train_accuracy)
