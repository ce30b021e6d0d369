"""Model trainer: fits every model in the design space for one predicate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import TrainedModel
from repro.core.spec import ModelSpec
from repro.data.augment import augment_with_flips
from repro.data.corpus import LabeledDataset
from repro.nn.optimizers import Adam
from repro.nn.train import evaluate_accuracy, fit

__all__ = ["TrainingConfig", "ModelTrainer"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters shared by every specialized model's training run.

    The defaults are sized for the reduced CPU-scale benchmarks; the paper's
    GPU-scale settings simply raise ``epochs`` and the dataset sizes.
    """

    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 0.002
    augment: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError(
                "learning_rate must be positive and finite, got "
                f"{self.learning_rate}")


class ModelTrainer:
    """Trains the set ``M`` of basic models for one binary predicate.

    Each physical representation of the training set is transformed once and
    kept in a ``{spec.name: array}`` dict for the run, so models that share a
    representation do not re-transform the images.
    """

    def __init__(self, config: TrainingConfig | None = None) -> None:
        self.config = config or TrainingConfig()

    def train_model(self, spec: ModelSpec, train_set: LabeledDataset,
                    transformed: dict[str, np.ndarray],
                    rng: np.random.Generator | None = None) -> TrainedModel:
        """Train one model spec and wrap it as a :class:`TrainedModel`.

        ``transformed`` memoises ``train_set`` per representation name; the
        caller shares one dict across the specs it trains on one data set.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        network = spec.build(rng=rng)

        name = spec.transform.name
        if name not in transformed:
            transformed[name] = spec.transform.apply_batch(train_set.images)
        train_images = transformed[name]
        train_labels = train_set.labels
        fit(network, train_images, train_labels,
            epochs=self.config.epochs, batch_size=self.config.batch_size,
            optimizer=Adam(learning_rate=self.config.learning_rate), rng=rng)

        train_accuracy = evaluate_accuracy(network, train_images, train_labels)
        return TrainedModel(name=spec.name, network=network,
                            transform=spec.transform,
                            architecture=spec.architecture,
                            kind="specialized",
                            train_accuracy=train_accuracy)

    def train_models(self, specs: list[ModelSpec], train_set: LabeledDataset,
                     rng: np.random.Generator | None = None
                     ) -> list[TrainedModel]:
        """Train every model spec on (an optionally augmented copy of) ``train_set``."""
        if not specs:
            raise ValueError("specs must be non-empty")
        if len(train_set) == 0:
            raise ValueError("training set is empty")
        rng = rng or np.random.default_rng(self.config.seed)

        dataset = train_set
        if self.config.augment:
            dataset = augment_with_flips(train_set, rng=rng)

        transformed: dict[str, np.ndarray] = {}
        models = []
        for spec in specs:
            models.append(self.train_model(spec, dataset, transformed, rng=rng))
        return models
