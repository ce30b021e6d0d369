"""Trained classification models (the elements of the paper's set ``M``)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import ArchitectureSpec
from repro.nn.flops import count_network_flops
from repro.nn.network import Sequential
from repro.transforms.spec import TransformSpec

__all__ = ["TrainedModel"]


@dataclass
class TrainedModel:
    """A trained binary classifier plus the representation it consumes.

    Parameters
    ----------
    name:
        Stable identifier (unique within one optimizer run).
    network:
        The trained :class:`~repro.nn.network.Sequential`.
    transform:
        The physical input representation the network expects.
    architecture:
        The architecture specification, or ``None`` for externally built
        models such as the reference classifier.
    kind:
        ``"specialized"`` for the small grid models, ``"reference"`` for the
        expensive stand-in for ResNet50/YOLOv2.
    flops:
        Per-image forward-pass FLOPs; computed from the network if omitted.
    """

    name: str
    network: Sequential
    transform: TransformSpec
    architecture: ArchitectureSpec | None = None
    kind: str = "specialized"
    flops: int = field(default=0)
    train_accuracy: float = float("nan")

    def __post_init__(self) -> None:
        if self.kind not in ("specialized", "reference"):
            raise ValueError("kind must be 'specialized' or 'reference'")
        if self.flops <= 0:
            self.flops = count_network_flops(self.network, self.transform.shape)

    @property
    def is_reference(self) -> bool:
        return self.kind == "reference"

    # -- inference -----------------------------------------------------------
    def predict_proba(self, raw_images: np.ndarray,
                      batch_size: int = 256) -> np.ndarray:
        """Probabilities for raw (full-size RGB) images; applies the transform."""
        transformed = self.transform.apply_batch(raw_images)
        return self.network.predict_proba(transformed, batch_size=batch_size)

    def predict_proba_transformed(self, representation: np.ndarray,
                                  batch_size: int = 256) -> np.ndarray:
        """Probabilities for images already in this model's representation."""
        if representation.shape[1:] != self.transform.shape:
            raise ValueError(
                f"representation shape {representation.shape[1:]} does not "
                f"match {self.transform.shape}")
        return self.network.predict_proba(representation, batch_size=batch_size)

    def predict(self, raw_images: np.ndarray, threshold: float = 0.5,
                batch_size: int = 256) -> np.ndarray:
        """Hard binary labels for raw images."""
        return (self.predict_proba(raw_images, batch_size) >= threshold).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TrainedModel({self.name!r}, kind={self.kind!r}, "
                f"flops={self.flops})")
