"""Model-repository persistence (the "model repository" of paper Figure 2).

System initialization is the expensive part of TAHOMA: tens to hundreds of
models are trained per binary predicate.  This module saves an initialized
:class:`~repro.core.optimizer.TahomaOptimizer` — model weights, architecture
and representation metadata, calibrated thresholds, cached evaluation-set
predictions and the enumerated cascade structure inputs — to a directory, and
restores it without retraining.

Layout of a saved repository (format 3)::

    <root>/
      repository.json         # metadata: specs, thresholds, config, labels
      weights.npz             # every network's parameters, one archive:
                              # ``<model>/<param>`` for each trained model
                              # and the reference

Both files, and the directory entries naming them, are fsynced before
:func:`save_optimizer` returns, so a database manifest may name the
repository as soon as it is written.

Cascades are not stored explicitly (there can be millions); they are re-built
from the saved model pool and thresholds on load, which takes milliseconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.model import TrainedModel
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.spec import ArchitectureSpec
from repro.core.thresholds import DecisionThresholds
from repro.core.trainer import TrainingConfig
from repro.transforms.spec import TransformSpec

__all__ = ["save_optimizer", "load_optimizer", "transform_to_dict",
           "transform_from_dict", "fsync_path"]

#: The one repository format :func:`load_optimizer` reads (the one
#: :func:`save_optimizer` writes).
_FORMAT_VERSION = 3

_MANIFEST_FILE = "repository.json"
_WEIGHTS_FILE = "weights.npz"


def _architecture_to_dict(architecture: ArchitectureSpec | None) -> dict | None:
    if architecture is None:
        return None
    return {"conv_layers": architecture.conv_layers,
            "conv_filters": architecture.conv_filters,
            "dense_units": architecture.dense_units,
            "kernel_size": architecture.kernel_size,
            "pool_size": architecture.pool_size}


def _architecture_from_dict(data: dict | None) -> ArchitectureSpec | None:
    if data is None:
        return None
    return ArchitectureSpec(**data)


def transform_to_dict(transform: TransformSpec) -> dict:
    """JSON form of a representation spec (also used by the database manifest)."""
    return {"resolution": transform.resolution,
            "color_mode": transform.color_mode}


def transform_from_dict(data: dict) -> TransformSpec:
    """Inverse of :func:`transform_to_dict`."""
    return TransformSpec(**data)


def _model_to_dict(model: TrainedModel) -> dict:
    return {"name": model.name,
            "kind": model.kind,
            "flops": model.flops,
            "train_accuracy": (None if np.isnan(model.train_accuracy)
                               else float(model.train_accuracy)),
            "architecture": _architecture_to_dict(model.architecture),
            "transform": transform_to_dict(model.transform)}


def _thresholds_to_list(thresholds: list[DecisionThresholds]) -> list[dict]:
    return [{"p_low": t.p_low, "p_high": t.p_high,
             "precision_target": t.precision_target} for t in thresholds]


def _thresholds_from_list(data: list[dict]) -> list[DecisionThresholds]:
    return [DecisionThresholds(**entry) for entry in data]


def _config_to_dict(config: TahomaConfig) -> dict:
    return {
        "architectures": [_architecture_to_dict(a) for a in config.architectures],
        "transforms": [transform_to_dict(t) for t in config.transforms],
        "precision_targets": list(config.precision_targets),
        "max_depth": config.max_depth,
        "training": asdict(config.training),
    }


def _config_from_dict(data: dict) -> TahomaConfig:
    return TahomaConfig(
        architectures=tuple(_architecture_from_dict(a) for a in data["architectures"]),
        transforms=tuple(transform_from_dict(t) for t in data["transforms"]),
        precision_targets=tuple(data["precision_targets"]),
        max_depth=data["max_depth"],
        training=TrainingConfig(**data["training"]),
    )


def _rebuild_network(model_meta: dict):
    """Rebuild an untrained network matching a saved model's metadata."""
    transform = transform_from_dict(model_meta["transform"])
    architecture = _architecture_from_dict(model_meta["architecture"])
    if architecture is not None:
        return architecture.build(transform.shape), architecture, transform
    # Reference models have no ArchitectureSpec; they are rebuilt via the
    # reference builder with its default shape parameters stored alongside.
    from repro.baselines.reference import build_reference_network

    params = model_meta.get("reference_params", {})
    network = build_reference_network(transform.shape, **params)
    return network, None, transform


def fsync_path(path: Path) -> None:
    """Flush one file's bytes, or one directory's entries, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_optimizer(optimizer: TahomaOptimizer, root: str | Path,
                   reference_params: dict | None = None) -> Path:
    """Persist an initialized optimizer to ``root``, durably.

    Parameters
    ----------
    optimizer:
        An initialized :class:`TahomaOptimizer`.
    root:
        Target directory (created if needed).
    reference_params:
        The keyword arguments (``base_width``, ``n_stages``,
        ``blocks_per_stage``, ``dense_units``) used to build the reference
        network, needed to re-instantiate it on load.  Required when the
        optimizer has a reference model built with non-default parameters.

    Both files, and the directory entries naming them (``root``'s own entry
    in its parent too), are flushed to disk before this returns.  Files are
    written in place: a caller that must not tear a repository a manifest
    already names writes into a fresh ``root``.
    """
    if optimizer.cache is None:
        raise ValueError("optimizer is not initialized; nothing to save")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    networks = list(optimizer.models)
    models_meta = [_model_to_dict(model) for model in optimizer.models]
    reference_meta = None
    if optimizer.reference_model is not None:
        networks.append(optimizer.reference_model)
        reference_meta = _model_to_dict(optimizer.reference_model)
        reference_meta["reference_params"] = reference_params or {}
    np.savez(root / _WEIGHTS_FILE,
             **{f"{model.name}/{param}": value
                for model in networks
                for param, value in model.network.parameters().items()})

    payload = {
        "format_version": _FORMAT_VERSION,
        "config": _config_to_dict(optimizer.config),
        "models": models_meta,
        "reference": reference_meta,
        "thresholds": {name: _thresholds_to_list(thresholds)
                       for name, thresholds in optimizer.thresholds.items()},
        "cache": {
            "labels": optimizer.cache.labels.tolist(),
            "probabilities": {name: probs.tolist()
                              for name, probs in optimizer.cache.probabilities.items()},
        },
    }
    (root / _MANIFEST_FILE).write_text(json.dumps(payload))
    for path in (root / _WEIGHTS_FILE, root / _MANIFEST_FILE, root,
                 root.parent):
        fsync_path(path)
    return root


def load_optimizer(root: str | Path) -> TahomaOptimizer:
    """Restore an optimizer saved with :func:`save_optimizer` (no retraining)."""
    root = Path(root)
    manifest_path = root / _MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {_MANIFEST_FILE} under {root}")
    payload = json.loads(manifest_path.read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported repository format {version!r}: only format "
            f"{_FORMAT_VERSION} is read; to keep an older directory, open it "
            f"from a checkout of commit 888284b, the last one that reads "
            f"format 2 (9334799 for format 1)")

    # One dict per network: ``set_parameters`` names any layer the archive
    # lacks.
    weights: dict[str, dict[str, np.ndarray]] = {}
    with np.load(root / _WEIGHTS_FILE, allow_pickle=False) as archive:
        for key in archive.files:
            model, _, param = key.rpartition("/")
            weights.setdefault(model, {})[param] = archive[key]
    config = _config_from_dict(payload["config"])
    optimizer = TahomaOptimizer(config)

    models = []
    for meta in payload["models"]:
        network, architecture, transform = _rebuild_network(meta)
        network.set_parameters(weights.get(meta["name"], {}))
        models.append(TrainedModel(
            name=meta["name"], network=network, transform=transform,
            architecture=architecture, kind=meta["kind"], flops=meta["flops"],
            train_accuracy=(float("nan") if meta["train_accuracy"] is None
                            else meta["train_accuracy"])))

    reference = None
    if payload["reference"] is not None:
        meta = payload["reference"]
        network, _, transform = _rebuild_network(meta)
        network.set_parameters(weights.get(meta["name"], {}))
        reference = TrainedModel(
            name=meta["name"], network=network, transform=transform,
            architecture=None, kind="reference", flops=meta["flops"],
            train_accuracy=(float("nan") if meta["train_accuracy"] is None
                            else meta["train_accuracy"]))

    from repro.core.evaluator import ModelPredictionCache

    optimizer.models = models
    optimizer.reference_model = reference
    optimizer.thresholds = {name: _thresholds_from_list(entries)
                            for name, entries in payload["thresholds"].items()}
    optimizer.cache = ModelPredictionCache(
        probabilities={name: np.asarray(probs)
                       for name, probs in payload["cache"]["probabilities"].items()},
        labels=np.asarray(payload["cache"]["labels"]))
    optimizer._build_cascades()
    optimizer._initialized = True
    return optimizer
