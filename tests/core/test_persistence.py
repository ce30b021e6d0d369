"""Tests for the model-repository persistence layer."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core.optimizer import TahomaOptimizer
from repro.core.persistence import load_optimizer, save_optimizer
from repro.core.trainer import TrainingConfig
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import CAMERA


REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}


@pytest.fixture(scope="module")
def saved_root(tmp_path_factory, tiny_optimizer):
    root = tmp_path_factory.mktemp("repository")
    save_optimizer(tiny_optimizer, root, reference_params=REFERENCE_PARAMS)
    return root


def test_save_creates_manifest_and_weights(saved_root, tiny_optimizer):
    assert (saved_root / "repository.json").exists()
    weight_files = list((saved_root / "weights").glob("*.npz"))
    # One archive per specialized model plus one for the reference classifier.
    assert len(weight_files) == tiny_optimizer.n_models + 1


def test_save_requires_initialized_optimizer(tmp_path):
    from repro.core.optimizer import TahomaConfig, TahomaOptimizer
    from repro.core.spec import ArchitectureSpec
    from repro.transforms.spec import TransformSpec

    optimizer = TahomaOptimizer(TahomaConfig(
        architectures=(ArchitectureSpec(1, 4, 8),),
        transforms=(TransformSpec(8, "gray"),)))
    with pytest.raises(ValueError):
        save_optimizer(optimizer, tmp_path)


def test_load_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_optimizer(tmp_path / "does-not-exist")


def test_round_trip_preserves_structure(saved_root, tiny_optimizer):
    restored = load_optimizer(saved_root)
    assert restored.n_models == tiny_optimizer.n_models
    assert restored.n_cascades == tiny_optimizer.n_cascades
    assert set(restored.thresholds) == set(tiny_optimizer.thresholds)
    assert restored.reference_model is not None
    assert restored.reference_model.is_reference


def test_round_trip_preserves_predictions(saved_root, tiny_optimizer, tiny_splits):
    restored = load_optimizer(saved_root)
    original_model = tiny_optimizer.models[0]
    restored_model = next(m for m in restored.models
                          if m.name == original_model.name)
    images = tiny_splits.eval.images[:8]
    np.testing.assert_allclose(restored_model.predict_proba(images),
                               original_model.predict_proba(images),
                               atol=1e-10)


def test_round_trip_preserves_cached_probabilities(saved_root, tiny_optimizer):
    restored = load_optimizer(saved_root)
    for name, probs in tiny_optimizer.cache.probabilities.items():
        np.testing.assert_allclose(restored.cache.probabilities[name], probs,
                                   atol=1e-12)
    np.testing.assert_array_equal(restored.cache.labels,
                                  tiny_optimizer.cache.labels)


def test_restored_optimizer_selects_equivalent_cascade(saved_root, tiny_optimizer,
                                                       tiny_device):
    restored = load_optimizer(saved_root)
    profiler = CostProfiler(tiny_device, CAMERA, source_resolution=16,
                            cost_resolution=224)
    original_choice = tiny_optimizer.select(profiler)
    restored_choice = restored.select(profiler)
    assert restored_choice.accuracy == pytest.approx(original_choice.accuracy)
    assert restored_choice.throughput == pytest.approx(original_choice.throughput,
                                                       rel=1e-6)


def test_round_trip_preserves_config_with_training(tmp_path, tiny_optimizer,
                                                   tiny_config, tiny_splits,
                                                   tiny_reference):
    training = TrainingConfig(epochs=3, batch_size=8, learning_rate=0.0015,
                              augment=False, seed=7)
    optimizer = TahomaOptimizer(replace(tiny_config, training=training))
    optimizer.initialize_with_models(tiny_optimizer.models, tiny_splits,
                                     reference_model=tiny_reference)
    root = save_optimizer(optimizer, tmp_path / "repository",
                          reference_params=REFERENCE_PARAMS)
    restored = load_optimizer(root)
    assert restored.config == optimizer.config
    assert restored.config.training == training


def test_other_format_version_rejected(tmp_path, saved_root):
    # One format is read: the one written.  Format 1 carried one-value
    # settings and no training config; its message names the last commit
    # that reads it.
    payload = json.loads((saved_root / "repository.json").read_text())
    assert payload["format_version"] == 2
    payload["format_version"] = 1
    (tmp_path / "repository.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError,
                       match=r"unsupported repository format 1\b.*9334799"):
        load_optimizer(tmp_path)


def test_written_repository_is_the_v2_contract(saved_root, tiny_optimizer):
    # The loader reads exactly what the writer writes, so the config's key
    # sets are the on-disk contract.
    payload = json.loads((saved_root / "repository.json").read_text())
    config = payload["config"]
    assert sorted(config) == ["architectures", "max_depth",
                              "precision_targets", "training", "transforms"]
    assert all(sorted(t) == ["color_mode", "resolution"]
               for t in config["transforms"])
    assert config["training"] == asdict(tiny_optimizer.config.training)
