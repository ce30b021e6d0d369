"""Tests for the model-repository persistence layer."""

import json
import shutil
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
    assert sorted(path.name for path in saved_root.iterdir()) == [
        "repository.json", "weights.npz"]
    # One archive: every specialized model's and the reference classifier's
    # parameters, each under <model>/<param>.
    networks = [*tiny_optimizer.models, tiny_optimizer.reference_model]
    with np.load(saved_root / "weights.npz") as archive:
        assert sorted(archive.files) == sorted(
            f"{model.name}/{param}" for model in networks
            for param in model.network.parameters())


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


@pytest.mark.parametrize("version, commit", [(2, "888284b"), (1, "9334799")])
def test_other_format_version_rejected(tmp_path, saved_root, version, commit):
    # One format is read: the one written.  Format 2 kept one weights
    # archive per network, format 1 carried one-value settings and no
    # training config; the message names the last commit that reads each.
    payload = json.loads((saved_root / "repository.json").read_text())
    assert payload["format_version"] == 3
    payload["format_version"] = version
    (tmp_path / "repository.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError,
                       match=rf"unsupported repository format {version}\b"
                             rf".*{commit}"):
        load_optimizer(tmp_path)


def test_weights_archive_missing_a_layer_raises(tmp_path, saved_root,
                                                tiny_optimizer):
    # Each network loads exactly the parameters its architecture declares:
    # an archive that lacks one layer's names is refused, not half-loaded.
    shutil.copy(saved_root / "repository.json", tmp_path / "repository.json")
    model = tiny_optimizer.models[0].name
    with np.load(saved_root / "weights.npz") as archive:
        kept = {name: archive[name] for name in archive.files
                if not name.startswith(f"{model}/layer0.")}
    np.savez(tmp_path / "weights.npz", **kept)
    with pytest.raises(KeyError, match="missing parameter layer0"):
        load_optimizer(tmp_path)


def test_written_repository_is_the_v3_contract(saved_root, tiny_optimizer):
    # The loader reads exactly what the writer writes, so the config's key
    # sets are the on-disk contract.
    payload = json.loads((saved_root / "repository.json").read_text())
    assert payload["format_version"] == 3
    assert sorted(payload) == ["cache", "config", "format_version", "models",
                               "reference", "thresholds"]
    config = payload["config"]
    assert sorted(config) == ["architectures", "max_depth",
                              "precision_targets", "training", "transforms"]
    assert all(sorted(t) == ["color_mode", "resolution"]
               for t in config["transforms"])
    assert config["training"] == asdict(tiny_optimizer.config.training)
