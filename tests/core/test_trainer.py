"""Tests for the model trainer."""

import numpy as np
import pytest

from repro.core.evaluator import ModelPredictionCache
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.core.trainer import ModelTrainer, TrainingConfig
from repro.data.corpus import LabeledDataset
from repro.transforms.spec import TransformSpec


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_training_config_rejects_non_finite_learning_rate(value):
    # NaN passed the old `learning_rate <= 0` check and trained NaN weights.
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        TrainingConfig(learning_rate=value)


def test_train_models_returns_one_per_spec(tiny_splits):
    specs = [ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "gray")),
             ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "rgb"))]
    trainer = ModelTrainer(TrainingConfig(epochs=2, batch_size=16))
    models = trainer.train_models(specs, tiny_splits.train,
                                  rng=np.random.default_rng(0))
    assert len(models) == 2
    assert {model.name for model in models} == {spec.name for spec in specs}
    assert all(model.kind == "specialized" for model in models)
    assert all(np.isfinite(model.train_accuracy) for model in models)


def test_trained_model_learns_better_than_chance(tiny_splits):
    spec = ModelSpec(ArchitectureSpec(2, 4, 8), TransformSpec(16, "rgb"))
    trainer = ModelTrainer(TrainingConfig(epochs=4, batch_size=16))
    model = trainer.train_models([spec], tiny_splits.train,
                                 rng=np.random.default_rng(1))[0]
    predictions = model.predict(tiny_splits.eval.images)
    accuracy = float((predictions == tiny_splits.eval.labels).mean())
    assert accuracy > 0.55


def test_empty_specs_or_data_raise(tiny_splits):
    trainer = ModelTrainer(TrainingConfig(epochs=1))
    with pytest.raises(ValueError):
        trainer.train_models([], tiny_splits.train)
    empty = LabeledDataset(np.zeros((0, 16, 16, 3)), np.zeros(0))
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "gray"))
    with pytest.raises(ValueError):
        trainer.train_models([spec], empty)


def test_train_model_uses_shared_store(tiny_splits):
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "gray"))
    trainer = ModelTrainer(TrainingConfig(epochs=1, augment=False))
    transformed = {}
    trainer.train_model(spec, tiny_splits.train, transformed,
                        rng=np.random.default_rng(2))
    np.testing.assert_array_equal(
        transformed[spec.transform.name],
        spec.transform.apply_batch(tiny_splits.train.images))


def test_training_transforms_each_representation_once_per_data_set(
        tiny_splits, transformed_rows):
    # Three models over two representations: every data set (train, config,
    # eval) goes through each representation's transform exactly once.
    gray, rgb = TransformSpec(8, "gray"), TransformSpec(8, "rgb")
    specs = [ModelSpec(ArchitectureSpec(1, 4, 8), gray),
             ModelSpec(ArchitectureSpec(1, 8, 8), gray),
             ModelSpec(ArchitectureSpec(1, 4, 8), rgb)]
    n_train, n_config, n_eval = tiny_splits.sizes()

    trainer = ModelTrainer(TrainingConfig(epochs=1, augment=False))
    models = trainer.train_models(specs, tiny_splits.train,
                                  rng=np.random.default_rng(4))
    assert transformed_rows == {gray.name: n_train, rgb.name: n_train}

    transformed_rows.clear()
    ModelPredictionCache.from_models(models, tiny_splits.eval.images,
                                     tiny_splits.eval.labels)
    assert transformed_rows == {gray.name: n_eval, rgb.name: n_eval}

    # initialize_with_models = _calibrate_thresholds (config split) +
    # from_models (eval split).
    transformed_rows.clear()
    optimizer = TahomaOptimizer(TahomaConfig(precision_targets=(0.9,),
                                             max_depth=1))
    optimizer.initialize_with_models(models, tiny_splits)
    assert transformed_rows == {gray.name: n_config + n_eval,
                                rgb.name: n_config + n_eval}


def test_augmentation_doubles_training_data(tiny_splits):
    """With augmentation on, the representation cache holds 2x the images."""
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "gray"))
    trainer = ModelTrainer(TrainingConfig(epochs=1, augment=True))
    models = trainer.train_models([spec], tiny_splits.train,
                                  rng=np.random.default_rng(3))
    assert len(models) == 1
