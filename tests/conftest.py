"""Shared fixtures for the test suite.

Training even tiny NumPy CNNs takes a noticeable fraction of a second, so the
expensive objects (rendered datasets, trained model pools, an initialized
optimizer, the smoke-scale experiment workspace) are built once per session
and shared by all tests that need them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines.reference import train_reference_model
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.spec import ArchitectureSpec
from repro.core.trainer import TrainingConfig
from repro.costs.device import SERVER_GPU, calibrate_device
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import CAMERA, INFER_ONLY
from repro.data.categories import get_category
from repro.data.corpus import build_predicate_splits
from repro.transforms.spec import TransformSpec

#: Image size used by the tiny training fixtures.
TINY_SIZE = 16


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def transformed_rows(monkeypatch) -> Counter:
    """Rows handed to ``TransformSpec.apply_batch``, summed per spec name."""
    rows: Counter = Counter()
    apply_batch = TransformSpec.apply_batch

    def counting_apply_batch(self, images):
        rows[self.name] += len(images)
        return apply_batch(self, images)

    monkeypatch.setattr(TransformSpec, "apply_batch", counting_apply_batch)
    return rows


@pytest.fixture(scope="session")
def tiny_splits():
    """Small train/config/eval splits for the komondor predicate."""
    generator = np.random.default_rng(7)
    return build_predicate_splits(get_category("komondor"), n_train=48,
                                  n_config=32, n_eval=32, image_size=TINY_SIZE,
                                  rng=generator)


@pytest.fixture(scope="session")
def tiny_config() -> TahomaConfig:
    """A reduced TAHOMA configuration used across core tests."""
    return TahomaConfig(
        architectures=(ArchitectureSpec(1, 4, 8), ArchitectureSpec(2, 4, 8)),
        transforms=(TransformSpec(8, "rgb"), TransformSpec(8, "gray"),
                    TransformSpec(16, "rgb"), TransformSpec(16, "gray")),
        precision_targets=(0.9, 0.95),
        max_depth=2,
        training=TrainingConfig(epochs=2, batch_size=16, augment=True))


@pytest.fixture(scope="session")
def tiny_reference(tiny_splits):
    """A small reference (ResNet50 stand-in) classifier."""
    generator = np.random.default_rng(11)
    return train_reference_model(tiny_splits, resolution=TINY_SIZE, epochs=6,
                                 learning_rate=0.005, base_width=8, n_stages=2,
                                 blocks_per_stage=1, rng=generator)


@pytest.fixture(scope="session")
def tiny_optimizer(tiny_splits, tiny_config, tiny_reference) -> TahomaOptimizer:
    """A fully initialized optimizer shared by core/baseline/query tests."""
    optimizer = TahomaOptimizer(tiny_config)
    optimizer.initialize(tiny_splits, reference_model=tiny_reference,
                         rng=np.random.default_rng(13))
    return optimizer


@pytest.fixture()
def fresh_optimizer(tiny_optimizer, tiny_splits, tiny_config, tiny_reference):
    """Factory for optimizers nobody has selected from yet (no training:
    they share ``tiny_optimizer``'s model pool)."""
    def build(with_reference: bool = True) -> TahomaOptimizer:
        optimizer = TahomaOptimizer(tiny_config)
        optimizer.initialize_with_models(
            tiny_optimizer.models, tiny_splits,
            reference_model=tiny_reference if with_reference else None)
        return optimizer

    return build


@pytest.fixture()
def evaluate_calls(monkeypatch) -> list:
    """The prediction cache handed to each ``evaluate_cascades`` call an
    optimizer makes (one per optimizer, so ``count(opt.cache)`` is the
    number of times that optimizer evaluated its cascade set)."""
    from repro.core import optimizer as optimizer_module

    calls: list = []
    evaluate_cascades = optimizer_module.evaluate_cascades

    def counting(cascades, cache, profiler):
        calls.append(cache)
        return evaluate_cascades(cascades, cache, profiler)

    monkeypatch.setattr(optimizer_module, "evaluate_cascades", counting)
    return calls


@pytest.fixture(scope="session")
def tiny_device(tiny_reference):
    """A device calibrated so the tiny reference model lands near 75 fps."""
    return calibrate_device(SERVER_GPU, tiny_reference.flops, target_fps=75.0)


@pytest.fixture(scope="session")
def infer_only_profiler(tiny_device) -> CostProfiler:
    return CostProfiler(tiny_device, INFER_ONLY, source_resolution=TINY_SIZE,
                        cost_resolution=224)


@pytest.fixture(scope="session")
def camera_profiler(tiny_device) -> CostProfiler:
    return CostProfiler(tiny_device, CAMERA, source_resolution=TINY_SIZE,
                        cost_resolution=224)


@pytest.fixture(scope="session")
def smoke_workspace():
    """The smoke-scale experiment workspace (built once for all experiment tests)."""
    from repro.experiments.presets import SMOKE_SCALE
    from repro.experiments.workspace import get_workspace

    return get_workspace(SMOKE_SCALE)
