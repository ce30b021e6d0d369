"""Tests for the experiment workspace (smoke scale, session-cached)."""

import pytest

from repro.core.spec import build_model_grid
from repro.experiments.presets import SMOKE_SCALE
from repro.experiments.workspace import get_workspace


def test_workspace_contains_all_scale_categories(smoke_workspace):
    assert set(smoke_workspace.category_names()) == set(SMOKE_SCALE.categories)


def test_each_predicate_is_initialized(smoke_workspace):
    for predicate in smoke_workspace.predicates.values():
        assert predicate.optimizer.n_models == len(build_model_grid(
            SMOKE_SCALE.architectures(), SMOKE_SCALE.transforms()))
        assert predicate.optimizer.n_cascades > 0
        assert predicate.reference_model.is_reference


def test_device_calibrated_to_reference_anchor(smoke_workspace):
    reference = next(iter(smoke_workspace.predicates.values())).reference_model
    fps = 1.0 / smoke_workspace.device.inference_time(reference.flops)
    assert fps == pytest.approx(SMOKE_SCALE.reference_target_fps, rel=1e-6)


def test_profilers_cover_all_scenarios(smoke_workspace):
    profilers = smoke_workspace.profilers()
    assert set(profilers) == {"infer_only", "archive", "ongoing", "camera"}
    assert all(p.cost_resolution == SMOKE_SCALE.cost_resolution
               for p in profilers.values())


def test_profiler_lookup_unknown_scenario(smoke_workspace):
    with pytest.raises(KeyError):
        smoke_workspace.profiler("moonbase")


def test_workspace_cache_returns_same_object(smoke_workspace):
    assert get_workspace(SMOKE_SCALE) is smoke_workspace


def test_reference_is_slowest_model(smoke_workspace):
    """The reference classifier's FLOP count dwarfs every specialized model's."""
    for predicate in smoke_workspace.predicates.values():
        reference_flops = predicate.reference_model.flops
        max_specialized = max(model.flops for model in predicate.models)
        assert reference_flops > 3 * max_specialized
