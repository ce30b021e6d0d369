"""Tests for the experiment scale presets."""

import pytest

from repro.core.spec import build_model_grid
from repro.experiments.presets import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    simulation_scenarios,
)


def n_model_specs(scale) -> int:
    """Valid (architecture, transform) points of ``scale``'s grid."""
    return len(build_model_grid(scale.architectures(), scale.transforms()))


def test_paper_scale_matches_paper_grid():
    """The PAPER preset reproduces the paper's 360-model design space."""
    assert n_model_specs(PAPER_SCALE) == 360
    assert PAPER_SCALE.resolutions == (30, 60, 120, 224)
    assert len(PAPER_SCALE.color_modes) == 5
    assert PAPER_SCALE.precision_targets == (0.91, 0.93, 0.95, 0.97, 0.99)
    assert len(PAPER_SCALE.categories) == 10


def test_default_scale_sweeps_every_dimension():
    """The reduced scale keeps every dimension of the paper's grid."""
    assert len(DEFAULT_SCALE.resolutions) >= 2
    assert set(DEFAULT_SCALE.color_modes) == {"rgb", "red", "green", "blue", "gray"}
    assert len(DEFAULT_SCALE.conv_layers) >= 2
    assert len(DEFAULT_SCALE.precision_targets) >= 2
    assert len(DEFAULT_SCALE.categories) == 10
    assert n_model_specs(DEFAULT_SCALE) >= 30


def test_smoke_scale_is_small():
    assert n_model_specs(SMOKE_SCALE) <= 16
    assert len(SMOKE_SCALE.categories) == 2


def test_architectures_and_transforms_materialize():
    archs = SMOKE_SCALE.architectures()
    transforms = SMOKE_SCALE.transforms()
    assert archs and transforms
    assert all(a.fits_input(max(SMOKE_SCALE.resolutions)) for a in archs)


def test_simulation_scenarios_cover_paper_set():
    scenarios = simulation_scenarios()
    assert set(scenarios) == {"infer_only", "archive", "ongoing", "camera"}
    assert scenarios["archive"].include_load and scenarios["archive"].include_transform
    assert not scenarios["infer_only"].include_load


def test_scales_have_distinct_names():
    assert len({SMOKE_SCALE.name, DEFAULT_SCALE.name, PAPER_SCALE.name}) == 3
