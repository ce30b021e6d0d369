"""Tests for TransformSpec and the transformation grids."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms.spec import (
    PAPER_COLOR_MODES,
    PAPER_RESOLUTIONS,
    TransformSpec,
    standard_transform_grid,
    transform_subsets,
)


class TestTransformSpec:
    def test_shape_and_values(self):
        spec = TransformSpec(30, "gray")
        assert spec.shape == (30, 30, 1)
        assert spec.num_values == 900
        assert spec.channels == 1

    def test_name_is_stable(self):
        assert TransformSpec(60, "red").name == "60x60-red"

    def test_rgb_values_match_paper_example(self):
        """The paper quotes 2,700 values for 30x30 RGB and 150,528 for 224x224."""
        assert TransformSpec(30, "rgb").num_values == 2700
        assert TransformSpec(224, "rgb").num_values == 150528

    def test_apply_shapes(self):
        spec = TransformSpec(8, "gray")
        image = np.random.default_rng(0).random((16, 16, 3))
        assert spec.apply(image).shape == (8, 8, 1)
        batch = np.random.default_rng(1).random((5, 16, 16, 3))
        assert spec.apply_batch(batch).shape == (5, 8, 8, 1)

    @pytest.mark.parametrize("mode", PAPER_COLOR_MODES)
    @pytest.mark.parametrize("resolution", [16, 8])
    @pytest.mark.parametrize("batched", [False, True])
    def test_apply_never_shares_memory_with_its_input(self, mode, resolution,
                                                      batched):
        # 16 is the native resolution: no resize, the color step's copy is
        # the only one.
        shape = (3, 16, 16, 3) if batched else (16, 16, 3)
        image = np.random.default_rng(resolution).random(shape)
        before = image.copy()
        out = TransformSpec(resolution, mode).apply(image)
        assert not np.shares_memory(out, image)
        out[...] = -1.0
        np.testing.assert_array_equal(image, before)

    def test_apply_batch_rejects_single_image(self):
        with pytest.raises(ValueError):
            TransformSpec(8).apply_batch(np.zeros((16, 16, 3)))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TransformSpec(0)
        with pytest.raises(ValueError):
            TransformSpec(8, "hsv")

    def test_fields_are_the_two_axes(self):
        # A representation is a resolution and a colour mode; nothing else
        # (interpolation, compression) is part of the design space.
        assert [f.name for f in fields(TransformSpec)] == ["resolution",
                                                          "color_mode"]

    def test_specs_are_hashable_and_comparable(self):
        assert TransformSpec(8, "rgb") == TransformSpec(8, "rgb")
        assert len({TransformSpec(8, "rgb"), TransformSpec(8, "rgb")}) == 1


class TestGrids:
    def test_paper_grid_size(self):
        grid = standard_transform_grid()
        assert len(grid) == len(PAPER_RESOLUTIONS) * len(PAPER_COLOR_MODES) == 20

    def test_grid_names_are_unique(self):
        grid = standard_transform_grid((8, 16), ("rgb", "gray"))
        assert len({spec.name for spec in grid}) == len(grid)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            standard_transform_grid((), ("rgb",))

    def test_subsets_structure(self):
        subsets = transform_subsets((8, 16, 32), ("rgb", "red", "gray"))
        assert len(subsets["none"]) == 1
        assert subsets["none"][0].resolution == 32
        assert subsets["none"][0].color_mode == "rgb"
        assert len(subsets["color"]) == 3
        assert all(spec.resolution == 32 for spec in subsets["color"])
        assert len(subsets["resize"]) == 3
        assert all(spec.color_mode == "rgb" for spec in subsets["resize"])
        assert len(subsets["full"]) == 9

    def test_subsets_are_contained_in_full(self):
        subsets = transform_subsets((8, 16), ("rgb", "gray"))
        full_names = {spec.name for spec in subsets["full"]}
        for name in ("none", "color", "resize"):
            assert {spec.name for spec in subsets[name]} <= full_names


@settings(max_examples=30, deadline=None)
@given(resolution=st.sampled_from([8, 16, 30, 60]),
       mode=st.sampled_from(list(PAPER_COLOR_MODES)))
def test_num_values_consistent_with_apply(resolution, mode):
    spec = TransformSpec(resolution, mode)
    image = np.random.default_rng(resolution).random((64, 64, 3))
    assert spec.apply(image).size == spec.num_values
