"""Tests for architecture and model specifications."""

import numpy as np
import pytest

from repro.core.spec import (
    ArchitectureSpec,
    ModelSpec,
    build_model_grid,
    standard_architecture_grid,
)
from repro.transforms.spec import TransformSpec


class TestArchitectureSpec:
    def test_name(self):
        assert ArchitectureSpec(2, 16, 32).name == "c2f16d32"

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(0, 16, 32)
        with pytest.raises(ValueError):
            ArchitectureSpec(1, 0, 32)

    def test_fits_input(self):
        spec = ArchitectureSpec(4, 16, 32)
        assert spec.fits_input(30)
        assert not spec.fits_input(8)
        # 16 px is the smallest input that survives four 2x poolings.
        assert spec.fits_input(16) and not spec.fits_input(15)

    def test_build_network_shape(self):
        spec = ArchitectureSpec(2, 8, 16)
        net = spec.build((16, 16, 3), rng=np.random.default_rng(0))
        out = net.forward(np.random.default_rng(1).random((3, 16, 16, 3)))
        assert out.shape == (3, 1)
        assert np.all((out >= 0) & (out <= 1))

    def test_build_rejects_small_input(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(4, 8, 16).build((8, 8, 3))

    def test_build_rejects_non_square(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(1, 8, 16).build((8, 16, 3))

    def test_deeper_architectures_have_more_layers(self):
        shallow = ArchitectureSpec(1, 8, 16).build((16, 16, 3))
        deep = ArchitectureSpec(2, 8, 16).build((16, 16, 3))
        assert len(deep.layers) > len(shallow.layers)

    def test_paper_grid_size(self):
        assert len(standard_architecture_grid()) == 18

    def test_grid_rejects_empty(self):
        with pytest.raises(ValueError):
            standard_architecture_grid(conv_layers=())


class TestModelSpec:
    def test_name_combines_components(self):
        spec = ModelSpec(ArchitectureSpec(1, 16, 32), TransformSpec(30, "gray"))
        assert spec.name == "c1f16d32-30x30-gray"

    def test_validity(self):
        valid = ModelSpec(ArchitectureSpec(2, 8, 16), TransformSpec(16, "rgb"))
        invalid = ModelSpec(ArchitectureSpec(4, 8, 16), TransformSpec(8, "rgb"))
        assert valid.is_valid()
        assert not invalid.is_valid()

    def test_build_uses_transform_shape(self):
        spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(8, "gray"))
        net = spec.build(rng=np.random.default_rng(0))
        assert net.input_shape == (8, 8, 1)


class TestModelGrid:
    def test_paper_design_space_size(self):
        """The paper's full grid: 18 architectures x 20 transforms = 360 models."""
        grid = build_model_grid(standard_architecture_grid(),
                                list(__import__("repro.transforms.spec",
                                                fromlist=["standard_transform_grid"]
                                                ).standard_transform_grid()))
        assert len(grid) == 360

    def test_skips_invalid_combinations(self):
        architectures = [ArchitectureSpec(4, 8, 16)]
        transforms = [TransformSpec(8, "rgb"), TransformSpec(16, "rgb")]
        grid = build_model_grid(architectures, transforms)
        assert len(grid) == 1
        assert grid[0].transform.resolution == 16

    def test_strict_mode_raises_on_invalid(self):
        with pytest.raises(ValueError):
            build_model_grid([ArchitectureSpec(4, 8, 16)],
                             [TransformSpec(8, "rgb")], skip_invalid=False)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            build_model_grid([], [TransformSpec(8)])

    def test_names_unique(self):
        grid = build_model_grid(standard_architecture_grid((1, 2), (8,), (16,)),
                                [TransformSpec(16, "rgb"), TransformSpec(16, "gray")])
        assert len({spec.name for spec in grid}) == len(grid)
