"""Tests for byte-size accounting."""

import pytest

from repro.storage.encoding import raw_bytes, representation_bytes
from repro.transforms.spec import TransformSpec, standard_transform_grid


def test_raw_bytes_formula():
    assert raw_bytes(224, 224, 3) == 224 * 224 * 3
    assert raw_bytes(30, 30, 1) == 900


def test_raw_bytes_rejects_nonpositive():
    with pytest.raises(ValueError):
        raw_bytes(0, 10, 3)


def test_representation_bytes_tracks_spec():
    small = representation_bytes(TransformSpec(30, "gray"))
    large = representation_bytes(TransformSpec(224, "rgb"))
    assert small == 900
    assert large == 150528


def test_representation_bytes_is_one_byte_per_value_on_the_grid():
    for spec in standard_transform_grid():
        assert representation_bytes(spec) == spec.num_values
