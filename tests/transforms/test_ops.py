"""Tests for the augmentation flip."""

import numpy as np
import pytest

from repro.transforms.ops import horizontal_flip


class TestHorizontalFlip:
    def test_single_image(self):
        image = np.zeros((2, 3, 1))
        image[0, 0, 0] = 1.0
        flipped = horizontal_flip(image)
        assert flipped[0, 2, 0] == 1.0
        assert flipped[0, 0, 0] == 0.0

    def test_batch(self):
        batch = np.zeros((2, 2, 3, 1))
        batch[:, 0, 0, 0] = 1.0
        flipped = horizontal_flip(batch)
        assert np.all(flipped[:, 0, 2, 0] == 1.0)

    def test_double_flip_is_identity(self):
        image = np.random.default_rng(0).random((5, 7, 3))
        np.testing.assert_allclose(horizontal_flip(horizontal_flip(image)), image)

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            horizontal_flip(np.zeros((4, 4)))
