"""Tests for the shared dtype/shape coercion helpers in ``repro.nn.dtypes``."""

import numpy as np
import pytest

from repro.nn.dtypes import DEFAULT_FLOAT, align_targets, as_float


class TestAsFloat:
    def test_coerces_lists_to_default_float(self):
        out = as_float([1, 2, 3])
        assert out.dtype == DEFAULT_FLOAT
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_keeps_existing_float_values(self):
        x = np.array([0.5, 1.5], dtype=np.float32)
        out = as_float(x, dtype=np.float32)
        assert out.dtype == np.float32

    def test_rejects_non_float_target_dtype(self):
        with pytest.raises(ValueError, match="float"):
            as_float([1, 2], dtype=np.int64)


class TestAlignTargets:
    def test_reshapes_matching_sizes(self):
        predictions = np.zeros((4, 1))
        targets = np.array([0, 1, 1, 0])
        pred, tgt = align_targets(predictions, targets)
        assert tgt.shape == (4, 1)
        assert tgt.dtype == DEFAULT_FLOAT

    def test_identical_shapes_untouched(self):
        predictions = np.zeros((3, 2))
        targets = np.ones((3, 2))
        _, tgt = align_targets(predictions, targets)
        assert tgt.shape == (3, 2)

    def test_size_mismatch_names_both_shapes(self):
        predictions = np.zeros((4, 2))
        targets = np.array([0, 1, 1])
        with pytest.raises(ValueError) as excinfo:
            align_targets(predictions, targets)
        message = str(excinfo.value)
        assert "(4, 2)" in message
        assert "(3,)" in message

    def test_loss_paths_use_the_helper(self):
        from repro.nn.losses import BinaryCrossEntropy
        predictions = np.array([[0.2], [0.8], [0.6]])
        targets = [0, 1, 1]  # plain list: coerced and reshaped to (3, 1)
        loss = BinaryCrossEntropy()
        value = loss.forward(predictions, targets)
        assert np.isscalar(value) or np.ndim(value) == 0
        grad = loss.backward(predictions, targets)
        assert grad.shape == predictions.shape

    def test_loss_mismatch_raises(self):
        from repro.nn.losses import BinaryCrossEntropy
        with pytest.raises(ValueError):
            BinaryCrossEntropy().forward(np.zeros((4, 2)), np.zeros(3))
