"""Tests for decision-threshold calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import (
    GRID_SIZE,
    PAPER_PRECISION_TARGETS,
    DecisionThresholds,
    calibrate_thresholds,
)


class TestDecisionThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionThresholds(0.8, 0.2, 0.95)
        with pytest.raises(ValueError):
            DecisionThresholds(0.1, 0.9, 0.0)

    def test_confident_mask(self):
        thresholds = DecisionThresholds(0.2, 0.8, 0.95)
        probs = np.array([0.1, 0.2, 0.5, 0.8, 0.95])
        np.testing.assert_array_equal(
            thresholds.confident_mask(probs), [True, True, False, True, True])

    def test_decide(self):
        thresholds = DecisionThresholds(0.2, 0.8, 0.95)
        np.testing.assert_array_equal(
            thresholds.decide(np.array([0.1, 0.9])), [0, 1])

    def test_degenerate_thresholds_decide_everything(self):
        thresholds = DecisionThresholds(0.5, 0.5, 0.95)
        assert thresholds.confident_mask(np.array([0.3, 0.5, 0.7])).all()


class TestCalibration:
    def test_well_separated_model_gets_full_coverage(self):
        probs = np.concatenate([np.full(50, 0.05), np.full(50, 0.95)])
        labels = np.concatenate([np.zeros(50), np.ones(50)])
        calibration = calibrate_thresholds(probs, labels, precision_target=0.95)
        assert calibration.feasible
        assert calibration.coverage == pytest.approx(1.0)

    def test_precision_constraint_met_on_calibration_data(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 400)
        noise = rng.normal(0, 0.2, 400)
        probs = np.clip(0.5 + (labels - 0.5) * 0.6 + noise, 0, 1)
        calibration = calibrate_thresholds(probs, labels, precision_target=0.9)
        thresholds = calibration.thresholds
        if calibration.feasible:
            confident_pos = probs >= thresholds.p_high
            confident_neg = probs <= thresholds.p_low
            if confident_pos.any():
                assert labels[confident_pos].mean() >= 0.9 - 1e-9
            if confident_neg.any():
                assert (1 - labels[confident_neg]).mean() >= 0.9 - 1e-9

    def test_uninformative_model_falls_back(self):
        """A model whose output is unrelated to the labels cannot be calibrated."""
        rng = np.random.default_rng(1)
        probs = np.full(200, 0.5)
        labels = rng.integers(0, 2, 200)
        calibration = calibrate_thresholds(probs, labels, precision_target=0.99)
        assert not calibration.feasible
        assert calibration.thresholds.p_low == calibration.thresholds.p_high == 0.5

    def test_noisy_uninformative_model_has_tiny_coverage(self):
        """Near-constant outputs can only ever decide a sliver of examples."""
        rng = np.random.default_rng(1)
        probs = np.full(200, 0.5) + rng.normal(0, 0.01, 200)
        labels = rng.integers(0, 2, 200)
        calibration = calibrate_thresholds(probs, labels, precision_target=0.99)
        assert calibration.coverage < 0.2

    def test_higher_targets_never_increase_coverage(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 500)
        probs = np.clip(labels * 0.7 + rng.normal(0.15, 0.2, 500), 0, 1)
        coverages = []
        for target in (0.9, 0.95, 0.99):
            coverages.append(calibrate_thresholds(probs, labels, target).coverage)
        assert coverages[0] >= coverages[1] >= coverages[2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            calibrate_thresholds(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            calibrate_thresholds(np.array([0.5]), np.array([1, 0]))
        with pytest.raises(ValueError):
            calibrate_thresholds(np.array([0.5]), np.array([1]), precision_target=0.0)

    def test_thresholds_are_grid_candidates(self):
        # Each threshold is one of GRID_SIZE quantiles of the observed
        # probabilities or one of the 0 / 0.5 / 1 anchors.
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 200)
        probabilities = np.clip(0.6 * labels + 0.4 * rng.random(200), 0, 1)
        chosen = calibrate_thresholds(probabilities, labels).thresholds
        candidates = np.concatenate([
            np.quantile(probabilities, np.linspace(0.0, 1.0, GRID_SIZE)),
            [0.0, 0.5, 1.0]])
        assert chosen.p_low in candidates
        assert chosen.p_high in candidates

    def test_paper_targets_constant(self):
        assert PAPER_PRECISION_TARGETS == (0.91, 0.93, 0.95, 0.97, 0.99)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), target=st.sampled_from([0.9, 0.95, 0.99]))
def test_calibration_invariants(seed, target):
    """p_low <= p_high always, and coverage is a valid fraction."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, 120)
    probs = np.clip(labels * rng.uniform(0.3, 0.8) + rng.normal(0.2, 0.25, 120), 0, 1)
    calibration = calibrate_thresholds(probs, labels, precision_target=target)
    assert 0.0 <= calibration.thresholds.p_low <= calibration.thresholds.p_high <= 1.0
    assert 0.0 <= calibration.coverage <= 1.0
