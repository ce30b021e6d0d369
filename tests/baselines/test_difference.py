"""Tests for the frame-difference detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.difference import DifferenceDetector, FramePlan


def make_static_stream(n=20, size=16, noise=0.0, rng=None):
    rng = rng or np.random.default_rng(0)
    base = rng.random((size, size, 3))
    frames = np.stack([np.clip(base + rng.normal(0, noise, base.shape), 0, 1)
                       for _ in range(n)])
    return frames


class TestFramePlan:
    def test_counts(self):
        plan = FramePlan(processed=np.array([0, 3]),
                         reuse_from=np.array([-1, 0, 0, -1, 3]))
        assert plan.n_frames == 5
        assert plan.n_processed == 2
        assert plan.n_reused == 3
        assert plan.reuse_fraction == pytest.approx(0.6)

    def test_expand_labels(self):
        plan = FramePlan(processed=np.array([0, 3]),
                         reuse_from=np.array([-1, 0, 0, -1, 3]))
        labels = plan.expand_labels(np.array([1, 0]))
        np.testing.assert_array_equal(labels, [1, 1, 1, 0, 0])
        assert labels.dtype == np.int64  # the cascade's label dtype

    def test_expand_labels_length_check(self):
        plan = FramePlan(processed=np.array([0]), reuse_from=np.array([-1, 0]))
        with pytest.raises(ValueError):
            plan.expand_labels(np.array([1, 0, 1]))


class TestDifferenceDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            DifferenceDetector(threshold=-1.0)
        with pytest.raises(ValueError):
            DifferenceDetector(downsample=0)

    def test_static_stream_is_mostly_reused(self):
        frames = make_static_stream(noise=0.0)
        plan = DifferenceDetector(threshold=1e-6).plan(frames)
        assert plan.n_processed == 1
        assert plan.reuse_fraction == pytest.approx(19 / 20)

    def test_noisy_stream_is_processed(self):
        rng = np.random.default_rng(1)
        frames = rng.random((10, 16, 16, 3))
        plan = DifferenceDetector(threshold=1e-6).plan(frames)
        assert plan.n_processed == 10

    def test_first_frame_always_processed(self):
        frames = make_static_stream(5)
        plan = DifferenceDetector(threshold=1e9).plan(frames)
        assert 0 in plan.processed

    def test_empty_stream(self):
        plan = DifferenceDetector().plan(np.zeros((0, 8, 8, 3)))
        assert plan.n_frames == 0
        assert plan.n_processed == 0

    def test_plan_rejects_single_frame_shape(self):
        with pytest.raises(ValueError):
            DifferenceDetector().plan(np.zeros((8, 8, 3)))

    def test_plan_decides_by_frame_distance(self):
        frames = make_static_stream(30, noise=0.02,
                                    rng=np.random.default_rng(3))
        detector = DifferenceDetector()
        detector.calibrate(frames, target_reuse=0.5)
        plan = detector.plan(frames)
        assert 0 < plan.n_reused < plan.n_frames - 1
        last = 0
        for index in range(1, plan.n_frames):
            distance = detector.frame_distance(frames[index], frames[last])
            if plan.reuse_from[index] >= 0:
                assert plan.reuse_from[index] == last
                assert distance <= detector.threshold
            else:
                assert distance > detector.threshold
                last = index

    def test_calibrate_hits_target_reuse(self):
        rng = np.random.default_rng(2)
        frames = make_static_stream(60, noise=0.02, rng=rng)
        detector = DifferenceDetector()
        detector.calibrate(frames, target_reuse=0.5)
        plan = detector.plan(frames)
        assert 0.2 <= plan.reuse_fraction <= 0.8

    def test_frame_distance_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((8, 8, 3)), rng.random((8, 8, 3))
        detector = DifferenceDetector()
        assert detector.frame_distance(a, b) == pytest.approx(
            detector.frame_distance(b, a))
        assert detector.frame_distance(a, a) == 0.0

    def test_values_touched_scales_with_downsample(self):
        fine = DifferenceDetector(downsample=1).values_touched((32, 32, 3))
        coarse = DifferenceDetector(downsample=4).values_touched((32, 32, 3))
        assert fine == 32 * 32 * 3
        assert coarse == 8 * 8 * 3


@settings(max_examples=20, deadline=None)
@given(threshold=st.floats(0.0, 0.5), seed=st.integers(0, 100))
def test_plan_invariants(threshold, seed):
    """Every frame is either processed or reuses an earlier processed frame."""
    rng = np.random.default_rng(seed)
    frames = make_static_stream(15, noise=0.05, rng=rng)
    plan = DifferenceDetector(threshold=threshold).plan(frames)
    processed_set = set(plan.processed.tolist())
    for index in range(plan.n_frames):
        source = plan.reuse_from[index]
        if source == -1:
            assert index in processed_set
        else:
            assert source in processed_set
            assert source < index
    assert plan.n_processed + plan.n_reused == plan.n_frames
