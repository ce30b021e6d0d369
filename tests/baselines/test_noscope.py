"""Tests for the NoScope pipeline and TAHOMA+DD."""

import numpy as np
import pytest

from repro.baselines.difference import DifferenceDetector
from repro.baselines.noscope import TahomaWithDifferenceDetector, noscope_cascade
from repro.core.cascade import Cascade, CascadeLevel
from repro.core.evaluator import expected_cost
from repro.core.model import TrainedModel
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.core.thresholds import DecisionThresholds
from repro.costs.device import DeviceProfile
from repro.costs.profiler import CostBreakdown, CostProfiler
from repro.costs.scenario import ARCHIVE, INFER_ONLY
from repro.transforms.spec import TransformSpec

DEVICE = DeviceProfile("test", flops_per_second=1e9,
                       transform_seconds_per_value=1e-8,
                       inference_overhead_s=1e-5)
PROFILER = CostProfiler(DEVICE, INFER_ONLY, source_resolution=16)


def noscope_pipeline(specialized, thresholds, oracle, detector=None):
    """NoScope: its cascade behind the difference detector."""
    return TahomaWithDifferenceDetector(
        noscope_cascade(specialized, thresholds, oracle), detector=detector,
        name="noscope")


def make_model(name, resolution=16, mode="rgb", kind="specialized", seed=0):
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(resolution, mode))
    network = spec.build(rng=np.random.default_rng(seed))
    return TrainedModel(name=name, network=network, transform=spec.transform,
                        architecture=spec.architecture, kind=kind)


@pytest.fixture(scope="module")
def frames_and_labels():
    rng = np.random.default_rng(0)
    base = rng.random((16, 16, 3))
    frames, labels = [], []
    for index in range(30):
        frame = base + rng.normal(0, 0.01, base.shape)
        labels.append(index % 3 == 0)
        frames.append(np.clip(frame, 0, 1))
    return np.stack(frames), np.array(labels, dtype=np.int64)


@pytest.fixture(scope="module")
def specialized():
    return make_model("specialized", seed=1)


@pytest.fixture(scope="module")
def oracle():
    return make_model("oracle", kind="reference", seed=2)


class TestNoScope:
    def test_rejects_reference_as_specialized(self, oracle):
        with pytest.raises(ValueError):
            noscope_cascade(specialized=oracle,
                            thresholds=DecisionThresholds(0.3, 0.7, 0.95),
                            oracle=oracle)

    def test_run_produces_labels_and_counts(self, frames_and_labels, specialized,
                                            oracle):
        frames, labels = frames_and_labels
        pipeline = noscope_pipeline(specialized,
                                    DecisionThresholds(0.3, 0.7, 0.95), oracle,
                                    detector=DifferenceDetector(threshold=1e-5))
        result = pipeline.run(frames, labels, PROFILER)
        assert result.labels.shape == labels.shape
        assert result.n_frames == 30
        assert result.n_reused + result.n_specialized == 30
        assert result.n_oracle <= result.n_specialized
        assert 0.0 <= result.accuracy <= 1.0
        assert result.throughput > 0

    def test_mismatched_lengths_raise(self, frames_and_labels, specialized, oracle):
        frames, labels = frames_and_labels
        pipeline = noscope_pipeline(specialized,
                                    DecisionThresholds(0.3, 0.7, 0.95), oracle)
        with pytest.raises(ValueError):
            pipeline.run(frames, labels[:-1], PROFILER)

    def test_tight_thresholds_send_everything_to_oracle(self, frames_and_labels,
                                                        specialized, oracle):
        frames, labels = frames_and_labels
        pipeline = noscope_pipeline(specialized,
                                    DecisionThresholds(0.0, 1.0, 0.95), oracle,
                                    detector=DifferenceDetector(threshold=0.0))
        result = pipeline.run(frames, labels, PROFILER)
        assert result.oracle_fraction > 0.9

    def test_oracle_usage_increases_cost(self, frames_and_labels, specialized,
                                         oracle):
        frames, labels = frames_and_labels
        detector = DifferenceDetector(threshold=0.0)
        cheap = noscope_pipeline(specialized, DecisionThresholds(0.5, 0.5, 0.95),
                                 oracle, detector=detector)
        expensive = noscope_pipeline(specialized, DecisionThresholds(0.0, 1.0, 0.95),
                                     oracle, detector=detector)
        assert (expensive.run(frames, labels, PROFILER).cost.total_s
                > cheap.run(frames, labels, PROFILER).cost.total_s)

    def test_cost_is_the_cascade_rule_plus_the_detector(self, frames_and_labels,
                                                        specialized, oracle):
        """Under ARCHIVE the oracle reads the representation the specialized
        model already loaded, so the full frame is loaded once per frame."""
        frames, labels = frames_and_labels
        profiler = CostProfiler(DEVICE, ARCHIVE, source_resolution=16,
                                cost_resolution=224)
        detector = DifferenceDetector(threshold=0.0)
        # Thresholds that leave the middle half of the frames to the oracle.
        p_low, p_high = np.quantile(specialized.predict_proba(frames),
                                    [0.25, 0.75])
        pipeline = noscope_pipeline(specialized,
                                    DecisionThresholds(p_low, p_high, 0.95),
                                    oracle, detector=detector)
        result = pipeline.run(frames, labels, profiler)
        assert 0 < result.n_oracle < result.n_specialized
        detector_cost = CostBreakdown(transform_s=DEVICE.transform_time(
            detector.values_touched(frames.shape[1:])))
        fractions = (1.0, result.n_oracle / result.n_specialized)
        assert result.cost == detector_cost + expected_cost(
            pipeline.cascade, fractions, profiler)
        assert result.cost.load_s == profiler.load_time(specialized.transform)


class TestTahomaWithDifferenceDetector:
    def test_run_matches_cascade_labels_on_processed_frames(self, frames_and_labels,
                                                            specialized, oracle):
        frames, labels = frames_and_labels
        cascade = Cascade((CascadeLevel(specialized,
                                        DecisionThresholds(0.3, 0.7, 0.95)),
                           CascadeLevel(oracle, None)))
        runner = TahomaWithDifferenceDetector(
            cascade, detector=DifferenceDetector(threshold=0.0))
        result = runner.run(frames, labels, PROFILER)
        # With a zero threshold nothing is reused, so the labels must match a
        # plain cascade execution.
        np.testing.assert_array_equal(result.labels, cascade.classify(frames))
        assert result.n_reused == 0

    def test_reuse_reduces_specialized_count(self, frames_and_labels, specialized,
                                             oracle):
        frames, labels = frames_and_labels
        cascade = Cascade((CascadeLevel(specialized, None),))
        eager = TahomaWithDifferenceDetector(
            cascade, detector=DifferenceDetector(threshold=0.0))
        lazy = TahomaWithDifferenceDetector(
            cascade, detector=DifferenceDetector(threshold=1e-2))
        assert (lazy.run(frames, labels, PROFILER).n_specialized
                < eager.run(frames, labels, PROFILER).n_specialized)

    def test_small_cascade_is_faster_than_noscope_with_same_oracle(
            self, frames_and_labels, oracle):
        """The Figure 8 effect: a tiny-representation cascade beats the
        full-input NoScope pipeline when both avoid the oracle."""
        frames, labels = frames_and_labels
        small = make_model("small", resolution=8, mode="gray", seed=3)
        full = make_model("full", resolution=16, mode="rgb", seed=4)
        detector = DifferenceDetector(threshold=0.0)
        tahoma = TahomaWithDifferenceDetector(
            Cascade((CascadeLevel(small, None),)), detector=detector)
        noscope = noscope_pipeline(full, DecisionThresholds(0.5, 0.5, 0.95),
                                   oracle, detector=detector)
        tahoma_result = tahoma.run(frames, labels, PROFILER)
        noscope_result = noscope.run(frames, labels, PROFILER)
        assert tahoma_result.throughput > noscope_result.throughput
