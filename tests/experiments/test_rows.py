"""Unit tests for the experiment result dataclasses (no workspace needed)."""

import numpy as np
import pytest

from repro.baselines.noscope import PipelineResult
from repro.costs.profiler import CostBreakdown
from repro.experiments.noscope_exp import StreamComparison
from repro.experiments.scenarios import AwarenessRow
from repro.experiments.speedups import FastestRow


class TestAwarenessRow:
    def test_gain_percent(self):
        row = AwarenessRow("camera", 0.05, oblivious_fps=100.0, aware_fps=150.0)
        assert row.gain_percent == pytest.approx(50.0)

    def test_zero_oblivious_gain_is_infinite(self):
        row = AwarenessRow("camera", 0.05, oblivious_fps=0.0, aware_fps=150.0)
        assert row.gain_percent == float("inf")


class TestFastestRow:
    def test_speedup_and_accuracy_drop(self):
        row = FastestRow("infer_only", reference_fps=75.0,
                         tahoma_fastest_fps=15000.0,
                         tahoma_fastest_accuracy=0.85, reference_accuracy=0.95)
        assert row.speedup == pytest.approx(200.0)
        assert row.accuracy_drop == pytest.approx(0.10)

    def test_zero_reference_fps(self):
        row = FastestRow("x", 0.0, 10.0, 0.9, 0.9)
        assert row.speedup == float("inf")


def make_pipeline_result(name, fps, n_frames=100, n_reused=20, n_oracle=5):
    n_specialized = n_frames - n_reused
    return PipelineResult(name=name, labels=np.zeros(n_frames, dtype=np.int64),
                          accuracy=0.9, n_frames=n_frames, n_reused=n_reused,
                          n_specialized=n_specialized, n_oracle=n_oracle,
                          cost=CostBreakdown(infer_s=1.0 / fps))


class TestPipelineResult:
    def test_fractions(self):
        result = make_pipeline_result("noscope", fps=1000.0)
        assert result.reuse_fraction == pytest.approx(0.2)
        assert result.oracle_fraction == pytest.approx(5 / 80)
        assert result.throughput == pytest.approx(1000.0)

    def test_zero_frames_edge_cases(self):
        result = PipelineResult(name="x", labels=np.zeros(0, dtype=np.int64),
                                accuracy=float("nan"), n_frames=0, n_reused=0,
                                n_specialized=0, n_oracle=0, cost=CostBreakdown())
        assert result.reuse_fraction == 0.0
        assert result.oracle_fraction == 0.0


class TestStreamComparison:
    def test_speedup_ratio(self):
        comparison = StreamComparison(
            stream_name="coral",
            noscope=make_pipeline_result("noscope", fps=1000.0),
            tahoma_dd=make_pipeline_result("tahoma+dd", fps=4000.0))
        assert comparison.speedup == pytest.approx(4.0)
