"""Tests for the cost profiler and cost breakdowns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.device import DeviceProfile
from repro.costs.profiler import CostBreakdown, CostProfiler, measure_inference_time
from repro.costs.scenario import ARCHIVE, CAMERA, INFER_ONLY, ONGOING
from repro.nn.layers import Dense, Sigmoid
from repro.nn.network import Sequential
from repro.transforms.spec import TransformSpec

DEVICE = DeviceProfile("test", flops_per_second=1e9,
                       transform_seconds_per_value=1e-8,
                       inference_overhead_s=1e-5)


class TestCostBreakdown:
    def test_total_and_throughput(self):
        cost = CostBreakdown(load_s=0.1, transform_s=0.2, infer_s=0.2)
        assert cost.total_s == pytest.approx(0.5)
        assert cost.throughput_fps == pytest.approx(2.0)

    def test_zero_cost_has_infinite_throughput(self):
        assert CostBreakdown().throughput_fps == float("inf")

    def test_addition_and_scaling(self):
        a = CostBreakdown(1.0, 2.0, 3.0)
        b = CostBreakdown(0.5, 0.5, 0.5)
        total = a + b
        assert total.total_s == pytest.approx(7.5)
        assert a.scaled(0.5).total_s == pytest.approx(3.0)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            CostBreakdown(load_s=-1.0)
        with pytest.raises(ValueError):
            CostBreakdown().scaled(-1.0)


class TestCostProfiler:
    def test_infer_only_has_no_data_handling(self):
        profiler = CostProfiler(DEVICE, INFER_ONLY, source_resolution=32)
        cost = profiler.data_handling_cost(TransformSpec(8, "gray"))
        assert cost.load_s == 0.0 and cost.transform_s == 0.0
        assert profiler.infer_time(1e6) > 0.0

    def test_archive_loads_full_image_regardless_of_spec(self):
        profiler = CostProfiler(DEVICE, ARCHIVE, source_resolution=32)
        small = profiler.load_time(TransformSpec(8, "gray"))
        large = profiler.load_time(TransformSpec(32, "rgb"))
        assert small == pytest.approx(large)
        assert small > 0

    def test_archive_load_is_the_rgb_source_image(self):
        # ARCHIVE reads the stored 3-channel source frame whatever the
        # classifier's input; ONGOING reads that frame's bytes only when the
        # representation is the source itself.
        archive = CostProfiler(DEVICE, ARCHIVE, source_resolution=32)
        ongoing = CostProfiler(DEVICE, ONGOING, source_resolution=32)
        assert ARCHIVE.load_tier == ONGOING.load_tier
        assert (archive.load_time(TransformSpec(8, "gray"))
                == ongoing.load_time(TransformSpec(32, "rgb")))

    def test_ongoing_load_scales_with_representation(self):
        profiler = CostProfiler(DEVICE, ONGOING, source_resolution=32)
        small = profiler.load_time(TransformSpec(8, "gray"))
        large = profiler.load_time(TransformSpec(32, "rgb"))
        assert large > small

    def test_camera_transform_scales_with_representation(self):
        profiler = CostProfiler(DEVICE, CAMERA, source_resolution=32)
        small = profiler.transform_time(TransformSpec(8, "gray"))
        identity = profiler.transform_time(TransformSpec(32, "rgb"))
        assert small > 0
        assert identity == 0.0  # no resize needed for the native representation

    def test_infer_time_monotone_in_flops(self):
        profiler = CostProfiler(DEVICE, INFER_ONLY, source_resolution=32)
        assert profiler.infer_time(2e6) > profiler.infer_time(1e6)

    def test_cost_resolution_scales_data_handling_only(self):
        base = CostProfiler(DEVICE, CAMERA, source_resolution=32)
        scaled = CostProfiler(DEVICE, CAMERA, source_resolution=32,
                              cost_resolution=224)
        spec = TransformSpec(8, "gray")
        ratio = (224 / 32) ** 2
        assert scaled.transform_time(spec) == pytest.approx(
            base.transform_time(spec) * ratio)
        assert scaled.infer_time(1e6) == pytest.approx(base.infer_time(1e6))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CostProfiler(DEVICE, INFER_ONLY, source_resolution=0)
        with pytest.raises(ValueError):
            CostProfiler(DEVICE, INFER_ONLY, source_resolution=32, cost_resolution=0)

    def test_scenario_ordering_for_a_small_model(self):
        """INFER ONLY is never slower than CAMERA/ONGOING, ARCHIVE is slowest."""
        spec = TransformSpec(8, "gray")
        flops = 1e5
        totals = {}
        for scenario in (INFER_ONLY, CAMERA, ONGOING, ARCHIVE):
            profiler = CostProfiler(DEVICE, scenario, source_resolution=32,
                                    cost_resolution=224)
            totals[scenario.name] = (profiler.data_handling_cost(spec).total_s
                                     + profiler.infer_time(flops))
        assert totals["infer_only"] <= totals["camera"]
        assert totals["infer_only"] <= totals["ongoing"]
        assert totals["archive"] >= totals["ongoing"]


class TestMeasuredMode:
    def test_measure_inference_time_positive(self):
        net = Sequential([Dense(4, 1), Sigmoid()], input_shape=(4,))
        images = np.random.default_rng(0).random((32, 4))
        seconds = measure_inference_time(net, images, repeats=2)
        assert seconds > 0

    def test_measure_requires_images(self):
        net = Sequential([Dense(4, 1), Sigmoid()], input_shape=(4,))
        with pytest.raises(ValueError):
            measure_inference_time(net, np.zeros((0, 4)))


@settings(max_examples=25, deadline=None)
@given(flops=st.floats(0, 1e9), resolution=st.sampled_from([8, 16, 30, 60]),
       mode=st.sampled_from(["rgb", "gray", "red"]))
def test_model_cost_components_nonnegative(flops, resolution, mode):
    profiler = CostProfiler(DEVICE, ARCHIVE, source_resolution=64)
    cost = (profiler.data_handling_cost(TransformSpec(resolution, mode))
            + CostBreakdown(infer_s=profiler.infer_time(flops)))
    assert cost.load_s >= 0 and cost.transform_s >= 0 and cost.infer_s >= 0
    assert cost.total_s >= cost.infer_s
