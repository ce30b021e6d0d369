"""Tests for device profiles and calibration."""

import pytest

from repro.costs.device import SERVER_GPU, DeviceProfile, calibrate_device


def test_inference_time_includes_overhead():
    device = DeviceProfile("d", flops_per_second=1e6, inference_overhead_s=0.5)
    assert device.inference_time(1e6) == pytest.approx(1.5)


def test_inference_time_zero_flops_is_overhead_only():
    device = DeviceProfile("d", flops_per_second=1e6, inference_overhead_s=0.25)
    assert device.inference_time(0) == pytest.approx(0.25)


def test_inference_time_rejects_negative_flops():
    with pytest.raises(ValueError):
        SERVER_GPU.inference_time(-1)


def test_transform_time_linear_in_values():
    device = DeviceProfile("d", flops_per_second=1e6,
                           transform_seconds_per_value=2e-6)
    assert device.transform_time(1000) == pytest.approx(2e-3)


def test_invalid_profiles():
    with pytest.raises(ValueError):
        DeviceProfile("bad", flops_per_second=0)
    with pytest.raises(ValueError):
        DeviceProfile("bad", flops_per_second=1.0, transform_seconds_per_value=-1)


def test_server_gpu_runs_a_resnet50_class_model_near_75_fps():
    # ResNet50 is about 4.1 GFLOPs per 224 px frame.
    assert 60.0 < 1.0 / SERVER_GPU.inference_time(4.1e9) < 90.0


class TestCalibration:
    def test_reference_lands_at_target(self):
        reference_flops = 5e6
        device = calibrate_device(SERVER_GPU, reference_flops, target_fps=75.0)
        assert 1.0 / device.inference_time(reference_flops) == pytest.approx(75.0)

    def test_preserves_other_fields(self):
        device = calibrate_device(SERVER_GPU, 1e6, target_fps=100.0)
        assert device.inference_overhead_s == SERVER_GPU.inference_overhead_s
        assert device.transform_seconds_per_value == SERVER_GPU.transform_seconds_per_value

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValueError):
            calibrate_device(SERVER_GPU, 1e6, target_fps=1e9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            calibrate_device(SERVER_GPU, 0, target_fps=75.0)
        with pytest.raises(ValueError):
            calibrate_device(SERVER_GPU, 1e6, target_fps=0.0)
