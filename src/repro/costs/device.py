"""Compute-device profiles used by the analytic cost model."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceProfile", "SERVER_GPU", "DEFAULT_DEVICE", "calibrate_device"]


@dataclass(frozen=True)
class DeviceProfile:
    """Performance characteristics of the machine executing classifiers.

    Parameters
    ----------
    name:
        Profile name.
    flops_per_second:
        Effective sustained multiply-accumulate rate for CNN inference.  This
        is an *effective* rate (it folds in framework overheads), which is why
        it is far below a device's peak figure.
    transform_seconds_per_value:
        Cost of the image-transformation stage per scalar value touched
        (source pixels read plus destination values written).
    inference_overhead_s:
        Fixed per-image inference overhead (kernel launch / framework
        dispatch), independent of model size.
    """

    name: str
    flops_per_second: float
    transform_seconds_per_value: float = 2.0e-9
    inference_overhead_s: float = 2.0e-5

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0:
            raise ValueError("flops_per_second must be positive")
        if self.transform_seconds_per_value < 0:
            raise ValueError("transform_seconds_per_value must be non-negative")
        if self.inference_overhead_s < 0:
            raise ValueError("inference_overhead_s must be non-negative")

    def inference_time(self, flops: int | float) -> float:
        """Seconds to run one inference of a model with the given FLOP count."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        return self.inference_overhead_s + float(flops) / self.flops_per_second

    def transform_time(self, values_touched: int | float) -> float:
        """Seconds to run a transformation touching ``values_touched`` scalars."""
        if values_touched < 0:
            raise ValueError("values_touched must be non-negative")
        return float(values_touched) * self.transform_seconds_per_value


#: A datacenter GPU profile, loosely calibrated to the paper's K80 numbers
#: (a ResNet50-class model lands near 75 inferences per second).
SERVER_GPU = DeviceProfile(
    name="server-gpu",
    flops_per_second=3.0e11,
    transform_seconds_per_value=1.5e-9,
    inference_overhead_s=3.0e-5,
)

DEFAULT_DEVICE = SERVER_GPU


def calibrate_device(device: DeviceProfile, reference_flops: int | float,
                     target_fps: float = 75.0) -> DeviceProfile:
    """Rescale ``device`` so a reference model lands at ``target_fps``.

    The paper reports its fine-tuned ResNet50 at roughly 75 frames per second
    under INFER ONLY.  Our stand-in reference network has a different absolute
    FLOP count, so the benchmarks calibrate the device rate such that the
    reference classifier's analytic inference time matches the paper's anchor
    point; every other model is then priced on the same scale.
    """
    if reference_flops <= 0:
        raise ValueError("reference_flops must be positive")
    if target_fps <= 0:
        raise ValueError("target_fps must be positive")
    target_time = 1.0 / target_fps
    compute_time = target_time - device.inference_overhead_s
    if compute_time <= 0:
        raise ValueError("target_fps too high for the device's fixed overhead")
    return replace(device, flops_per_second=float(reference_flops) / compute_time)
