"""Cost profiling: per-model and per-representation cost breakdowns.

The profiler prices the three terms of the paper's cost equation

    ``t_classify = t_load + t_transform + t_infer``

for a given :class:`~repro.costs.device.DeviceProfile` and
:class:`~repro.costs.scenario.Scenario`.  Costs are analytic by default
(FLOPs / device rate, bytes / tier bandwidth, values touched x per-value
transform cost); :func:`measure_inference_time` provides the wall-clock
alternative for real deployments of the NumPy models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.costs.device import DEFAULT_DEVICE, DeviceProfile
from repro.costs.scenario import INFER_ONLY, Scenario
from repro.storage.encoding import raw_bytes
from repro.transforms.spec import TransformSpec

__all__ = ["CostBreakdown", "CostProfiler", "measure_inference_time"]

#: Channels of every source image: the corpora are RGB.
SOURCE_CHANNELS = 3


@dataclass(frozen=True)
class CostBreakdown:
    """Per-image cost of classifying with one model (or one cascade level)."""

    load_s: float = 0.0
    transform_s: float = 0.0
    infer_s: float = 0.0

    def __post_init__(self) -> None:
        if min(self.load_s, self.transform_s, self.infer_s) < 0:
            raise ValueError("cost components must be non-negative")

    @property
    def total_s(self) -> float:
        """Total per-image classification time in seconds."""
        return self.load_s + self.transform_s + self.infer_s

    @property
    def throughput_fps(self) -> float:
        """Images classified per second (the reciprocal of the total time)."""
        if self.total_s == 0:
            return float("inf")
        return 1.0 / self.total_s

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(self.load_s + other.load_s,
                             self.transform_s + other.transform_s,
                             self.infer_s + other.infer_s)

    def scaled(self, factor: float) -> "CostBreakdown":
        """A breakdown with every component multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return CostBreakdown(self.load_s * factor, self.transform_s * factor,
                             self.infer_s * factor)


class CostProfiler:
    """Prices loads, transforms and inferences for one deployment scenario.

    Parameters
    ----------
    device:
        Compute-device profile.
    scenario:
        Deployment scenario (which cost terms apply and from where bytes load).
    source_resolution:
        Side length of the full-size RGB source images in the corpus
        (:data:`SOURCE_CHANNELS` channels, stored uncompressed).
    cost_resolution:
        Optional resolution at which data-handling costs are priced.  The
        reproduction renders corpora at a reduced size (e.g. 32 px) to keep
        CPU training tractable, but a real deployment handles full camera
        frames; setting ``cost_resolution=224`` prices loads and transforms as
        if every representation kept its *relative* size but the source were
        224 px, which preserves the paper's data-handling/inference balance.
        Defaults to ``source_resolution`` (no rescaling).
    """

    def __init__(self, device: DeviceProfile = DEFAULT_DEVICE,
                 scenario: Scenario = INFER_ONLY,
                 source_resolution: int = 224,
                 cost_resolution: int | None = None) -> None:
        if source_resolution <= 0:
            raise ValueError("source_resolution must be positive")
        if cost_resolution is not None and cost_resolution <= 0:
            raise ValueError("cost_resolution must be positive")
        self.device = device
        self.scenario = scenario
        self.source_resolution = source_resolution
        self.cost_resolution = (cost_resolution if cost_resolution is not None
                                else source_resolution)

    # -- individual cost terms ------------------------------------------------
    @property
    def _area_scale(self) -> float:
        """Factor applied to pixel/byte counts when pricing data handling."""
        ratio = self.cost_resolution / self.source_resolution
        return ratio * ratio

    def source_values(self) -> int:
        """Number of scalar values in one full-size source image."""
        return self.source_resolution * self.source_resolution * SOURCE_CHANNELS

    def load_time(self, spec: TransformSpec) -> float:
        """Seconds to load the bytes a classifier with input ``spec`` needs."""
        if not self.scenario.include_load:
            return 0.0
        if self.scenario.load_full_image:
            height = width = self.source_resolution
            channels = SOURCE_CHANNELS
        else:
            height, width, channels = spec.shape
        num_bytes = raw_bytes(height, width, channels)
        return self.scenario.load_tier.read_time(
            int(round(num_bytes * self._area_scale)))

    def transform_time(self, spec: TransformSpec) -> float:
        """Seconds to produce the representation ``spec`` from the source image."""
        if not self.scenario.include_transform:
            return 0.0
        if spec.is_native((self.source_resolution, self.source_resolution,
                           SOURCE_CHANNELS)):
            return 0.0
        values_touched = (self.source_values() + spec.num_values) * self._area_scale
        return self.device.transform_time(values_touched)

    def infer_time(self, flops: int | float) -> float:
        """Seconds of model inference for a model of the given FLOP count."""
        return self.device.inference_time(flops)

    # -- aggregate -------------------------------------------------------------
    def data_handling_cost(self, spec: TransformSpec) -> CostBreakdown:
        """Load + transform cost of materializing ``spec`` for one image."""
        return CostBreakdown(load_s=self.load_time(spec),
                             transform_s=self.transform_time(spec))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CostProfiler(device={self.device.name!r}, "
                f"scenario={self.scenario.name!r}, "
                f"source={self.source_resolution}px)")


def measure_inference_time(network, images: np.ndarray, repeats: int = 3,
                           batch_size: int = 64) -> float:
    """Wall-clock seconds per image for ``network`` on ``images``.

    Used when the library is deployed as a real profiler rather than with the
    analytic cost model; the median over ``repeats`` runs is returned to damp
    scheduler noise.
    """
    if images.shape[0] == 0:
        raise ValueError("need at least one image to measure")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        network.predict(images, batch_size=batch_size)
        timings.append(time.perf_counter() - start)
    return float(np.median(timings) / images.shape[0])
