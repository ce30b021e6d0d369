"""Storage tiers with bandwidth and per-access latency."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StorageTier", "MEMORY", "SSD"]


@dataclass(frozen=True)
class StorageTier:
    """A place image bytes can live before a query touches them.

    Parameters
    ----------
    name:
        Tier name.
    bandwidth_bytes_per_s:
        Sustained sequential read bandwidth.
    latency_s:
        Fixed per-object access latency (seek / request overhead).
    """

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")

    def read_time(self, num_bytes: int) -> float:
        """Seconds to read ``num_bytes`` from this tier."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s


#: Bytes already in host memory: effectively free to "load".
MEMORY = StorageTier("memory", bandwidth_bytes_per_s=50e9, latency_s=0.0)

#: A local SSD, the paper's ARCHIVE and ONGOING storage device.
SSD = StorageTier("ssd", bandwidth_bytes_per_s=500e6, latency_s=60e-6)
