"""The benchmark's clock: wall time in units of a reference kernel.

The sandbox's two vCPUs are shared with other guests and run 20-40 % slower
for spells of tens of seconds, so the same code timed twice with
``time.perf_counter`` alone differs by more than any bound worth writing
down.  Every timed region is therefore bracketed by a fixed **reference
kernel** (bytecode loop + float32 matmuls + strided image reduce and copy;
nothing from ``src/``), and the end-to-end timings are reported as

    reference seconds = wall seconds / host factor
    host factor       = kernel seconds around the region / KERNEL_NOMINAL_S

— what the region would have taken had the host run the kernel at its nominal
speed.  The kernel does not change with the program, so a program that gets
slower still reads slower by the same share; only the host's drift cancels.
The wall values are kept beside the converted ones (``<name>.wall`` in the
result file) and every per-layer time is plain wall time.

Device waits do not scale with the CPU, so :class:`SyncMeter` times every
``os.fsync`` from outside, and :class:`IngestClock` keeps that wait apart
from the rest of ``db.ingest``'s wall.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["KERNEL_NOMINAL_S", "IngestClock", "ReferenceKernel", "SyncMeter"]

#: A typical kernel pass on this sandbox (≈ 3.0 ms when its neighbours are
#: quiet, 4-5 ms when they are not).  Only ratios of reported timings mean
#: anything, so the value is a convention; changing it rescales every one.
KERNEL_NOMINAL_S = 0.0035


class ReferenceKernel:
    """A fixed piece of work shaped like the program's: interpreter-bound
    bookkeeping, small float32 matmuls, strided image reductions."""

    #: Passes run and thrown away first: the thread may just have woken up
    #: (a barrier, an fsync) on a core that is still cold.
    warm_passes = 4
    #: Passes timed; their total is the sample, so a pass a neighbour
    #: interrupts counts the way an interrupted query does.
    timed_passes = 10

    def __init__(self) -> None:
        rng = np.random.default_rng(20190408)
        self.weights = rng.standard_normal((192, 192), dtype=np.float32)
        self.frames = rng.random((512, 16, 16, 3), dtype=np.float32)

    def one_pass(self) -> None:
        total = 0
        for index in range(30000):
            total += index * index % 7
        hidden = self.weights
        for _ in range(6):
            hidden = np.maximum(hidden @ self.weights * 0.01, 0.0)
        gray = self.frames[:, ::2, ::2].mean(axis=3)
        np.ascontiguousarray(gray.transpose(1, 2, 0))

    def host_factor(self) -> float:
        """How slow the host is right now: 1.0 = nominal, 1.3 = 30 % slow."""
        for _ in range(self.warm_passes):
            self.one_pass()
        started = time.perf_counter()
        for _ in range(self.timed_passes):
            self.one_pass()
        return ((time.perf_counter() - started)
                / (self.timed_passes * KERNEL_NOMINAL_S))


class SyncMeter:
    """Times every ``os.fsync`` while installed (the program calls it through
    the ``os`` module, so one patch sees them all).  The totals are plain
    attributes: in every workload only the main thread ingests and
    checkpoints, so only it syncs."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.count = 0
        self._original = None

    def _fsync(self, fd) -> None:
        started = time.perf_counter()
        try:
            self._original(fd)
        finally:
            self.wall += time.perf_counter() - started
            self.count += 1

    def __enter__(self) -> "SyncMeter":
        self._original, os.fsync = os.fsync, self._fsync
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._original


@dataclass
class IngestClock:
    """``db.ingest`` calls on the clock, the device's share kept apart."""

    sync: SyncMeter
    rows: int = 0
    wall: float = 0.0
    synced: float = 0.0
    syncs: int = 0

    def ingest(self, db, batch, table: str) -> None:
        synced, syncs = self.sync.wall, self.sync.count
        started = time.perf_counter()
        db.ingest(*batch, table=table)
        self.wall += time.perf_counter() - started
        self.synced += self.sync.wall - synced
        self.syncs += self.sync.count - syncs
        self.rows += len(batch[0])

    def rows_per_s(self) -> float:
        """Rows per second of ``db.ingest`` wall outside ``os.fsync``."""
        return self.rows / (self.wall - self.synced)

    def wall_rows_per_s(self) -> float:
        return self.rows / self.wall
