"""Simulated storage substrate.

The paper's deployment scenarios differ in *where image bytes live* before a
query runs (SSD archive, pre-resized representations on SSD, camera memory).
This package models those placements:

* :mod:`repro.storage.encoding` — how many bytes each physical representation
  occupies (8-bit, uncompressed),
* :mod:`repro.storage.tiers` — the memory and SSD tiers with
  bandwidth/latency, and
* :mod:`repro.storage.store` — a representation store that pre-materializes
  resized representations on ingest (the ONGOING scenario).
"""

from repro.storage.encoding import raw_bytes, representation_bytes
from repro.storage.store import RepresentationStore
from repro.storage.tiers import MEMORY, SSD, StorageTier

__all__ = [
    "raw_bytes",
    "representation_bytes",
    "StorageTier",
    "MEMORY",
    "SSD",
    "RepresentationStore",
]
