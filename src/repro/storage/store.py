"""Representation store: pre-materialized input representations.

In the paper's ONGOING scenario, video is transformed into the required input
representations as it is ingested and those representations are stored on SSD,
so only the (much smaller) representation bytes are loaded at query time.
:class:`RepresentationStore` models that behaviour.  It has one reader — the
query executor, which takes every array of its table once per snapshot through
:meth:`arrays_by_recency` (persistence captures a save through the same
call) — and reading never reorders anything.

The entries themselves are the ONGOING policy: ingest extends every
representation the store holds, and nothing else records which ones those
are.  Two pieces make the store safe to keep alive for the lifetime of a
growing, multi-camera database:

* an optional **byte budget** with least-recently-*written* eviction — every
  :meth:`add` / :meth:`append_rows` makes its entry the newest, and whenever
  stored bytes exceed the budget the entries written longest ago are
  dropped.  The query executor recomputes an evicted representation on
  demand, so a budget bounds memory without affecting query results;
  ingest does not — it only extends entries still present, so it never
  rebuilds a window the budget just evicted,
* **namespaces** — a multi-table catalog gives each table a :meth:`scoped`
  view of one shared store, so the byte budget is global while arrays and
  specs stay per-table.  Budget accounting is namespace-aware:
  eviction drains the inserting namespace's own oldest entries before
  touching any other namespace, so one hot camera cannot evict every other
  shard's representations.

Internally each entry is a list of row-aligned **chunks**, one per
ingested batch: :meth:`append_rows` adds a chunk in O(batch) on the
ingest hot path, retention drops whole leading chunks without copying the
survivors, and readers see one consolidated array (the chunk list collapses
on first read, so memory is never held twice).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.locking import make_rlock
from repro.storage.encoding import representation_bytes
from repro.telemetry.metrics import MetricsRegistry
from repro.transforms.spec import TransformSpec

__all__ = ["RepresentationStore"]

#: Internal key type: (namespace, representation name).
_Key = tuple[str, str]


@dataclass
class _Entry:
    """One stored representation: its spec and its row-aligned chunks."""

    spec: TransformSpec
    chunks: list[np.ndarray]

    @property
    def rows(self) -> int:
        return sum(int(chunk.shape[0]) for chunk in self.chunks)

    @property
    def nbytes(self) -> int:
        """Simulated bytes (what the budget counts), not array memory."""
        return representation_bytes(self.spec) * self.rows


@dataclass
class _StoreState:
    """State shared by every namespaced view of one store.

    ``entries`` insertion order is the write order across *all* namespaces:
    add()/append_rows() move the written key to the end, so eviction pops
    from the front.  Readers collapse an entry's chunk list to one array in
    place, which leaves the order alone.
    """

    byte_budget: int | None
    entries: dict[_Key, _Entry] = field(default_factory=dict)  # guarded by: lock
    # The eviction count lives on the metrics registry (thread-safe on its
    # own lock), so `stats` and `metrics` views can never disagree.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    # Reentrant: public entry points hold it while calling each other
    # (add -> _enforce_budget -> total_bytes_stored).
    lock: threading.RLock = field(default_factory=lambda: make_rlock("store"))

    def __post_init__(self) -> None:
        self.eviction_counter = self.metrics.counter(
            "repro_store_evictions_total")


class RepresentationStore:
    """Holds transformed copies of a corpus, keyed by representation name.

    Parameters
    ----------
    byte_budget:
        Maximum simulated bytes the store may hold *across all namespaces*.
        ``None`` (the default) means unbounded.  When an insertion pushes the
        total over the budget, the representations written longest ago are
        evicted until the total fits — the inserting namespace's own entries
        first, then (only if that namespace is drained) other namespaces'
        oldest entries, and including, if necessary, the representation just
        inserted (a single representation larger than the whole budget is
        never kept).
    """

    def __init__(self, byte_budget: int | None = None, *,
                 namespace: str = "",
                 metrics: MetricsRegistry | None = None,
                 _state: _StoreState | None = None) -> None:
        if _state is None:
            if byte_budget is not None and byte_budget <= 0:
                raise ValueError("byte_budget must be positive (or None)")
            _state = _StoreState(
                byte_budget=byte_budget,
                metrics=metrics if metrics is not None else MetricsRegistry())
        self._state = _state
        self.namespace = namespace

    def scoped(self, namespace: str) -> "RepresentationStore":
        """A view of this store confined to ``namespace``.

        The view shares arrays, budget and the eviction clock with every
        other view of the same store; only the keys it sees differ.  A
        catalog hands each table ``store.scoped(table_name)`` so shards share
        one byte budget without sharing representations.
        """
        if not isinstance(namespace, str) or not namespace:
            raise ValueError("namespace must be a non-empty string")
        return RepresentationStore(namespace=namespace, _state=self._state)

    @property
    def byte_budget(self) -> int | None:
        return self._state.byte_budget

    def _key(self, name: str) -> _Key:
        return (self.namespace, name)

    def _own_keys(self) -> list[_Key]:
        # guarded by: self._state.lock
        """This namespace's keys, oldest write first."""
        return [key for key in self._state.entries
                if key[0] == self.namespace]

    # -- ingest ------------------------------------------------------------
    def add(self, spec: TransformSpec, array: np.ndarray) -> None:
        """Store an already-transformed array under ``spec`` (newest write)."""
        expected = spec.shape
        if array.shape[1:] != expected:
            raise ValueError(
                f"array shape {array.shape[1:]} does not match spec {expected}")
        state = self._state
        key = self._key(spec.name)
        with state.lock:
            state.entries.pop(key, None)
            state.entries[key] = _Entry(spec, [array])
            self._enforce_budget(newest=key)

    def append_rows(self, spec: TransformSpec, array: np.ndarray) -> None:
        """Append already-transformed rows as a new chunk, in O(batch).

        The streaming-ingest path: the new rows land as one more chunk
        (the ingested batch they describe) and nothing is
        concatenated until a reader asks for the full array.  Makes the
        entry the newest write and enforces the byte budget like any
        insertion.
        """
        state = self._state
        key = self._key(spec.name)
        with state.lock:
            entry = state.entries.get(key)
            if entry is None:
                raise KeyError(f"representation {spec.name!r} not materialized; "
                               f"cannot extend it")
            if array.shape[1:] != entry.chunks[0].shape[1:]:
                raise ValueError(
                    f"array shape {array.shape[1:]} does not match stored "
                    f"shape {entry.chunks[0].shape[1:]}")
            entry.chunks.append(array)
            state.entries[key] = state.entries.pop(key)
            self._enforce_budget(newest=key)

    # -- access --------------------------------------------------------------
    def __contains__(self, spec: TransformSpec) -> bool:
        with self._state.lock:
            return self._key(spec.name) in self._state.entries

    def specs(self) -> list[TransformSpec]:
        """The representation specs currently materialized (this namespace)."""
        state = self._state
        with state.lock:
            return [state.entries[key].spec
                    for key in sorted(self._own_keys())]

    def arrays_by_recency(self) -> list[tuple[TransformSpec, np.ndarray, int]]:
        """This namespace's ``(spec, array, rank)`` triples, newest write first.

        The one read path: the executor takes a query snapshot's arrays from
        here and persistence the arrays of a save.  ``rank`` is the entry's
        position in the write order of *all* namespaces sharing this store
        (higher = written later), so a save can spend its byte cap on the
        catalog's globally newest arrays.  Reading does not change the order
        (chunk lists are consolidated in place).
        """
        state = self._state
        with state.lock:
            triples = []
            for rank, (key, entry) in enumerate(state.entries.items()):
                if key[0] != self.namespace:
                    continue
                entry.chunks = [_consolidate(entry.chunks)]
                triples.append((entry.spec, entry.chunks[0], rank))
            triples.reverse()
            return triples

    def rows(self, spec: TransformSpec) -> int:
        """Number of rows stored for ``spec`` (0 when not materialized)."""
        with self._state.lock:
            entry = self._state.entries.get(self._key(spec.name))
            return entry.rows if entry is not None else 0

    def drop_oldest_rows(self, n: int) -> None:
        """Trim the first ``n`` rows from every array in this namespace.

        This is the store half of retention windows: when a table drops its
        oldest corpus rows, the stored representation arrays are trimmed in
        step so row ``i`` of an array keeps describing row ``i`` of the
        corpus.  Whole leading chunks are dropped without touching the
        survivors; only a chunk straddling the boundary is copied (never
        sliced — a view would pin the dropped rows' memory).  The freed
        bytes are credited against the global byte budget automatically —
        accounting reads current chunk lengths.  Write order and specs are
        unchanged; entries shorter than ``n`` become empty
        (and are topped back up lazily like any stale array).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n == 0:
            return
        state = self._state
        with state.lock:
            for key in self._own_keys():
                entry = state.entries[key]
                entry.chunks = _drop_chunk_rows(entry.chunks, n)

    def clear(self) -> None:
        """Drop this namespace's stored arrays, keeping the budget (other
        namespaces are untouched)."""
        state = self._state
        with state.lock:
            for key in self._own_keys():
                del state.entries[key]

    # -- accounting -------------------------------------------------------------
    def bytes_stored(self) -> int:
        """Simulated bytes occupied by this namespace's representations."""
        state = self._state
        with state.lock:
            return sum(state.entries[key].nbytes for key in self._own_keys())

    def total_bytes_stored(self) -> int:
        """Simulated bytes stored across *all* namespaces (what the budget caps)."""
        state = self._state
        with state.lock:
            return sum(entry.nbytes for entry in state.entries.values())

    @property
    def evictions(self) -> int:
        """Representations evicted so far (all namespaces) to stay within budget."""
        return int(self._state.metrics.value("repro_store_evictions_total"))

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this store's eviction counter lives on."""
        return self._state.metrics

    def __len__(self) -> int:
        with self._state.lock:
            return len(self._own_keys())

    # -- internals ---------------------------------------------------------
    def _evict(self, key: _Key) -> int:
        # guarded by: self._state.lock
        """Drop one entry, returning the simulated bytes it held."""
        state = self._state
        freed = state.entries.pop(key).nbytes
        state.eviction_counter.inc()
        return freed

    def _enforce_budget(self, newest: _Key) -> None:
        # guarded by: self._state.lock
        state = self._state
        budget = state.byte_budget
        if budget is None:
            return
        # A newcomer that alone exceeds the budget can never be kept: evict
        # just it, not the older entries that did fit.
        if state.entries[newest].nbytes > budget:
            self._evict(newest)

        total = self.total_bytes_stored()
        # Namespace-aware fairness: the inserting namespace pays with its own
        # oldest entries first, so one hot camera cannot evict every other
        # shard's representations.
        for key in [key for key in self._own_keys() if key != newest]:
            if total <= budget:
                return
            total -= self._evict(key)
        while state.entries and total > budget:
            total -= self._evict(next(iter(state.entries)))


def _consolidate(chunks: list[np.ndarray]) -> np.ndarray:
    """Collapse a chunk list into one array (no copy when already one chunk)."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks, axis=0)


def _drop_chunk_rows(chunks: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Drop the first ``n`` rows across a chunk list, freeing whole chunks."""
    remaining = n
    out: list[np.ndarray] = []
    for index, chunk in enumerate(chunks):
        rows = int(chunk.shape[0])
        if remaining >= rows:
            remaining -= rows
            continue
        if remaining > 0:
            # Copy, not slice: a view would pin the dropped rows' memory.
            out.append(chunk[remaining:].copy())
            remaining = 0
        else:
            out.append(chunk)
    if not out:
        # Keep the entry alive (schema and write order) with an empty chunk.
        out.append(chunks[-1][:0].copy())
    return out
