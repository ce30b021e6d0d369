"""Representation store: pre-materialized input representations.

In the paper's ONGOING scenario, video is transformed into the required input
representations as it is ingested and those representations are stored on SSD,
so only the (much smaller) representation bytes are loaded at query time.
:class:`RepresentationStore` models that behaviour and is also a convenient
cache when evaluating many models that share a representation.

Three pieces make the store safe to keep alive for the lifetime of a growing,
multi-camera database:

* a **registration set** — representations a deployment has committed to
  materializing at ingest time (the ONGOING policy); registration survives
  :meth:`clear` and persistence, while the arrays themselves may come and go,
* an optional **byte budget** with least-recently-used eviction — whenever
  stored bytes exceed the budget the coldest representations are dropped.
  Evicted representations are recomputed on demand by the consumers
  (:meth:`get_or_transform`, the query executor), so a budget bounds memory
  without affecting query results,
* **namespaces** — a multi-table catalog gives each table a :meth:`scoped`
  view of one shared store, so the byte budget is global while arrays, specs
  and registrations stay per-table.  Budget accounting is namespace-aware:
  eviction drains the inserting namespace's own cold entries before touching
  any other namespace, so one hot camera cannot evict every other shard's
  representations.

Internally each entry is a list of row-aligned **chunks** mirroring the
corpus's segment list: :meth:`append_rows` adds a chunk in O(batch) on the
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
class _StoreState:
    """State shared by every namespaced view of one store.

    ``arrays`` insertion order doubles as recency order across *all*
    namespaces: get()/add() move the touched key to the end, so eviction pops
    from the front.  Each value is a list of row-aligned chunks; readers
    collapse the list to one array in place.
    """

    byte_budget: int | None
    arrays: dict[_Key, list[np.ndarray]] = field(default_factory=dict)  # guarded by: lock
    specs: dict[_Key, TransformSpec] = field(default_factory=dict)  # guarded by: lock
    registered: dict[_Key, TransformSpec] = field(default_factory=dict)  # guarded by: lock
    # Hit/miss/eviction counts live on the metrics registry (thread-safe on
    # its own lock), so `stats` and `metrics` views can never disagree.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    # Reentrant: public entry points hold it while calling each other
    # (purge -> clear, specs -> _names) and the _enforce_budget/_evict helpers.
    lock: threading.RLock = field(default_factory=lambda: make_rlock("store"))

    def __post_init__(self) -> None:
        self.hit_counter = self.metrics.counter("repro_store_hits_total")
        self.miss_counter = self.metrics.counter("repro_store_misses_total")
        self.eviction_counter = self.metrics.counter(
            "repro_store_evictions_total")


class RepresentationStore:
    """Holds transformed copies of a corpus, keyed by representation name.

    Parameters
    ----------
    byte_budget:
        Maximum simulated bytes the store may hold *across all namespaces*.
        ``None`` (the default) means unbounded.  When an insertion pushes the
        total over the budget, least-recently-used representations are
        evicted until the total fits — the inserting namespace's own entries
        first, then (only if that namespace is drained) other namespaces'
        coldest entries, and including, if necessary, the representation just
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

    # -- ingest ------------------------------------------------------------
    def materialize(self, images: np.ndarray,
                    specs: list[TransformSpec] | tuple[TransformSpec, ...]) -> None:
        """Transform ``images`` into every representation in ``specs`` and keep them.

        This is the ingest-time entry point, so the specs are also
        :meth:`register`-ed: later :meth:`append_rows` calls (new frames
        arriving) extend these representations.
        """
        if images.ndim != 4:
            raise ValueError(f"expected NHWC batch, got shape {images.shape}")
        for spec in specs:
            self.register(spec)
            self.add(spec, spec.apply_batch(images))

    def add(self, spec: TransformSpec, array: np.ndarray) -> None:
        """Store an already-transformed array under ``spec`` (marks it hot)."""
        expected = spec.shape
        if array.shape[1:] != expected:
            raise ValueError(
                f"array shape {array.shape[1:]} does not match spec {expected}")
        state = self._state
        key = self._key(spec.name)
        with state.lock:
            state.arrays.pop(key, None)
            state.arrays[key] = [array]
            state.specs[key] = spec
            self._enforce_budget(newest=key)

    def append_rows(self, spec: TransformSpec, array: np.ndarray) -> None:
        """Append already-transformed rows as a new chunk, in O(batch).

        The streaming-ingest path: the new rows land as one more chunk
        (mirroring the corpus segment they describe) and nothing is
        concatenated until a reader asks for the full array.
        Marks the entry hot and enforces the byte budget like any insertion.
        """
        state = self._state
        key = self._key(spec.name)
        with state.lock:
            try:
                chunks = state.arrays.pop(key)
            except KeyError:
                raise KeyError(f"representation {spec.name!r} not materialized; "
                               f"cannot extend it") from None
            if array.shape[1:] != chunks[0].shape[1:]:
                state.arrays[key] = chunks
                raise ValueError(
                    f"array shape {array.shape[1:]} does not match stored "
                    f"shape {chunks[0].shape[1:]}")
            chunks.append(array)
            state.arrays[key] = chunks
            self._enforce_budget(newest=key)

    def register(self, spec: TransformSpec) -> None:
        """Commit to materializing ``spec`` for new rows at ingest time.

        Registration is policy, not data: it survives :meth:`clear` and
        eviction, and is persisted with the database so a reloaded ONGOING
        deployment keeps materializing the same representations.
        """
        with self._state.lock:
            self._state.registered[self._key(spec.name)] = spec

    def registered_specs(self) -> list[TransformSpec]:
        """The specs committed to ingest-time materialization (this namespace)."""
        state = self._state
        with state.lock:
            return [state.registered[key] for key in sorted(state.registered)
                    if key[0] == self.namespace]

    # -- access --------------------------------------------------------------
    def __contains__(self, spec: TransformSpec) -> bool:
        with self._state.lock:
            return self._key(spec.name) in self._state.arrays

    def get(self, spec: TransformSpec) -> np.ndarray:
        """The stored representation array for ``spec`` (marks it hot)."""
        array = self.try_get(spec)
        if array is None:
            raise KeyError(f"representation {spec.name!r} not materialized; "
                           f"available: {sorted(self._names())}")
        return array

    def try_get(self, spec: TransformSpec) -> np.ndarray | None:
        """Like :meth:`get` but ``None`` on a miss, atomically.

        Concurrent shards sharing a byte budget can evict each other's
        entries between a caller's ``in`` check and its ``get`` — consumers
        that fall back to recomputing (:meth:`get_or_transform`) use this
        instead of the non-atomic check-then-get pair.  The query executor
        does not come through here: it reads :meth:`arrays_by_recency` once
        per snapshot and counts its own hits and misses.
        """
        state = self._state
        key = self._key(spec.name)
        with state.lock:
            try:
                chunks = state.arrays.pop(key)
            except KeyError:
                state.miss_counter.inc()
                return None
            array = _consolidate(chunks)
            state.arrays[key] = [array]
            state.hit_counter.inc()
            return array

    def get_or_transform(self, spec: TransformSpec,
                         source_images: np.ndarray) -> np.ndarray:
        """Return the stored representation, transforming and caching on miss.

        Under a byte budget the freshly transformed array may be evicted
        immediately (when it alone exceeds the budget); the computed array is
        returned to the caller either way.
        """
        stored = self.try_get(spec)
        if stored is not None:
            return stored
        array = spec.apply_batch(source_images)
        self.add(spec, array)
        return array

    def _names(self) -> list[str]:
        # Reentrant lock: callers already inside the critical section
        # (specs, error paths in get) re-acquire harmlessly.
        with self._state.lock:
            return [key[1] for key in self._state.arrays
                    if key[0] == self.namespace]

    def specs(self) -> list[TransformSpec]:
        """The representation specs currently materialized (this namespace)."""
        state = self._state
        with state.lock:
            return [state.specs[(self.namespace, name)]
                    for name in sorted(self._names())]

    def arrays_by_recency(self) -> list[tuple[TransformSpec, np.ndarray]]:
        """This namespace's (spec, array) pairs, hottest first.

        Used by persistence to save the most valuable arrays under a size
        cap; reading through this method does not change recency (chunk
        lists are consolidated in place, which preserves insertion order).
        """
        state = self._state
        with state.lock:
            keys = [key for key in state.arrays if key[0] == self.namespace]
            pairs = []
            for key in reversed(keys):
                state.arrays[key] = [_consolidate(state.arrays[key])]
                pairs.append((state.specs[key], state.arrays[key][0]))
            return pairs

    def recency_rank(self, spec: TransformSpec) -> int | None:
        """Global recency of ``spec``'s entry (higher = hotter), or ``None``.

        The rank orders entries across *all* namespaces sharing this store,
        so persistence can spend a byte cap on the catalog's globally
        hottest arrays; reading it does not change recency.
        """
        state = self._state
        key = self._key(spec.name)
        with state.lock:
            for rank, stored_key in enumerate(state.arrays):
                if stored_key == key:
                    return rank
            return None

    def rows(self, spec: TransformSpec) -> int:
        """Number of rows stored for ``spec`` (0 when not materialized)."""
        with self._state.lock:
            chunks = self._state.arrays.get(self._key(spec.name))
            if chunks is None:
                return 0
            return sum(int(chunk.shape[0]) for chunk in chunks)

    def drop_oldest_rows(self, n: int) -> None:
        """Trim the first ``n`` rows from every array in this namespace.

        This is the store half of retention windows: when a table drops its
        oldest corpus rows, the stored representation arrays are trimmed in
        step so row ``i`` of an array keeps describing row ``i`` of the
        corpus.  Whole leading chunks are dropped without touching the
        survivors; only a chunk straddling the boundary is copied (never
        sliced — a view would pin the dropped rows' memory).  The freed
        bytes are credited against the global byte budget automatically —
        accounting reads current chunk lengths.  Recency, specs and
        registrations are unchanged; entries shorter than ``n`` become empty
        (and are topped back up lazily like any stale array).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n == 0:
            return
        state = self._state
        with state.lock:
            for key in [key for key in state.arrays
                        if key[0] == self.namespace]:
                state.arrays[key] = _drop_chunk_rows(state.arrays[key], n)

    def clear(self) -> None:
        """Drop this namespace's stored arrays, keeping budget and
        registrations (other namespaces are untouched)."""
        state = self._state
        with state.lock:
            for key in [key for key in state.arrays
                        if key[0] == self.namespace]:
                del state.arrays[key]
                del state.specs[key]

    def purge(self) -> None:
        """Drop this namespace entirely: arrays *and* registrations.

        Used when a table is detached from a catalog — nothing of the shard
        should keep occupying the shared budget or the ingest policy.
        """
        state = self._state
        with state.lock:
            self.clear()
            for key in [key for key in state.registered
                        if key[0] == self.namespace]:
                del state.registered[key]

    # -- accounting -------------------------------------------------------------
    def bytes_stored(self, per_image: bool = False) -> int:
        """Simulated bytes occupied by this namespace's representations."""
        state = self._state
        with state.lock:
            total = 0
            for key, chunks in state.arrays.items():
                if key[0] != self.namespace:
                    continue
                count = 1 if per_image else \
                    sum(int(chunk.shape[0]) for chunk in chunks)
                total += representation_bytes(state.specs[key]) * count
            return int(total)

    def total_bytes_stored(self) -> int:
        """Simulated bytes stored across *all* namespaces (what the budget caps)."""
        state = self._state
        with state.lock:
            return int(sum(self._entry_bytes(key) for key in state.arrays))

    @property
    def evictions(self) -> int:
        """Representations evicted so far (all namespaces) to stay within budget."""
        return int(self._state.metrics.value("repro_store_evictions_total"))

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this store's hit/miss/eviction counters live on."""
        return self._state.metrics

    def __len__(self) -> int:
        return len(self._names())

    # -- internals ---------------------------------------------------------
    def _entry_bytes(self, key: _Key) -> int:
        state = self._state
        rows = sum(int(chunk.shape[0]) for chunk in state.arrays[key])
        return representation_bytes(state.specs[key]) * rows

    def _evict(self, key: _Key) -> None:
        state = self._state
        del state.arrays[key]
        del state.specs[key]
        state.eviction_counter.inc()

    def _enforce_budget(self, newest: _Key | None = None) -> None:
        state = self._state
        budget = state.byte_budget
        if budget is None:
            return
        # A newcomer that alone exceeds the budget can never be kept: evict
        # just it, not the warm entries that did fit.
        if (newest in state.arrays
                and self._entry_bytes(newest) > budget):
            self._evict(newest)

        total = self.total_bytes_stored()
        # Namespace-aware fairness: the inserting namespace pays with its own
        # coldest entries first, so one hot camera cannot evict every other
        # shard's representations.
        if newest is not None:
            own = [key for key in state.arrays
                   if key[0] == newest[0] and key != newest]
            for key in own:
                if total <= budget:
                    return
                total -= self._entry_bytes(key)
                self._evict(key)
        while state.arrays and total > budget:
            key = next(iter(state.arrays))
            total -= self._entry_bytes(key)
            self._evict(key)


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
        # Keep the entry alive (schema and recency) with an empty chunk.
        out.append(chunks[-1][:0].copy())
    return out
