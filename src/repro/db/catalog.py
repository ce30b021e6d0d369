"""The table catalog: named corpora behind one shared representation budget.

The paper's CAMERA scenario assumes many live feeds; the catalog is the piece
that lets one :class:`~repro.db.database.VisualDatabase` hold many of them as
named tables (one per camera, archive, or other shard).  Each table owns its
own :class:`~repro.db.executor.QueryExecutor` — corpus and materialized
virtual columns — while all tables share a single
:class:`~repro.storage.store.RepresentationStore` budget through per-table
:meth:`~repro.storage.store.RepresentationStore.scoped` namespaces, so one
hot camera cannot evict every other shard's representations.

``SELECT * FROM <table>`` routes to that table's executor; the reserved
virtual table :data:`FANOUT_TABLE` (``all_cameras``) fans a query out across
every attached shard.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.data.corpus import ImageCorpus
from repro.db.executor import QueryExecutor
from repro.db.retention import RetentionPolicy
from repro.locking import make_rlock
from repro.query.model import DEFAULT_TABLE
from repro.storage.store import RepresentationStore
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Catalog", "DEFAULT_TABLE", "FANOUT_TABLE"]

#: Reserved virtual table: ``SELECT * FROM all_cameras`` fans out across
#: every attached table.  It can never be attached.
FANOUT_TABLE = "all_cameras"

_TABLE_NAME_RE = re.compile(r"^[a-zA-Z_]\w*$")


class Catalog:
    """Named tables, each an :class:`~repro.db.executor.QueryExecutor`.

    Parameters
    ----------
    store_budget:
        Byte budget for the *shared* representation store.  All tables draw
        on one budget; accounting is namespace-aware (see
        :mod:`repro.storage.store`).
    metrics:
        The registry the store's eviction counter and every attached
        executor's query histograms and store hit/miss counters land on; a
        private registry is created when omitted so a standalone catalog
        still meters itself.
    """

    def __init__(self, store_budget: int | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._store = RepresentationStore(byte_budget=store_budget,
                                          metrics=self.metrics)
        # Reentrant: replace() detaches and re-attaches under one hold, so
        # membership changes are atomic to concurrent readers.  The catalog
        # lock is only ever the *outermost* lock (catalog -> executor ->
        # wal/store); no executor or store path calls back into the catalog.
        self._lock = make_rlock("catalog")
        self._executors: dict[str, QueryExecutor] = {}  # guarded by: self._lock

    # -- membership -----------------------------------------------------------
    def attach(self, name: str, corpus: ImageCorpus,
               retention: RetentionPolicy | None = None) -> QueryExecutor:
        """Attach ``corpus`` as table ``name``; rejects duplicates.

        ``retention`` makes the table a sliding window over its feed: the
        oldest rows are dropped whenever the window is exceeded (see
        :class:`~repro.db.retention.RetentionPolicy`).
        """
        self._validate_name(name)
        with self._lock:
            if name in self._executors:
                raise ValueError(f"table {name!r} already attached; "
                                 f"detach it first or use replace()")
            executor = QueryExecutor(corpus, store=self._store.scoped(name),
                                     table=name, retention=retention,
                                     metrics=self.metrics)
            self._executors[name] = executor
            return executor

    def replace(self, name: str, corpus: ImageCorpus,
                retention: RetentionPolicy | None = None) -> QueryExecutor:
        """Attach ``corpus`` as ``name``, dropping any previous shard's state."""
        with self._lock:
            if name in self._executors:
                self.detach(name)
            return self.attach(name, corpus, retention=retention)

    def detach(self, name: str) -> None:
        """Drop table ``name``: executor state and its store namespace."""
        with self._lock:
            executor = self._executors.pop(name, None)
            if executor is None:
                raise KeyError(f"no table {name!r}; "
                               f"attached: {self.tables()}")
        # Clear outside the membership-critical section: the shard is
        # already invisible, and the store lock is taken without holding
        # the catalog lock on this (detach-only) path.
        executor.store.clear()

    # -- lookup ---------------------------------------------------------------
    def tables(self) -> list[str]:
        """Attached table names, in attachment order."""
        with self._lock:
            return list(self._executors)

    def executor(self, name: str) -> QueryExecutor:
        with self._lock:
            try:
                return self._executors[name]
            except KeyError:
                raise KeyError(f"no table {name!r}; "
                               f"attached: {self.tables()}") from None

    def default_table(self) -> str | None:
        """The table unqualified operations act on.

        :data:`DEFAULT_TABLE` when attached (the single-corpus API), else the
        sole table when exactly one is attached, else ``None`` — callers must
        then name a table explicitly.
        """
        with self._lock:
            if DEFAULT_TABLE in self._executors:
                return DEFAULT_TABLE
            if len(self._executors) == 1:
                return next(iter(self._executors))
            return None

    @property
    def store(self) -> RepresentationStore:
        """The shared (root) representation store; tables see scoped views."""
        return self._store

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._executors

    def __len__(self) -> int:
        with self._lock:
            return len(self._executors)

    def __iter__(self) -> Iterator[str]:
        # Iterate a snapshot: handing out a live dict iterator would let
        # concurrent attach/detach raise mid-iteration in the caller.
        with self._lock:
            return iter(list(self._executors))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Catalog(tables={self.tables()})"

    # -- internals -------------------------------------------------------------
    @staticmethod
    def _validate_name(name: str) -> None:
        if not isinstance(name, str) or not _TABLE_NAME_RE.match(name):
            raise ValueError(f"invalid table name {name!r}; table names are "
                             "SQL identifiers ([a-zA-Z_][a-zA-Z0-9_]*)")
        if name == FANOUT_TABLE:
            raise ValueError(f"{FANOUT_TABLE!r} is the reserved virtual "
                             "fan-out table and cannot be attached")
