"""Query execution: runs a physical plan over the corpus.

The executor owns the mutable query-time state the paper's system keeps
between queries:

* the base metadata relation over the corpus,
* the **materialized virtual columns** — once ``contains_object(c)`` has been
  evaluated for a row, the label is kept and later queries never re-classify
  that row — and
* a **shared, persistent** :class:`~repro.storage.store.RepresentationStore`
  holding full-corpus input representations, so a representation computed for
  one predicate (or one query) is reused by every later cascade level,
  predicate and query that consumes the same representation.

Plans come from :class:`~repro.db.planner.QueryPlanner`; the executor never
chooses cascades or orders predicates itself.

Queries run against a **snapshot**: :meth:`execute` captures a frozen view of
the shard (read-only views of the corpus window, base relation, materialized
columns, stored representations, id offset) under the per-shard lock, then
evaluates the plan entirely lock-free, and finally merges what it learned
(new materialized labels, topped-up representations) back under the lock.
Reads therefore no longer serialize against ``ingest()``/``retain()`` for the
duration of classification — only for the capture and merge instants — and a
query always sees one consistent corpus even while the shard churns.  Merge
maps snapshot rows to current rows through the id-offset shift, so labels
computed for rows retention dropped mid-query are discarded and surviving
rows keep their results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.data.corpus import ImageCorpus
from repro.locking import make_rlock
from repro.query.model import QueryResult
from repro.query.relation import Relation
from repro.storage.store import RepresentationStore
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import NO_SPAN

from repro.db.planner import (ContentStep, MetadataStep, PlanAnd, PlanNot,
                              PlanOr, QueryPlan)
from repro.db.retention import RetentionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.db.wal import TableWal
    from repro.transforms.spec import TransformSpec

__all__ = ["QueryExecutor", "TableImage"]

#: A representation missing from the store is transformed (and kept) for the
#: *whole* snapshot only when one classify call covers at least this fraction
#: of it; narrower calls leave it to the cascade, which transforms just the
#: rows reaching the level that needs it, so a needle-in-haystack query never
#: pays O(corpus) transform work.
FULL_MATERIALIZE_FRACTION = 0.5


@dataclass
class _Snapshot:
    """A frozen view of one shard, captured under the lock.

    Every array here is immutable: the corpus hands out read-only views
    whose bytes it never writes again, and the other mutators replace arrays
    instead of writing in place, so holding references is safe while the
    live shard moves on.  ``materialized`` / ``reps`` start as shallow
    copies of the live state; execution replaces entries it touches and
    records the keys in ``dirty_materialized`` / ``dirty_reps`` so the merge
    step knows what it learned.  ``reps`` maps ``TransformSpec.name`` to a
    row-aligned array and is handed to the cascades as is.
    """

    images: np.ndarray
    relation: Relation
    materialized: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    id_offset: int
    epoch: int
    n: int
    reps: dict[str, np.ndarray]
    dirty_materialized: set[tuple[str, str]] = field(default_factory=set)
    dirty_reps: dict[str, "TransformSpec"] = field(default_factory=dict)
    registered: list = field(default_factory=list)
    # Per-plan-node execution measurements, keyed by ``id(plan node)``:
    # rows in/out, rows classified, elapsed seconds — accumulated across
    # chunks and surfaced as QueryResult.node_stats (EXPLAIN ANALYZE).
    node_stats: dict = field(default_factory=dict)


@dataclass
class TableImage:
    """One table's persistent state, captured in a single hold of the lock.

    What :func:`repro.db.persistence.save_database` writes for a table.
    Every array is immutable by convention (see :class:`_Snapshot`), so the
    save serializes lock-free; because corpus, labels, id offset and
    representation arrays come from one instant, row ``i`` of every array
    here describes row ``i`` of ``images``.  ``store_arrays`` holds
    ``(spec, array, rank)`` triples, newest write first — ``rank`` is the
    store-wide write order, comparable across tables.  ``wal_generation`` is
    the journal generation a checkpoint rotated to (``None`` for a plain save).
    """

    images: np.ndarray
    metadata: dict[str, np.ndarray]
    content: dict[str, np.ndarray]
    materialized: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    retention: RetentionPolicy | None
    id_offset: int
    registered_specs: list
    store_arrays: list
    wal_generation: int | None


class QueryExecutor:
    """Evaluates :class:`~repro.db.planner.QueryPlan` objects over a corpus.

    Parameters
    ----------
    corpus:
        The image corpus with metadata columns.
    store:
        Optional pre-populated representation store (e.g. the paper's ONGOING
        scenario, where representations are materialized at ingest).  A fresh
        store is created when omitted; either way it persists across queries.
        Queries add a missing representation to it only when they classify
        at least :data:`FULL_MATERIALIZE_FRACTION` of the corpus at once.
    min_limit_chunk:
        Chunk size floor for ``LIMIT`` queries: candidate rows are classified
        in chunks of ``max(min_limit_chunk, 4 * limit)`` and execution stops
        as soon as the limit is satisfied, so a selective LIMIT query never
        classifies the whole candidate set.
    table:
        The catalog table this executor backs (purely informational; a
        catalog passes the table name so diagnostics can name the shard).
    retention:
        Optional :class:`~repro.db.retention.RetentionPolicy` making this
        table a sliding window over its feed: the oldest rows are dropped at
        the end of every :meth:`ingest` (and on demand via :meth:`retain`),
        truncating corpus, base relation, materialized virtual columns and
        the store namespace coherently while image ids stay stable.
    """

    def __init__(self, corpus: ImageCorpus,
                 store: RepresentationStore | None = None,
                 min_limit_chunk: int = 64,
                 table: str = "",
                 retention: RetentionPolicy | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if len(corpus) == 0:
            raise ValueError("corpus is empty")
        if min_limit_chunk < 1:
            raise ValueError("min_limit_chunk must be positive")
        self.corpus = corpus
        self.store = store if store is not None else RepresentationStore()
        self.min_limit_chunk = min_limit_chunk
        self.table = table
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._execute_seconds = self.metrics.histogram(
            "repro_query_execute_seconds")
        self._snapshot_seconds = self.metrics.histogram(
            "repro_query_snapshot_capture_seconds")
        self._merge_seconds = self.metrics.histogram(
            "repro_query_merge_seconds")
        self._replay_seconds = self.metrics.histogram(
            "repro_wal_replay_seconds")
        self._rows_classified = self.metrics.counter(
            "repro_query_rows_classified_total")
        self._store_hits = self.metrics.counter("repro_store_hits_total")
        self._store_misses = self.metrics.counter("repro_store_misses_total")
        # One lock per table: ingest and retention on the same shard
        # serialize; queries only take it for snapshot capture and merge
        # (queries from concurrent connections on different shards do not
        # contend — each shard has its own lock).  Created
        # before any guarded state so even construction observes the
        # discipline the runtime sanitizer asserts.
        self._lock = make_rlock(f"executor:{table or 'default'}")
        with self._lock:
            self.retention = retention  # guarded by: self._lock
            # Rows ever dropped by retention: stable image id = offset + row
            # position.  Ids survive retention passes and are never reused.
            self._id_offset = 0  # guarded by: self._lock
            # Bumped whenever materialized labels stop being comparable
            # across a capture (invalidate, clear_cache, an id_offset
            # rebase): a snapshot merge from before the bump would write
            # back stale labels, so it aborts instead.  Ingest/retention do
            # NOT bump — the id-offset shift maps snapshot rows onto
            # surviving current rows exactly.
            self._epoch = 0  # guarded by: self._lock
            # Write-ahead log, attached by the database when durability is
            # on.
            self._wal: "TableWal | None" = None  # guarded by: self._lock
            self._rebuild_base_relation()
            # Materialized virtual columns, keyed by (category, cascade
            # name) so labels are only ever served as output of the cascade
            # that produced them (the selected cascade changes with scenario
            # and constraints): (category, cascade) -> (mask, labels).
            self._materialized: dict[  # guarded by: self._lock
                tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

    def _rebuild_base_relation(self) -> None:
        # guarded by: self._lock
        # metadata_arrays() reads the scalar columns without folding the
        # pending image batches, so the per-ingest rebuild stays O(rows),
        # not O(corpus bytes).
        n = len(self.corpus)
        self._base_relation = Relation(  # guarded by: self._lock
            {**self.corpus.metadata_arrays(),
             "image_id": np.arange(self._id_offset, self._id_offset + n)})

    # -- public API ----------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The metadata relation (without content columns)."""
        return self._base_relation  # unguarded ok: snapshot read

    @property
    def id_offset(self) -> int:
        """Image ids ever retired by retention: id = offset + row position."""
        return self._id_offset  # unguarded ok: snapshot read

    @id_offset.setter
    def id_offset(self, offset: int) -> None:
        if offset < 0:
            raise ValueError(f"id_offset must be non-negative, got {offset}")
        with self._lock:
            self._id_offset = int(offset)
            self._epoch += 1
            self._rebuild_base_relation()

    @property
    def wal(self) -> "TableWal | None":
        """The write-ahead log journaling this shard, if durability is on."""
        return self._wal  # unguarded ok: snapshot read

    def set_wal(self, wal: "TableWal | None") -> None:
        """Attach (or detach, with ``None``) the shard's write-ahead log.

        Every later mutation is journaled while holding the shard lock, so
        the log order is exactly the apply order.
        """
        with self._lock:
            self._wal = wal

    def ingest(self, images: np.ndarray,
               metadata: dict[str, np.ndarray] | None = None,
               content: dict[str, np.ndarray] | None = None, *,
               materialize: bool = False, span=NO_SPAN) -> np.ndarray:
        """Append new frames and grow query-time state incrementally.

        The batch joins the corpus as one pending segment (nothing is
        copied until a read folds it into the window buffer), the base
        relation gains the new rows, and every materialized virtual column
        is padded with *unevaluated* new rows — existing rows are never
        re-classified, so a repeated query after ingest classifies only the
        new frames.  With a write-ahead log attached, the segment is
        journaled durably before the call returns.

        The new rows get their stable ids first; then a :attr:`retention`
        policy enforces the window (the returned ids are the ones the new
        rows were assigned, whether or not they immediately fall out of
        it); then, with ``materialize=True`` (the ONGOING scenario), every
        registered representation still in the store is extended by
        transforming just the rows past its stored prefix — queries then
        load representation bytes without transforming.  Retention runs
        first so no dropped row is transformed, and an entry the budget
        evicted is not rebuilt here (see :meth:`_materialize_tail`).
        Otherwise (ARCHIVE and friends) stored representations go stale and
        are topped up lazily the next time a query needs them.

        A zero-row batch is a cheap no-op: nothing is rebuilt, the store is
        untouched, and an empty id array comes back.

        Returns the new rows' (stable) image ids.
        """
        images = np.asarray(images)
        if images.ndim >= 1 and images.shape[0] == 0:
            return np.array([], dtype=np.int64)
        with self._lock:
            new_ids = self.corpus.append(images, metadata=metadata,
                                         content=content) + self._id_offset
            # Journal after the in-memory apply succeeds (validation raised
            # before any state changed), still under the lock so log order
            # is apply order.
            if self._wal is not None:
                with span.child("wal-append", table=self.table,
                                rows=int(new_ids.size)):
                    self._wal.log_segment(self.corpus.segments[-1])
            self._pad_materialized(new_ids.size)
            # A retention drop rebuilds the base relation itself; only
            # rebuild here when nothing was dropped, so the hot streaming
            # path pays the O(window) relation construction exactly once.
            dropped = self.retain()
            if materialize:
                for spec in self.store.registered_specs():
                    self._materialize_tail(spec)
            if dropped == 0:
                self._rebuild_base_relation()
            return new_ids

    def _pad_materialized(self, n_new: int) -> None:
        # guarded by: self._lock
        """Extend every materialized column with unevaluated new rows."""
        for key, (evaluated, labels) in self._materialized.items():
            self._materialized[key] = (
                np.concatenate([evaluated, np.zeros(n_new, dtype=bool)]),
                np.concatenate([labels, np.zeros(n_new, dtype=np.int64)]))

    def set_retention(self, policy: RetentionPolicy | None) -> None:
        """Swap the shard's retention policy (journaled when a WAL is on)."""
        with self._lock:
            self.retention = policy
            if self._wal is not None:
                self._wal.log_retention(
                    policy.to_dict() if policy is not None else None)

    def retain(self) -> int:
        """Enforce :attr:`retention` now; returns rows dropped (0, no policy)."""
        with self._lock:
            # Snapshot under the lock: set_retention() may swap (or clear)
            # the policy from another thread at any time.
            policy = self.retention
            if policy is None:
                return 0
            return self.drop_oldest(policy.rows_to_drop(self.corpus))

    def drop_oldest(self, n: int) -> int:
        """Drop the ``n`` oldest rows from *all* per-table state coherently.

        The corpus advances its window's start (nothing is copied), the
        base relation is rebuilt, every materialized ``(evaluated,
        labels)`` column is truncated, and the store namespace
        trims its representation chunks in step (crediting the freed bytes
        against the global budget).  Image ids stay stable: the id offset
        advances by the rows dropped, so surviving rows keep their ids (a
        repeated query never re-classifies them) and dropped ids are never
        reused.  With a write-ahead log attached the drop is journaled.
        Returns the number of rows actually dropped.
        """
        with self._lock:
            n = self._drop_rows(n)
            if n:
                self._rebuild_base_relation()
            return n

    def _drop_rows(self, n: int) -> int:
        # guarded by: self._lock
        """Apply a drop to corpus/materialized/store without the relation
        rebuild (callers batch the rebuild; WAL replay applies many drops)."""
        n = self.corpus.drop_oldest(n)
        if n == 0:
            return 0
        if self._wal is not None:
            self._wal.log_drop(n)
        self._id_offset += n
        for key, (evaluated, labels) in self._materialized.items():
            self._materialized[key] = (evaluated[n:].copy(),
                                       labels[n:].copy())
        self.store.drop_oldest_rows(n)
        return n

    def replay_wal(self, records: list[dict]) -> None:
        """Re-apply journaled mutations after a checkpoint restore.

        ``records`` come from :meth:`repro.db.wal.TableWal.records` — segment
        appends, retention drops and policy changes, in log order.  Replay
        mirrors the live mutation path (same id arithmetic, same truncation)
        but batches the base-relation rebuild, so replaying a long tail is
        O(total rows), not O(records × rows).  Journaling is suspended while
        replaying — the log already holds these records.
        """
        started = time.perf_counter()
        with self._lock:
            wal, self._wal = self._wal, None
            try:
                for record in records:
                    kind = record["type"]
                    if kind == "segment":
                        segment = record["segment"]
                        self.corpus.append(segment.images, segment.metadata,
                                           segment.content)
                        self._pad_materialized(len(segment))
                    elif kind == "drop":
                        self._drop_rows(int(record["rows"]))
                    elif kind == "retention":
                        policy = record.get("policy")
                        self.retention = (RetentionPolicy.from_dict(policy)
                                          if policy is not None else None)
                    else:
                        # attach/detach are handled a level up; skipping any
                        # other journaled mutation would recover a different
                        # table than the one that crashed.
                        raise ValueError(
                            f"cannot replay WAL record of type {kind!r} "
                            f"for table {self.table!r}")
            finally:
                self._wal = wal
            self._rebuild_base_relation()
        self._replay_seconds.observe(time.perf_counter() - started,
                                     table=self.table or "-")

    def materialized_categories(self) -> list[str]:
        """Categories with at least one row's virtual column materialized."""
        with self._lock:
            return sorted({category for category, _ in self._materialized})

    def observed_positive_rate(self, category: str,
                               cascade_name: str | None = None) -> float | None:
        """Corpus-calibrated selectivity from materialized virtual columns.

        The fraction of already-classified rows labeled positive — by the
        named cascade, or pooled over every cascade that has classified rows
        for ``category``.  ``None`` when no rows have been classified; the
        planner then falls back to the evaluation-set estimate.
        """
        evaluated_total, positive_total = 0, 0
        with self._lock:
            materialized = list(self._materialized.items())
        for (cat, cascade), (evaluated, labels) in materialized:
            if cat != category:
                continue
            if cascade_name is not None and cascade != cascade_name:
                continue
            evaluated_total += int(evaluated.sum())
            positive_total += int(labels[evaluated].sum())
        if evaluated_total == 0:
            return None
        return positive_total / evaluated_total

    def needs_classification(self, plan: QueryPlan) -> bool:
        """Whether a content step of ``plan`` has rows its cascade has not
        labelled: its ``(category, cascade)`` column is missing or only
        partly evaluated (a cold shard)."""
        with self._lock:
            for step in plan.content_steps:
                entry = self._materialized.get(
                    (step.category, step.evaluation.cascade.name))
                if entry is None or not entry[0].all():
                    return True
            return False

    def invalidate(self, category: str | None = None) -> None:
        """Drop materialized virtual columns, keeping stored representations.

        Use when a predicate's optimizer changes and labels must be
        recomputed; the representation store stays warm because
        representations depend only on the corpus.  (Scenario or constraint
        switches need no invalidation — materialized labels are keyed by the
        cascade that produced them.)  In-flight snapshot queries from before
        the invalidation abort their merge instead of resurrecting labels.
        """
        with self._lock:
            if category is None:
                self._materialized.clear()
            else:
                for key in [key for key in self._materialized
                            if key[0] == category]:
                    del self._materialized[key]
            self._epoch += 1

    def clear_cache(self) -> None:
        """Drop materialized virtual columns and stored representations.

        The store's byte budget and ingest-time registrations are
        kept — only the cached arrays are released.
        """
        with self._lock:
            self._materialized.clear()
            self.store.clear()
            self._epoch += 1

    def stats(self) -> dict:
        """Storage-engine counters for this shard (stats endpoints)."""
        with self._lock:
            return {
                "rows": len(self.corpus),
                "id_offset": self._id_offset,
                "segments": self.corpus.segment_count,
                "materialized_columns": len(self._materialized),
                "store_arrays": len(self.store),
                "wal_records": (self._wal.record_count()
                                if self._wal is not None else None),
            }

    def execute(self, plan: QueryPlan,
                cancel: "Callable[[], None] | None" = None,
                span=NO_SPAN) -> QueryResult:
        """Run the plan: free metadata conjuncts over the whole snapshot,
        then the rest of the ordered predicate tree over the survivors.

        Execution is snapshot-based: the shard's state is captured under the
        lock, the plan runs lock-free against the frozen view, and new labels
        / representations merge back under the lock afterwards (also on
        abort, so a cancelled query keeps the work its completed chunks
        paid for).  Concurrent ``ingest()``/``retain()`` never change what
        this query sees or returns.

        With a ``LIMIT``, candidate rows are classified in chunks (in corpus
        order) and execution stops once enough rows survive, so selective
        limited queries pay for a fraction of the candidate set.  Early stop
        is disabled under aggregates and ORDER BY
        (:attr:`~repro.db.planner.QueryPlan.allow_early_stop`), where the
        limit applies to the final groups / sorted rows instead.

        The :attr:`~repro.db.planner.QueryPlan.predicate_tree` is evaluated
        with mask-based short-circuiting: an AND child only sees rows every
        earlier child accepted, an OR child only classifies rows the earlier
        (cheaper) children left undecided.
        For an aggregate plan the result additionally carries per-shard
        partial aggregates (:class:`~repro.db.aggregates.GroupedPartials`).

        ``cancel``, when given, is called once before execution starts and
        again before every candidate chunk; raising from it aborts the query
        between chunks (the serving layer's per-query timeout).  A
        cancellable query is always chunked — even without a ``LIMIT`` —
        so unbounded scans still hit cancellation points; chunk boundaries
        are the abort granularity, so a single in-flight chunk always runs
        to completion.

        ``span``, when given, receives ``snapshot-capture`` / ``execute`` /
        ``merge`` children (and, under ``execute``, one child per content
        predicate with rows in/out); the same timings land on the
        ``repro_query_*_seconds`` histograms either way.
        """
        table = self.table or plan.table or "-"
        started = time.perf_counter()
        with span.child("snapshot-capture", table=table):
            capture_started = time.perf_counter()
            snapshot = self._capture_snapshot()
            self._snapshot_seconds.observe(
                time.perf_counter() - capture_started, table=table)
        try:
            with span.child("execute", table=table) as execute_span:
                return self._execute_snapshot(snapshot, plan, cancel,
                                              span=execute_span)
        finally:
            with span.child("merge", table=table):
                merge_started = time.perf_counter()
                self._merge_snapshot(snapshot)
                self._merge_seconds.observe(
                    time.perf_counter() - merge_started, table=table)
            self._execute_seconds.observe(time.perf_counter() - started,
                                          table=table)

    # -- snapshot lifecycle --------------------------------------------------
    def _capture_snapshot(self) -> _Snapshot:
        """Freeze the shard's current state for lock-free execution."""
        with self._lock:
            images = self.corpus.images  # folds pending batches under the lock
            reps = {spec.name: array
                    for spec, array, _ in self.store.arrays_by_recency()}
            return _Snapshot(images=images, relation=self._base_relation,
                             materialized=dict(self._materialized),
                             id_offset=self._id_offset, epoch=self._epoch,
                             n=int(images.shape[0]), reps=reps)

    def capture_image(self, *, checkpoint: bool) -> TableImage:
        """Freeze everything a save persists for this table, in one hold.

        With ``checkpoint`` the journal rotates *inside* the capture:
        everything before this instant is in the image, everything after
        lands in the new generation.
        """
        with self._lock:
            corpus, store = self.corpus, self.store
            return TableImage(
                images=corpus.images,
                metadata=dict(corpus.metadata),
                content=dict(corpus.content),
                materialized=dict(self._materialized),
                retention=self.retention,
                id_offset=self._id_offset,
                registered_specs=store.registered_specs(),
                store_arrays=store.arrays_by_recency(),
                wal_generation=(self._wal.rotate()
                                if checkpoint and self._wal is not None
                                else None))

    def restore_materialized(self, columns: dict) -> None:
        """Install materialized columns read back from a saved image."""
        with self._lock:
            self._materialized.update(columns)

    def _merge_snapshot(self, snap: _Snapshot) -> None:
        """Fold what a snapshot query learned back into the live shard.

        Snapshot row ``shift + j`` is current row ``j`` (``shift`` = rows
        retention dropped since capture), so results for surviving rows are
        kept and results for dropped rows fall away.  If the epoch moved
        (invalidate / clear_cache / id rebase) the merge aborts: labels from
        before the bump are no longer trustworthy.
        """
        with self._lock:
            if self._epoch != snap.epoch:
                return
            shift = self._id_offset - snap.id_offset
            if shift < 0:  # pragma: no cover - rebases bump the epoch
                return
            n_cur = len(self.corpus)
            for key in snap.dirty_materialized:
                snap_eval, snap_labels = snap.materialized[key]
                usable = min(snap_eval.shape[0] - shift, n_cur)
                if usable <= 0:
                    continue
                current = self._materialized.get(key)
                if current is None:
                    cur_eval = np.zeros(n_cur, dtype=bool)
                    cur_labels = np.zeros(n_cur, dtype=np.int64)
                elif current[0].shape[0] != n_cur:  # pragma: no cover
                    continue
                else:
                    cur_eval, cur_labels = current
                newly = snap_eval[shift:shift + usable] & ~cur_eval[:usable]
                if not newly.any():
                    continue
                merged_eval = cur_eval.copy()
                merged_labels = cur_labels.copy()
                merged_eval[:usable] |= snap_eval[shift:shift + usable]
                merged_labels[:usable] = np.where(
                    newly, snap_labels[shift:shift + usable],
                    cur_labels[:usable])
                self._materialized[key] = (merged_eval, merged_labels)
            for name, spec in snap.dirty_reps.items():
                array = snap.reps[name]
                usable = min(int(array.shape[0]) - shift, n_cur)
                if usable <= 0:
                    continue
                # Only write back when the snapshot array covers more rows
                # than the live entry — a concurrent materializing ingest may
                # have raced ahead of this query.
                if self.store.rows(spec) < usable:
                    self.store.add(spec, array[shift:shift + usable])
            for spec in snap.registered:
                self.store.register(spec)

    @staticmethod
    def _accumulate(node_stats: dict, node, rows_in: int, rows_out: int,
                    rows_classified: int, elapsed_s: float, **extra) -> None:
        """Fold one evaluation of a plan node into its per-query stats entry.

        A node can run many times per query (once per chunk); the entry sums
        across runs and keeps the derived actual selectivity current.
        """
        entry = node_stats.setdefault(id(node), {
            "rows_in": 0, "rows_out": 0, "rows_classified": 0,
            "elapsed_s": 0.0})
        entry["rows_in"] += int(rows_in)
        entry["rows_out"] += int(rows_out)
        entry["rows_classified"] += int(rows_classified)
        entry["elapsed_s"] += float(elapsed_s)
        for key, value in extra.items():
            entry[key] = entry.get(key, 0) + value
        entry["actual_selectivity"] = (
            entry["rows_out"] / entry["rows_in"] if entry["rows_in"]
            else None)

    def _execute_snapshot(self, snap: _Snapshot, plan: QueryPlan,
                          cancel: "Callable[[], None] | None" = None,
                          span=NO_SPAN) -> QueryResult:
        from repro.db.aggregates import compute_partials

        if cancel is not None:
            # A query that waited for an admission slot past its deadline (or
            # waited on this shard's lock) aborts before any work happens.
            cancel()
        n = snap.n
        # Under aggregates/ORDER BY the limit caps the *final* output, not
        # the scan: every candidate row must be evaluated first.
        limit = plan.limit if plan.allow_early_stop else None
        content_steps = plan.content_steps
        node_stats = snap.node_stats
        filter_started = time.perf_counter()

        # Free metadata conjuncts are a prefilter: applied (and measured)
        # once over the whole snapshot, so chunking walks the surviving rows
        # only and no chunk ever re-counts them.
        mask = np.ones(n, dtype=bool)
        residual = []
        for conjunct in plan.conjuncts:
            if isinstance(conjunct, MetadataStep):
                rows_in = int(mask.sum())
                step_started = time.perf_counter()
                mask &= conjunct.predicate.evaluate(snap.relation)
                self._accumulate(node_stats, conjunct, rows_in,
                                 int(mask.sum()), 0,
                                 time.perf_counter() - step_started)
            else:
                residual.append(conjunct)
        candidates = np.where(mask)[0]

        # LIMIT 0 is unconditionally empty output — even under ORDER BY or
        # aggregates (zero rows / zero groups survive the final truncation),
        # so never pay for a scan or a single classification.
        if plan.limit == 0:
            chunks = []
        elif not content_steps or (limit is None and cancel is None):
            chunks = [candidates]
        else:
            # A cancellable query chunks even without a LIMIT, so unbounded
            # scans reach cancellation points between chunks.
            size = (max(self.min_limit_chunk, 4 * limit)
                    if limit is not None else self.min_limit_chunk)
            chunks = [candidates[start:start + size]
                      for start in range(0, candidates.size, size)]

        cascades_used = {step.category: step.evaluation
                         for step in content_steps}
        images_classified = {step.category: 0 for step in content_steps}
        # Metadata leaves below the top level are evaluated once per query
        # (keyed by node identity) and sliced per chunk — a LIMIT query over
        # many chunks must not re-evaluate full-corpus predicates per chunk.
        metadata_masks: dict[int, np.ndarray] = {}
        survivors: list[np.ndarray] = []
        n_selected = 0
        n_unvisited = candidates.size
        for chunk in chunks:
            if cancel is not None:
                cancel()
            n_unvisited -= chunk.size
            chunk_mask = np.zeros(n, dtype=bool)
            chunk_mask[chunk] = True
            for conjunct in residual:
                if not chunk_mask.any():
                    break
                chunk_mask = self._evaluate_tree(snap, conjunct, chunk_mask,
                                                 images_classified,
                                                 metadata_masks)
            surviving = np.where(chunk_mask)[0]
            survivors.append(surviving)
            n_selected += surviving.size
            if limit is not None and n_selected >= limit:
                break
        if isinstance(plan.predicate_tree, PlanAnd):
            # The AND root decided every row except the candidates an early
            # LIMIT stop never looked at.
            self._accumulate(node_stats, plan.predicate_tree, n - n_unvisited,
                             n_selected, 0,
                             time.perf_counter() - filter_started)

        selected = (np.concatenate(survivors) if survivors
                    else np.array([], dtype=np.int64))
        if limit is not None:
            selected = selected[:limit]
        final_mask = np.zeros(n, dtype=bool)
        final_mask[selected] = True

        # A short-circuited OR can select rows without evaluating every
        # cascade.  Any content column the SELECT / GROUP BY / ORDER BY
        # stages consume must hold real labels for every selected row, so
        # classify the gap now (bounded by the selected rows); columns only
        # exposed by SELECT * instead mark unevaluated rows with -1.
        if selected.size:
            referenced = plan.referenced_columns()
            for step in content_steps:
                if step.predicate.column_name in referenced:
                    gap_started = time.perf_counter()
                    _, n_classified = self._evaluate_content(snap, step,
                                                             final_mask)
                    images_classified[step.category] += n_classified
                    if n_classified:
                        self._accumulate(
                            node_stats, step, 0, 0, n_classified,
                            time.perf_counter() - gap_started)
                        self._rows_classified.inc(
                            n_classified, table=self.table or "-",
                            category=step.category)

        # Content columns are rebuilt from the materialized state: real
        # labels where a cascade evaluated the row (this query or an earlier
        # one), -1 where it never did — a decided OR can select rows no
        # cascade ever saw.
        relation = snap.relation
        for step in content_steps:
            key = (step.category, step.evaluation.cascade.name)
            entry = snap.materialized.get(key)
            if entry is None:
                column = np.full(n, -1, dtype=np.int64)
            else:
                evaluated, labels = entry
                column = np.where(evaluated, labels, -1)
            relation = relation.with_column(step.predicate.column_name,
                                            column)
        selected_relation = relation.filter(final_mask)
        partials = None
        if plan.is_aggregate:
            partials = compute_partials(selected_relation, plan.aggregates,
                                        plan.group_by)
        # One span per content predicate, carrying the accumulated per-node
        # measurements (rows in/out, classified, elapsed) so the trace tree
        # mirrors the plan's cascade structure.
        for step in content_steps:
            stats = node_stats.get(id(step))
            if stats:
                step_span = span.child(f"cascade:{step.category}",
                                       cascade=step.evaluation.name)
                step_span.annotate(**stats)
        root_stats = node_stats.get(id(plan.predicate_tree), {})
        if "short_circuit_rows_saved" in root_stats:
            span.annotate(short_circuit_rows_saved=root_stats[
                "short_circuit_rows_saved"])
        span.annotate(rows_selected=int(selected.size),
                      images_classified=dict(images_classified))

        # Selected indices are *stable* image ids (offset + row position),
        # matching the relation's image_id column across retention passes.
        return QueryResult(relation=selected_relation,
                           selected_indices=selected + snap.id_offset,
                           cascades_used=cascades_used,
                           images_classified=images_classified,
                           partials=partials,
                           node_stats=dict(node_stats))

    def _metadata_mask(self, snap: _Snapshot, step: MetadataStep,
                       cache: dict[int, np.ndarray]) -> np.ndarray:
        # shape: -> (S,)
        # dtype: bool
        """One metadata leaf's full-corpus mask, evaluated once per query."""
        mask = cache.get(id(step))
        if mask is None:
            mask = step.predicate.evaluate(snap.relation)
            cache[id(step)] = mask
        return mask

    def _evaluate_tree(self, snap: _Snapshot, node, mask: np.ndarray,
                       images_classified: dict[str, int],
                       metadata_masks: dict[int, np.ndarray]) -> np.ndarray:
        # shape: (S,) -> (S,)
        # dtype: bool
        """Short-circuit one predicate-tree node over the rows in ``mask``.

        Returns the mask of rows in ``mask`` the node accepts.  Only rows
        still undecided reach a cascade: an AND child sees the rows every
        earlier child accepted, an OR child the rows every earlier child
        failed to decide — so in ``cheap OR cascade`` the cascade classifies
        exactly the rows the cheap side left undecided.
        """
        node_stats = snap.node_stats
        rows_in = int(mask.sum())
        started = time.perf_counter()
        if isinstance(node, MetadataStep):
            accepted = mask & self._metadata_mask(snap, node, metadata_masks)
            self._accumulate(node_stats, node, rows_in, int(accepted.sum()),
                             0, time.perf_counter() - started)
            return accepted
        if isinstance(node, ContentStep):
            if not mask.any():
                return mask
            labels, n_classified = self._evaluate_content(snap, node, mask)
            images_classified[node.category] += n_classified
            accepted = mask & labels.astype(bool)
            self._accumulate(node_stats, node, rows_in, int(accepted.sum()),
                             n_classified, time.perf_counter() - started)
            if n_classified:
                self._rows_classified.inc(
                    n_classified, table=self.table or "-",
                    category=node.category)
            return accepted
        if isinstance(node, PlanAnd):
            accepted = mask
            for child in node.children:
                accepted = self._evaluate_tree(snap, child, accepted,
                                               images_classified,
                                               metadata_masks)
                if not accepted.any():
                    break
            self._accumulate(node_stats, node, rows_in, int(accepted.sum()),
                             0, time.perf_counter() - started)
            return accepted
        if isinstance(node, PlanOr):
            decided = np.zeros_like(mask)
            undecided = mask.copy()
            # Rows an earlier (cheaper) disjunct decided are never handed to
            # a later child — the per-node stats report that saving.
            saved = 0
            for index, child in enumerate(node.children):
                if index:
                    saved += rows_in - int(undecided.sum())
                child_mask = self._evaluate_tree(snap, child, undecided,
                                                 images_classified,
                                                 metadata_masks)
                decided |= child_mask
                undecided &= ~child_mask
                if not undecided.any():
                    break
            self._accumulate(node_stats, node, rows_in, int(decided.sum()),
                             0, time.perf_counter() - started,
                             short_circuit_rows_saved=saved)
            return decided
        if isinstance(node, PlanNot):
            accepted = mask & ~self._evaluate_tree(snap, node.child, mask,
                                                   images_classified,
                                                   metadata_masks)
            self._accumulate(node_stats, node, rows_in, int(accepted.sum()),
                             0, time.perf_counter() - started)
            return accepted
        raise TypeError(f"not a plan node: {node!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"table={self.table!r}, " if self.table else ""
        return (f"QueryExecutor({label}rows={len(self.corpus)}, "
                f"materialized={self.materialized_categories()})")

    # -- internals -----------------------------------------------------------
    def _evaluate_content(self, snap: _Snapshot, step: ContentStep,
                          candidate_mask: np.ndarray) -> tuple[np.ndarray, int]:
        # shape: (S,) -> (S,)
        # dtype: int64
        """Populate the virtual column for one contains_object predicate.

        Only rows surviving the earlier predicates (and not already
        materialized by an earlier query *with the same cascade*) are
        classified.  Keying by cascade guarantees the returned labels are
        always the output of the cascade the plan reports in
        ``cascades_used``, even across scenario or constraint changes.
        Updates land in the snapshot; the merge step folds them into the
        live shard.
        """
        n = snap.n
        key = (step.category, step.evaluation.cascade.name)
        evaluated_mask, labels = snap.materialized.get(
            key, (np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)))

        to_classify = candidate_mask & ~evaluated_mask
        n_classified = int(to_classify.sum())
        if n_classified > 0:
            cascade = step.evaluation.cascade
            materialize = n_classified >= FULL_MATERIALIZE_FRACTION * n
            for spec in dict.fromkeys(model.transform
                                      for model in cascade.models):
                self._full_representation(snap, spec, materialize=materialize)
            new_labels, _ = cascade.classify_with_stats(
                snap.images, metrics=self.metrics,
                rows=np.flatnonzero(to_classify), representations=snap.reps)
            labels = labels.copy()
            labels[to_classify] = new_labels
            evaluated_mask = evaluated_mask | to_classify
            snap.materialized[key] = (evaluated_mask, labels)
            snap.dirty_materialized.add(key)

        return labels, n_classified

    def _materialize_tail(self, spec) -> None:
        # guarded by: self._lock
        """Extend one stored representation to corpus length at ingest.

        Only the rows past the stored prefix are transformed, and they land
        as one more chunk (O(batch)) — also for an entry retention just
        emptied to 0 rows, which is extended from row 0.  An entry that is
        absent (the budget evicted it) is left absent: the next query that
        needs it rebuilds it through :meth:`_full_representation` and the
        merge, so ingest never transforms a whole window the store would
        evict again.
        """
        if spec not in self.store:
            return
        stored = self.store.rows(spec)
        if stored >= len(self.corpus):
            return
        tail = spec.apply_batch(self.corpus.images_from(stored))
        try:
            self.store.append_rows(spec, tail)
        except KeyError:
            pass  # another shard's write evicted it since the check

    def _full_representation(self, snap: _Snapshot, spec, *,
                             materialize: bool) -> None:
        """Bring ``snap.reps[spec.name]`` to snapshot length, or stay lazy.

        The one place a query resolves a representation, hence where
        ``repro_store_hits_total`` (a stored array is used) and
        ``repro_store_misses_total`` (none is, so the transform runs at
        query time) are counted.  A captured array shorter than the snapshot
        (rows ingested since it was built) is topped up by transforming just
        the missing tail.  A missing one is built snapshot-wide only when
        ``materialize`` — and then registered at merge time, so ONGOING
        ingest keeps extending it for future frames; otherwise it stays out
        of ``snap.reps`` and the cascade transforms just the rows reaching
        the level that needs it.  All updates stay in the snapshot until the
        merge writes them back shift-adjusted; the shared store is never
        touched mid-query.
        """
        array = snap.reps.get(spec.name)
        if array is not None:
            self._store_hits.inc()
            n_stored = int(array.shape[0])
            if n_stored >= snap.n:
                return
            tail = spec.apply_batch(snap.images[n_stored:])
            array = np.concatenate([array, tail])
        else:
            self._store_misses.inc()
            if not materialize:
                return
            array = spec.apply_batch(snap.images)
            snap.registered.append(spec)
        snap.reps[spec.name] = array
        snap.dirty_reps[spec.name] = spec
