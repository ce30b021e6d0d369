"""The connection-style facade: ``repro.db.connect(...)`` and VisualDatabase.

The paper presents TAHOMA as a *visual analytics database*: users write ::

    SELECT * FROM images WHERE location = 'detroit' AND contains_object(bicycle)

and the system hides cascade training, representation choice and
deployment-cost-aware selection.  :class:`VisualDatabase` is that surface.
A typical multi-camera session::

    db = repro.db.connect({"cam_north": north, "cam_south": south})
    db.register_predicate("bicycle", splits=splits, config=small_config)
    db.use_scenario("camera")
    for row in db.execute("SELECT * FROM cam_north "
                          "WHERE contains_object(bicycle)"):
        ...
    results = db.execute("SELECT * FROM all_cameras "
                         "WHERE contains_object(bicycle)")
    for row in results:                     # merged, with provenance
        print(row["__table__"], row["image_id"])
    db.attach("cam_east", east)             # a new feed comes online
    db.ingest(new_frames, table="cam_north")   # ONGOING: grows one shard
    print(db.explain("SELECT * FROM cam_south "
                     "WHERE contains_object(bicycle)"))
    db.save("my.vdb")

``connect(corpus)`` with a single corpus registers it as the table
``images``, preserving the original one-table API.  Under the facade,
queries flow through the :mod:`repro.query.sql` parser, the
:class:`~repro.db.planner.QueryPlanner` (cascade selection + predicate
ordering, planned per shard) and one
:class:`~repro.db.executor.QueryExecutor` per table (materialized virtual
columns + a per-table namespace of the shared representation store).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.baselines.reference import train_reference_model
from repro.core.model import TrainedModel
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.selector import UserConstraints
from repro.costs.device import DEFAULT_DEVICE, DeviceProfile
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import INFER_ONLY, Scenario
from repro.data.corpus import ImageCorpus, PredicateDataSplits
from repro.db import persistence
from repro.db.catalog import DEFAULT_TABLE, FANOUT_TABLE, Catalog
from repro.db.executor import QueryExecutor
from repro.db.plan_cache import PlanCache
from repro.db.planner import QueryPlan, annotate_plan_dict
from repro.db.registry import PredicateRegistry
from repro.db.results import (AggregateResultSet, FanoutResultSet, ResultSet,
                              build_result_set)
from repro.db.retention import RetentionPolicy
from repro.nn import blas
from repro.query.model import Query
from repro.query.sql import parse_query, split_explain_analyze
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import NO_SPAN, Tracer

__all__ = ["VisualDatabase", "connect", "initialize_predicate"]


class _ShardStopped(Exception):
    """Raised at a shard's chunk boundary once a sibling shard failed."""


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), or the host's
    count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_CPUS = _usable_cpus()
#: Cold fan-out shards of every database run here.  A pool starts a thread
#: only when no idle one can take a task, so it never holds more threads
#: than the most shards that ran at once, and at most one per usable CPU;
#: they live for the process.  A pool built per fan-out starts and joins its
#: threads every query (0.5-0.8 ms on a 2-vCPU host), which cost x0.88 of
#: the end-to-end benchmark's ``ongoing_ingest`` query throughput.
_SHARD_POOL = ThreadPoolExecutor(max_workers=_CPUS,
                                 thread_name_prefix="repro-shard")


def initialize_predicate(splits: PredicateDataSplits,
                         config: TahomaConfig | None = None, *,
                         reference_params: dict | None = None,
                         reference_name: str = "reference",
                         train_reference: bool = True,
                         reference_model: TrainedModel | None = None,
                         rng: np.random.Generator | None = None,
                         ) -> tuple[TahomaOptimizer, TrainedModel | None]:
    """System initialization for one predicate: reference + grid + cascades.

    This is the one place the repository trains a predicate end to end; both
    :meth:`VisualDatabase.register_predicate` and the experiment workspaces
    build on it.

    Parameters
    ----------
    splits:
        Train / configuration / evaluation datasets for the predicate.
    config:
        The optimizer configuration (defaults to the paper's full grids —
        pass a reduced :class:`TahomaConfig` for CPU-scale runs).
    reference_params:
        Keyword arguments for
        :func:`~repro.baselines.reference.train_reference_model`
        (``epochs``, ``base_width``, ``n_stages``, ``blocks_per_stage``, ...).
    reference_model:
        An already-trained reference classifier; skips reference training.
    train_reference:
        Set False to build cascades without a reference tail.
    """
    config = config or TahomaConfig()
    rng = rng if rng is not None else np.random.default_rng(config.training.seed)

    reference = reference_model
    if reference is None and train_reference:
        reference = train_reference_model(
            splits, resolution=splits.train.image_size, name=reference_name,
            rng=rng, **dict(reference_params or {}))

    optimizer = TahomaOptimizer(config)
    optimizer.initialize(splits, reference_model=reference, rng=rng)
    return optimizer, reference


class VisualDatabase:
    """A queryable visual analytics database over a catalog of image corpora.

    Parameters
    ----------
    corpus:
        What to query: a single :class:`~repro.data.corpus.ImageCorpus`
        (registered as the table ``images``), a ``{name: corpus}`` mapping
        (one table per camera/shard), or ``None`` (attach tables later via
        :meth:`attach` / :meth:`register_corpus`).
    device:
        Base compute-device profile for the analytic cost model.
    scenario:
        Initial deployment scenario (a :class:`Scenario` or one of the
        paper's scenario names).
    cost_resolution:
        Resolution at which data-handling costs are priced (the paper's
        224 px camera frames), independent of the corpus rendering size.
    calibrate_target_fps:
        When set, the device is re-calibrated so the first registered
        reference classifier lands at this throughput (the paper's ~75 fps
        ResNet50 anchor).  ``None`` keeps ``device`` as given.
    default_constraints:
        Constraints applied to queries that do not carry their own.
    store_budget:
        Byte budget for the representation store (see
        :class:`~repro.storage.store.RepresentationStore`): a long-lived
        database over growing corpora holds representation memory constant
        by evicting the representations written longest ago; evicted ones
        are recomputed on demand, so results are unaffected.  The budget is
        shared by *all* tables (the inserting table's own entries go first,
        which keeps one hot camera from evicting every other shard's
        representations).  ``None`` keeps the store unbounded.
    retention:
        A :class:`~repro.db.retention.RetentionPolicy` applied to every
        table given in ``corpus``; give one table its own window with
        :meth:`attach` (``retention=``) or :meth:`set_retention`.  A table
        with a policy is a sliding window over its feed — the oldest rows
        are dropped at the end of every :meth:`ingest` (and on demand via
        :meth:`retain`), with image ids stable across drops.  ``None`` keeps
        every table unbounded.
    plan_cache:
        Cache physical plans keyed by normalized query shape (literals
        stripped — see :class:`~repro.db.plan_cache.PlanCache`), so an
        exactly repeated dashboard query skips parse + lowering.  (Cascade
        selection is remembered by each predicate's optimizer whether or
        not this cache is on.)  ``False`` (the default) parses and lowers
        every query.  The cache is invalidated on scenario switches, device
        calibration, attach/detach and retention changes;
        :meth:`enable_plan_cache` turns it on after construction (the
        network server does this for the database it serves).
    """

    def __init__(self,
                 corpus: ImageCorpus | Mapping[str, ImageCorpus] | None = None,
                 *,
                 device: DeviceProfile = DEFAULT_DEVICE,
                 scenario: Scenario | str = INFER_ONLY,
                 cost_resolution: int = 224,
                 source_resolution: int | None = None,
                 calibrate_target_fps: float | None = 75.0,
                 default_constraints: UserConstraints | None = None,
                 store_budget: int | None = None,
                 retention: RetentionPolicy | None = None,
                 plan_cache: bool = False) -> None:
        self._closed = False
        self._plan_cache = None
        self.default_constraints = default_constraints or UserConstraints()

        # One registry + tracer per database: every layer beneath (catalog,
        # store, executors, WAL, planner, plan cache) meters onto this
        # registry, and the serving layer picks it up via ``db.metrics`` so
        # ``stats`` and ``metrics`` can never disagree.
        self._metrics = MetricsRegistry()
        self._tracer = Tracer()
        self._catalog = Catalog(store_budget=store_budget,
                                metrics=self._metrics)
        self._durability = persistence.Durability(self._catalog)

        if retention is not None and not isinstance(retention,
                                                    RetentionPolicy):
            raise TypeError("retention must be a RetentionPolicy (give one "
                            "table its own with attach() or set_retention()"
                            f"), got {retention!r}")
        if isinstance(corpus, Mapping):
            for name, table_corpus in corpus.items():
                self.attach(name, table_corpus, retention=retention)
        elif corpus is not None:
            self.register_corpus(corpus, retention=retention)
        self._registry = PredicateRegistry(
            self._catalog, device=device, scenario=scenario,
            cost_resolution=cost_resolution,
            source_resolution=source_resolution,
            calibrate_target_fps=calibrate_target_fps)
        if plan_cache:
            self.enable_plan_cache()

    # -- lifecycle -------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database is closed")

    def close(self) -> None:
        """Release the database's state deterministically (idempotent).

        Detaches every table — dropping executors, materialized virtual
        columns and each shard's store namespace — clears the plan cache,
        and marks the database closed: queries, ingest, saves, retention and
        catalog changes afterwards raise :class:`RuntimeError`.  For a
        WAL-enabled database every journal handle is flushed and closed
        *first* (without writing detach tombstones — closing is not
        detaching; the tables come back on the next load), so no buffered
        log bytes are lost and the log files are released.  The server
        closes the database it serves on shutdown; tests use the
        context-manager form::

            with repro.db.connect(corpus) as db:
                db.execute("SELECT * FROM images LIMIT 5")
        """
        if self._closed:
            return
        self._closed = True
        for name in self.tables():
            # No tombstone: the catalog teardown below is not a detach().
            self._durability.release(name, tombstone=False)
            self._catalog.detach(name)
        if self._plan_cache is not None:
            self._plan_cache.invalidate()

    def __enter__(self) -> "VisualDatabase":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- telemetry -------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The database-wide metrics registry (see :mod:`repro.telemetry`).

        Every layer meters here: planner/executor latency histograms,
        per-cascade classification counters, WAL append/replay timings,
        store hit/miss/eviction counts.  The network server adopts this
        registry for its own admission/plan-cache/outcome counters, so the
        wire ``metrics`` command and :meth:`telemetry` read one source.
        """
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        """The per-query span recorder (last few traces kept)."""
        return self._tracer

    def telemetry(self) -> dict:
        """One JSON-safe observability snapshot: metrics plus recent traces.

        ``metrics`` is the registry snapshot (every metric's labeled series);
        ``traces`` is the tracer's ring buffer of recent span trees, oldest
        first — each query's parse/plan/snapshot/classify/merge breakdown.
        """
        return {"metrics": self._metrics.snapshot(),
                "traces": self._tracer.recent()}

    # -- plan cache ------------------------------------------------------------
    @property
    def plan_cache(self):
        """The :class:`~repro.db.plan_cache.PlanCache` (``None`` = off)."""
        return self._plan_cache

    def enable_plan_cache(self):
        """Turn on plan caching (idempotent); returns the cache.

        Plans are keyed by normalized query shape — literals stripped.  An
        exact repeat skips parse + lowering entirely; the same shape with
        fresh literals (a dashboard query re-run with a new timestamp) is
        counted as a *rebind* and planned like any other query, which is
        cheap because each predicate's optimizer remembers its Pareto
        analysis, cache or no cache.  The cache is invalidated on scenario
        switches, device calibration, attach/detach/replace and retention
        changes; a cached plan's selectivities otherwise go stale at the
        pace of ingest, which only affects *ordering*, never correctness.
        """
        if self._plan_cache is None:
            self._plan_cache = PlanCache(metrics=self._metrics)
        return self._plan_cache

    def _invalidate_plans(self) -> None:
        if self._plan_cache is not None:
            self._plan_cache.invalidate()

    # -- catalog ---------------------------------------------------------------
    @property
    def store_budget(self) -> int | None:
        """The byte budget the shared representation store enforces
        (``None`` = unbounded); fixed at construction."""
        return self._catalog.store.byte_budget

    @property
    def catalog(self) -> Catalog:
        """The table catalog (one executor per attached corpus)."""
        return self._catalog

    def register_corpus(self, corpus: ImageCorpus,
                        name: str = DEFAULT_TABLE,
                        retention: RetentionPolicy | None = None) -> None:
        """Attach (or replace) ``name``; that table's caches start fresh."""
        self._check_open()
        # The replaced table's journal ends with a tombstone; the new
        # incarnation's baseline is journaled right after, in the same log,
        # so replay reproduces the replace.
        self._durability.release(name, tombstone=True)
        self._catalog.replace(name, corpus, retention=retention)
        self._durability.arm(name, baseline=True)
        self._invalidate_plans()

    def attach(self, name: str, corpus: ImageCorpus,
               retention: RetentionPolicy | None = None) -> None:
        """Attach ``corpus`` as a new table ``name`` (duplicates rejected).

        Predicates are shared across tables: train once, query any shard.
        ``retention`` makes the new table a sliding window over its feed.
        On a WAL-enabled database the new table is journaled from birth: its
        baseline corpus lands in the log as an ``attach`` record, so a crash
        before the next checkpoint still recovers it.
        """
        self._check_open()
        self._catalog.attach(name, corpus, retention=retention)
        self._durability.arm(name, baseline=True)
        self._invalidate_plans()

    def detach(self, name: str) -> None:
        """Drop table ``name`` with its materialized labels and store namespace.

        On a WAL-enabled database a ``detach`` tombstone is journaled, so
        recovery from an older checkpoint drops the table again.
        """
        self._check_open()
        self._durability.release(name, tombstone=True)
        self._catalog.detach(name)
        self._invalidate_plans()

    def tables(self) -> list[str]:
        """Attached table names, in attachment order."""
        return self._catalog.tables()

    # -- retention -------------------------------------------------------------
    def set_retention(self, table: str,
                      policy: RetentionPolicy | None) -> None:
        """Set (or clear, with ``None``) one table's retention window.

        Takes effect at the end of the next :meth:`ingest` into that table,
        or immediately via :meth:`retain`.
        """
        self._check_open()
        self._catalog.executor(table).set_retention(policy)
        self._invalidate_plans()

    def retain(self, table: str | None = None) -> dict[str, int]:
        """Enforce retention windows now, without waiting for an ingest.

        ``table`` restricts the pass to one table; ``None`` sweeps the whole
        catalog.  Returns ``{table: rows_dropped}`` (tables without a policy
        drop 0 rows).  Image ids stay stable — see
        :class:`~repro.db.retention.RetentionPolicy`.
        """
        self._check_open()
        targets = [table] if table is not None else self.tables()
        return {name: self._catalog.executor(name).retain()
                for name in targets}

    def ingest(self, images: np.ndarray,
               metadata: dict[str, np.ndarray] | None = None,
               content: dict[str, np.ndarray] | None = None, *,
               table: str | None = None) -> np.ndarray:
        """Append new frames to one table — the paper's ONGOING ingest path.

        ``table`` names the shard receiving the frames; ``None`` targets the
        default table (``images``, or the sole attached table).  Query-time
        state grows incrementally: already-classified rows are never
        re-classified, so a repeated query after ingest pays only for the
        new frames.  Under a scenario that materializes at ingest (ONGOING),
        every representation the table's store namespace holds is extended
        with the new frames now, so queries keep loading representation
        bytes instead of transforming; other scenarios (ARCHIVE, CAMERA)
        stay lazy.

        A zero-row batch is a cheap no-op returning an empty id array.  When
        the table carries a retention policy, the window is enforced after
        the append (oldest rows dropped, surviving ids stable).

        Returns the new rows' (stable) image ids (within that table).
        """
        self._check_open()
        executor = (self.executor if table is None
                    else self.executor_for(table))
        trace = self._tracer.trace("ingest", table=executor.table or "-",
                                   rows=int(len(images)))
        with trace.root as span:
            return executor.ingest(
                images, metadata=metadata, content=content,
                materialize=self.scenario.materializes_on_ingest, span=span)

    def _require_tables(self) -> list[str]:
        """The attached table names; raises when there is none."""
        tables = self.tables()
        if not tables:
            raise RuntimeError("no corpus registered; call "
                               "register_corpus() or pass one to connect()")
        return tables

    def _default_executor(self) -> QueryExecutor:
        self._require_tables()
        default = self._catalog.default_table()
        if default is None:
            raise RuntimeError(
                f"multiple tables attached ({self.tables()}) and none is "
                f"{DEFAULT_TABLE!r}; name one explicitly "
                "(executor_for/corpus_for/ingest(table=...))")
        return self._catalog.executor(default)

    @property
    def corpus(self) -> ImageCorpus:
        """The default table's corpus (single-corpus API)."""
        return self._default_executor().corpus

    def corpus_for(self, table: str) -> ImageCorpus:
        """The corpus behind one attached table."""
        return self._catalog.executor(table).corpus

    @property
    def executor(self) -> QueryExecutor:
        """The default table's executor (single-corpus API)."""
        return self._default_executor()

    def executor_for(self, table: str) -> QueryExecutor:
        """The executor owning one table's materialized columns and store."""
        return self._catalog.executor(table)

    # -- predicates ------------------------------------------------------------
    def register_predicate(self, name: str, splits: PredicateDataSplits, *,
                           config: TahomaConfig | None = None,
                           reference_params: dict | None = None,
                           train_reference: bool = True,
                           reference_model: TrainedModel | None = None,
                           seed: int = 0) -> None:
        """Register ``contains_object(name)``: train its cascade machinery.

        Predicates are catalog-wide: trained once, evaluated against any
        table (each shard keeps its own materialized labels).
        """
        self._check_open()
        if name in self._registry.optimizers:
            raise ValueError(f"predicate {name!r} already registered")
        optimizer, _ = initialize_predicate(
            splits, config, reference_params=reference_params,
            reference_name=f"reference-{name}",
            train_reference=train_reference,
            reference_model=reference_model,
            rng=np.random.default_rng(seed))
        self.register_optimizer(name, optimizer,
                                reference_params=reference_params)

    def register_optimizer(self, name: str, optimizer: TahomaOptimizer,
                           reference_params: dict | None = None) -> None:
        """Install an already-initialized optimizer for ``name``.

        ``reference_params`` must carry the reference network's build
        arguments when it was built with non-default parameters, so the
        database can be saved and reloaded.
        """
        self._check_open()
        if self._registry.register(name, optimizer, reference_params):
            # Plans cached so far were priced on the uncalibrated device.
            self._invalidate_plans()

    def predicates(self) -> list[str]:
        """All registered predicate names."""
        return sorted(self._registry.optimizers)

    def optimizer(self, name: str) -> TahomaOptimizer:
        """The (initialized) optimizer for one predicate."""
        try:
            return self._registry.optimizers[name]
        except KeyError:
            raise KeyError(f"unknown predicate {name!r}; "
                           f"registered: {self.predicates()}") from None

    # -- deployment scenario ---------------------------------------------------
    @property
    def registry(self) -> PredicateRegistry:
        """Registered predicates and the device/scenario pricing them."""
        return self._registry

    def use_scenario(self, scenario: Scenario | str) -> None:
        """Switch the deployment scenario all following queries are priced for.

        Accepts one of the paper's scenario names (``"archive"``, ...) or a
        :class:`Scenario`; anything else raises :class:`TypeError`.

        Switching is safe at any time: executors key materialized labels
        by the cascade that produced them, so a newly selected cascade never
        serves another cascade's labels, while switching back to a previous
        scenario reuses its materialized columns.
        """
        self._check_open()
        self._invalidate_plans()
        self._registry.use_scenario(scenario)

    @property
    def scenario(self) -> Scenario:
        return self._registry.scenario

    @property
    def device(self) -> DeviceProfile:
        return self._registry.device

    @property
    def cost_resolution(self) -> int:
        return self._registry.cost_resolution

    @property
    def calibrate_target_fps(self) -> float | None:
        return self._registry.calibrate_target_fps

    @property
    def profiler(self) -> CostProfiler:
        """The cost profiler for the active scenario (rebuilt on demand)."""
        return self._registry.profiler_for()

    # -- queries ---------------------------------------------------------------
    def _parse(self, sql: str,
               constraints: UserConstraints | None) -> Query:
        # An empty catalog raises "no corpus registered" before any parse
        # error; unknown tables are rejected by the parser, listing the
        # catalog.
        return parse_query(sql, constraints=constraints
                           or self.default_constraints,
                           known_tables=self._require_tables()
                           + [FANOUT_TABLE])

    def _fanout_targets(self, query: Query,
                        tables: Iterable[str] | None) -> list[str]:
        if tables is None:
            return self.tables()
        if query.table != FANOUT_TABLE:
            # Never answer a FROM cam_a query with cam_b's rows: an explicit
            # shard list goes with the virtual fan-out table.
            raise ValueError(
                f"tables=[...] requires FROM {FANOUT_TABLE}; the query "
                f"names table {query.table!r}")
        targets = list(tables)
        if not targets:
            raise ValueError("tables=[...] must name at least one "
                             f"attached table; attached: {self.tables()}")
        unknown = [name for name in targets if name not in self._catalog]
        if unknown:
            raise KeyError(f"unknown tables {unknown}; "
                           f"attached: {self.tables()}")
        return targets

    def _plan_query(self, query: Query, tables: Iterable[str] | None
                    ) -> QueryPlan | dict[str, QueryPlan]:
        """Lower one parsed query to its plan(s); a dict means fan-out,
        planned once per shard with that shard's observed selectivity."""
        if tables is not None or query.table == FANOUT_TABLE:
            return {table: self._registry.plan(query, table)
                    for table in self._fanout_targets(query, tables)}
        return self._registry.plan(query, query.table)

    def _plan_for(self, sql: str, constraints: UserConstraints | None,
                  tables: Iterable[str] | None
                  ) -> QueryPlan | dict[str, QueryPlan]:
        """Resolve ``sql`` to its plan(s), through the plan cache when on.

        Cache policy: queries with an explicit ``tables=[...]`` shard list
        bypass the cache (the list is not part of the SQL text); otherwise
        the key is the normalized query shape plus constraints and scenario.
        An exact repeat (same literals) returns the cached plan without
        parsing; anything else — new literals on a known shape, or an
        unknown shape — parses, plans and populates the cache.
        """
        cache = self._plan_cache
        if cache is None or tables is not None:
            return self._plan_query(self._parse(sql, constraints), tables)
        effective = constraints or self.default_constraints
        key, literals = cache.key_for(sql, effective, self.scenario.name)
        status, entry = cache.lookup(key, literals)
        if status == "hit":
            return entry.plans
        plans = self._plan_query(self._parse(sql, constraints), None)
        cache.store(key, literals, plans)
        return plans

    def execute(self, sql: str,
                constraints: UserConstraints | None = None, *,
                tables: Iterable[str] | None = None,
                cancel=None
                ) -> ResultSet | FanoutResultSet | AggregateResultSet | dict:
        """Parse, plan and run one SELECT query, returning a :class:`ResultSet`.

        The dialect supports projection (``SELECT col, ...``), aggregates
        (``COUNT/SUM/AVG/MIN/MAX``), boolean WHERE trees (AND/OR/NOT with
        parentheses), ``GROUP BY``, ``ORDER BY`` and ``LIMIT`` — see
        :mod:`repro.query.sql` for the grammar.  An aggregate query returns
        an :class:`~repro.db.results.AggregateResultSet` of group tuples.

        ``FROM <table>`` routes to that table's executor.  A query against
        the virtual ``all_cameras`` table fans out — across every attached
        table, or just the shards named by ``tables=[...]`` (only valid with
        ``FROM all_cameras``): the planner plans once per shard using that
        shard's observed selectivity; a cold fan-out (at least two shards
        with rows their cascades have not labelled) runs its shards in
        parallel, one per core, a warm one runs them one after another on
        the calling thread (see :meth:`_fanout_results`); and the merged
        :class:`~repro.db.results.FanoutResultSet` carries a ``__table__``
        provenance column plus per-shard ``cascades_used`` and
        ``images_classified``.  A fan-out aggregate merges per-shard
        *partial aggregates* at the coordinator instead of shipping rows.

        ``cancel`` is an optional zero-argument callable checked at chunk
        boundaries during execution; raising from it aborts the query (see
        :meth:`~repro.db.executor.QueryExecutor.execute`).  In a fan-out
        the first exception stops the shards that have not started and the
        running ones at their next chunk boundary, then propagates with its
        own type.  The network server's per-query timeouts are built on it.

        A query prefixed ``EXPLAIN ANALYZE`` executes normally but returns
        the :meth:`explain_analyze` report (a JSON-safe dict) instead of a
        result set.
        """
        self._check_open()
        # Cheap prefix sniff before tokenizing: plan-cache hits must not pay
        # a tokenize pass on every ordinary query.
        if sql.lstrip()[:7].upper() == "EXPLAIN":
            analyze, body = split_explain_analyze(sql)
            if analyze:
                return self._analyze_report(body, constraints, tables=tables,
                                            cancel=cancel)
        result_set, _, _, _, _ = self._execute_traced(sql, constraints,
                                                      tables, cancel)
        return result_set

    def _execute_traced(self, sql: str, constraints, tables, cancel):
        """Plan and run one query under a fresh trace.

        Returns ``(result_set, plans, raw, trace, wall_time_s)`` — ``raw``
        is the executor-level :class:`~repro.query.model.QueryResult`
        (or ``{table: QueryResult}`` for a fan-out), which still carries the
        per-plan-node measurements ``EXPLAIN ANALYZE`` annotates with.
        """
        trace = self._tracer.trace("query", sql=sql.strip())
        started = time.perf_counter()
        with trace.root as root:
            with root.child("plan"):
                plans = self._plan_for(sql, constraints, tables)
            if isinstance(plans, dict):
                raw = self._fanout_results(plans, cancel=cancel, span=root)
            else:
                executor = self._catalog.executor(plans.table)
                with root.child(f"table:{plans.table}",
                                table=plans.table) as shard_span:
                    raw = executor.execute(plans, cancel=cancel,
                                           span=shard_span)
            result_set = build_result_set(raw, plans)
        wall = time.perf_counter() - started
        root.annotate(rows=len(result_set))
        result_set.attach_stats(trace_id=trace.trace_id, wall_time_s=wall)
        return result_set, plans, raw, trace, wall

    def _fanout_results(self, plans: dict[str, QueryPlan], cancel=None,
                        span=NO_SPAN) -> dict:
        """Run per-shard plans; ``{table: QueryResult}`` in plan order.

        Each shard runs under its own ``table:<name>`` child span.  A warm
        fan-out runs the shards one after another on the calling thread.
        When at least two shards have rows their plan's cascades have not
        labelled, and the process may run on more than one CPU, the shards
        run on the process's shard pool — at most one thread per usable
        CPU — with OpenBLAS held at one thread
        (:func:`repro.nn.blas.serial`), so each core classifies a shard;
        their spans are created here, in plan order, and each starts its
        clock when a worker enters it.

        The first exception stops the shards that have not started and,
        when ``cancel`` is given, the running ones at their next chunk
        boundary; once every running shard has stopped it propagates with
        its own type.  Without a ``cancel`` hook a running shard is not
        chunked, so it runs to its end first.
        """
        executors = {table: self._catalog.executor(table) for table in plans}
        cold = sum(executors[table].needs_classification(plan)
                   for table, plan in plans.items())
        if cold < 2 or _CPUS < 2:
            raw = {}
            for table, plan in plans.items():
                with span.child(f"table:{table}", table=table) as shard_span:
                    raw[table] = executors[table].execute(
                        plan, cancel=cancel, span=shard_span)
            return raw

        spans = {table: span.child(f"table:{table}", table=table)
                 for table in plans}
        # Set by the first shard to fail, as its exception leaves the hook
        # or the shard: a shard that starts afterwards returns at once, and
        # a running one stops at its next chunk boundary.
        stopped = threading.Event()

        def shard_cancel() -> None:
            try:
                cancel()
            except BaseException:
                stopped.set()
                raise
            if stopped.is_set():
                raise _ShardStopped

        def run(table: str):
            if stopped.is_set():
                return None
            try:
                with spans[table] as shard_span:
                    return executors[table].execute(
                        plans[table],
                        cancel=shard_cancel if cancel is not None else None,
                        span=shard_span)
            except BaseException:
                stopped.set()
                raise

        with blas.serial():
            futures = {table: _SHARD_POOL.submit(run, table)
                       for table in plans}
            wait(futures.values())
        for future in futures.values():
            error = future.exception()
            if error is not None and not isinstance(error, _ShardStopped):
                raise error
        return {table: future.result() for table, future in futures.items()}

    def explain_analyze(self, sql: str,
                        constraints: UserConstraints | None = None, *,
                        tables: Iterable[str] | None = None,
                        cancel=None) -> dict:
        """Execute ``sql`` and report where its time actually went.

        The query runs exactly as :meth:`execute` would run it (same plan
        cache, same fan-out); the return value is a JSON-safe report instead
        of a result set::

            {"sql": ..., "trace_id": ..., "wall_time_s": ..., "rows": ...,
             "plan": {... per-node "estimated_selectivity" + "actual":
                      {rows_in, rows_out, rows_classified, elapsed_s,
                       actual_selectivity, ...}},
             "spans": {... the query's span tree ...}}

        A fan-out query reports ``"plans"`` — one annotated plan per shard —
        since shards plan (and measure) independently.  ``sql`` may carry
        the ``EXPLAIN ANALYZE`` prefix or be a bare SELECT.
        """
        self._check_open()
        _, body = split_explain_analyze(sql)
        return self._analyze_report(body, constraints, tables=tables,
                                    cancel=cancel)

    def _analyze_report(self, sql: str, constraints, *, tables=None,
                        cancel=None) -> dict:
        """Run the (prefix-stripped) query and build the analyze report."""
        result_set, plans, raw, trace, wall = self._execute_traced(
            sql, constraints, tables, cancel)
        report = {"sql": sql.strip(), "trace_id": trace.trace_id,
                  "wall_time_s": wall, "rows": len(result_set),
                  "spans": trace.to_dict()}
        if isinstance(plans, dict):
            report["plans"] = {
                table: annotate_plan_dict(plan, raw[table].node_stats)
                for table, plan in plans.items()}
        else:
            report["plan"] = annotate_plan_dict(plans, raw.node_stats)
        return report

    def explain(self, sql: str,
                constraints: UserConstraints | None = None, *,
                tables: Iterable[str] | None = None
                ) -> QueryPlan | dict[str, QueryPlan]:
        """The physical plan :meth:`execute` would run, without running it.

        For a fan-out query (``FROM all_cameras`` or ``tables=[...]``)
        returns the per-shard plans as a ``{table: QueryPlan}`` mapping —
        shards can pick different cascade orderings when their observed
        selectivities differ.

        Plans serialize via :meth:`~repro.db.planner.QueryPlan.to_dict` —
        the wire protocol's ``explain`` command ships that JSON form.
        """
        self._check_open()
        return self._plan_for(sql, constraints, tables)

    # -- durability ------------------------------------------------------------
    @property
    def durability(self) -> persistence.Durability:
        """The write-ahead-log lifecycle (root, checkpoints, journals)."""
        return self._durability

    def enable_wal(self, root: str | Path) -> Path:
        """Turn on write-ahead logging under ``root`` and take the first
        checkpoint there.

        After this every mutation — :meth:`ingest` segments, retention drops
        and policy changes, :meth:`attach`/:meth:`detach` — is journaled to
        ``root/wal/<table>/`` *as it happens*, so a process killed between
        checkpoints loses nothing: ``VisualDatabase.load(root)`` restores
        the last checkpoint and replays each table's log tail.  Call
        :meth:`checkpoint` periodically to fold the log back into the
        checkpoint image and keep replay short.

        Raises :class:`RuntimeError` when a WAL is already enabled.
        """
        self._check_open()
        return self._durability.enable(self, root)

    def checkpoint(self) -> Path:
        """Fold the write-ahead log into a fresh checkpoint image.

        A checkpoint bounds recovery time: the log tail replayed at load
        time only covers mutations since the last checkpoint.  Each table's
        journal rotates at capture time and the absorbed generations are
        pruned once the new manifest is durably on disk — killing the
        process *during* a checkpoint is always recoverable.  Requires
        :meth:`enable_wal` first.
        """
        self._check_open()
        return self._durability.checkpoint(self)

    def storage_stats(self) -> dict:
        """Storage-engine counters: per-table segments/WAL depth, store bytes.

        The server's ``stats`` command ships this, so operators can watch
        each shard's ``segments`` (its folded window buffer plus the batches
        ingest has appended since the last read folded them) and WAL length
        (is a ``checkpoint()`` due?).
        """
        return {
            **self._durability.stats(),
            "store_bytes": self._catalog.store.total_bytes_stored(),
            "tables": {name: self._catalog.executor(name).stats()
                       for name in self.tables()},
        }

    # -- persistence -----------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist the whole catalog (optimizers, scenario, tables) to disk.

        Each table's corpus and materialized labels are saved in full, its
        representation arrays most recently written first up to
        :data:`~repro.db.persistence.DEFAULT_STORE_BYTES_CAP` across the
        catalog, so a reload warm-starts without recompute; see
        :mod:`repro.db.persistence` for the layout.  Saving a WAL-enabled
        database into its own WAL root is a **checkpoint** (see
        :meth:`checkpoint`); saving anywhere else writes an ordinary
        standalone copy.  To ship trained predicates without pixels, use
        :func:`~repro.core.persistence.save_optimizer` and
        :meth:`register_optimizer`.
        """
        self._check_open()
        return persistence.save_database(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "VisualDatabase":
        """Restore a database saved with :meth:`save` (no retraining).

        Reads the one format :meth:`save` writes; a directory written by an
        older format raises :class:`ValueError` (see
        :func:`~repro.db.persistence.load_database`).  A checkpoint
        directory additionally replays each table's write-ahead-log tail up
        to its last complete frame (the torn frame of an interrupted append
        is truncated; damage elsewhere in the log raises :class:`ValueError`).
        """
        return persistence.load_database(path)

    # -- introspection ---------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows = {name: len(self._catalog.executor(name).corpus)
                for name in self.tables()}
        return (f"VisualDatabase(tables={rows}, "
                f"predicates={self.predicates()}, "
                f"scenario={self.scenario.name!r})")


def connect(corpus: ImageCorpus | Mapping[str, ImageCorpus] | None = None,
            **kwargs) -> VisualDatabase:
    """Open a :class:`VisualDatabase` (DB-API-style entry point).

    ``corpus`` may be a single :class:`~repro.data.corpus.ImageCorpus`
    (registered as the table ``images``) or a ``{name: corpus}`` mapping —
    one table per camera or shard.  Keyword arguments are forwarded to
    :class:`VisualDatabase`.
    """
    return VisualDatabase(corpus, **kwargs)
