"""Per-layer numbers of a traced pass.

Three sources, all outside ``src/``: the spans the traced pass recorded
around each layer's public entry point (:mod:`benchmarks.e2e.spans`), what
the program already exposes (the database's metrics registry, its plan
cache, its representation store), and the facts a workload measured itself
(``workload.layer_facts`` — checkpoint time, wire latencies per class, ...).

Counts are per traced trial unless the name says otherwise; a layer a
workload does not exercise reads 0.  Which layers a workload *must* exercise
is declared on the workload (``Workload.exercises``) and checked by
``test_harness.py``, so a patch point that stops firing does not read 0
unnoticed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from benchmarks.e2e.spans import QUERY_ROOT, Recorder, SpanView

__all__ = ["Edge", "layer_metrics"]

#: Setup-time layers: metric name -> span name.
SETUP_LAYERS = {
    "nn.train.fit_s": "nn.train.fit",
    "baselines.reference.train_s": "baselines.reference.train",
    "core.trainer.train_models_s": "core.trainer.train_models",
    "core.optimizer.initialize_s": "core.optimizer.initialize",
    "data.corpus.generate_s": "data.corpus.generate",
}

WIRE_CLASSES = ("content_hit", "rebind", "aggregate", "order_limit", "fanout",
                "big_fetch")
#: Facts only one workload measures (``workload.layer_facts``); 0 elsewhere.
WORKLOAD_FACTS = (
    "db.executor.fanout_speedup", "db.wal.off_rows_per_s",
    "db.persistence.checkpoint_s", "db.persistence.checkpoint_bytes",
    "server.ping_ms", "server.wire_p99_ms", "server.admission.rejected",
    "wire_req_per_s",
    *(f"server.p50_ms.{name}" for name in WIRE_CLASSES),
    *(f"server.overhead_ms.{name}" for name in WIRE_CLASSES))


@dataclass
class Edge:
    """What the program exposes at one edge of the traced window."""

    mark: int
    registry: dict
    id_offsets: int
    store_rows: int
    store_bytes: int

    @classmethod
    def of(cls, workload, mark: int) -> "Edge":
        db = workload.db
        executors = [db.executor_for(table) for table in db.tables()]
        return cls(
            mark=mark, registry=registry_totals(db),
            id_offsets=sum(executor.id_offset for executor in executors),
            store_rows=sum(executor.store.rows(spec)
                           for executor in executors
                           for spec in executor.store.specs()),
            store_bytes=db.catalog.store.total_bytes_stored())


def registry_totals(db) -> dict:
    """``{(metric, labels): (sum-or-value, count)}`` for one database."""
    totals = {}
    for name, metric in db.metrics.snapshot().items():
        for series in metric["series"]:
            key = (name, tuple(sorted(series["labels"].items())))
            totals[key] = (series.get("sum", series.get("value", 0.0)),
                           series.get("count", 0))
    return totals


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, recorder: Recorder, since: int, setup: SpanView,
                  before: Edge, after: Edge) -> dict[str, float]:
    """Every per-layer metric except the process-wide ones.

    ``since`` marks the start of the workload's traced life cycle; the
    measured window lies between the two edges and holds traced and untraced
    trials in alternation.  Spans exist for the traced trials only, so span
    sums are per *traced* trial; the program's own counters moved on every
    trial, so registry deltas are per trial of either kind.
    """
    run = recorder.view(since)
    window = recorder.view(before.mark, after.mark)
    untraced_walls = workload.samples["trial_wall_s"]
    traced_walls = workload.samples["traced_wall_s"]
    traced_trials = len(traced_walls)
    trials = traced_trials + len(untraced_walls)

    def delta(metric: str, field: int = 0, **labels) -> float:
        """Registry movement across the traced trials, summed over series."""
        wanted = set(labels.items())
        return sum(value[field] - before.registry.get(key, (0.0, 0))[field]
                   for key, value in after.registry.items()
                   if key[0] == metric and wanted <= set(key[1]))

    def histogram_mean_ms(metric: str) -> float:
        return _ratio(delta(metric), delta(metric, field=1)) * 1e3

    def per_trial(value: float) -> float:
        return value / trials

    def per_traced_trial(span_name: str) -> float:
        return window.total(span_name) / traced_trials

    def mean_ms(span_name: str) -> float:
        return _mean(window.durations(span_name)) * 1e3

    hits = delta("repro_plan_cache_lookups_total", outcome="hit")
    rebinds = delta("repro_plan_cache_lookups_total", outcome="rebind")
    misses = delta("repro_plan_cache_lookups_total", outcome="miss")
    rows_classified = delta("repro_query_rows_classified_total")
    rows_evaluated = delta("repro_cascade_level_evaluated_total")
    rows_returned = sum(workload.samples["rows_returned"])
    infer_rows = window.attr_total("nn.infer", "rows")
    infer_flops = sum(span[7]["flops"] * span[7]["rows"]
                      for span in window.named("nn.infer"))
    ingest_transforms = run.nested_under("transforms.apply_batch", "db.ingest")
    query_transforms = (window.total("transforms.apply_batch")
                        - sum(window.nested_under("transforms.apply_batch",
                                                  "db.ingest")))
    shard_spreads = [
        (max(shards) - min(shards)) / statistics.median(shards)
        for shards in window.children_of(QUERY_ROOT, "db.executor.execute")
        if len(shards) > 1]

    layers = {
        "query.sql.parse_us": _mean(window.durations("query.sql.parse")) * 1e6,
        "db.planner.plan_ms": mean_ms("db.planner.plan"),
        "core.optimizer.select_ms": mean_ms("core.optimizer.select"),
        "core.optimizer.cascades_evaluated": (
            window.attr_total("core.optimizer.select", "cascades")
            / traced_trials),
        "server.plan_cache.hit_rate": _ratio(hits + rebinds,
                                             hits + rebinds + misses),
        "server.plan_cache.rebinds": per_trial(rebinds),
        "server.plan_cache.misses": per_trial(misses),
        "db.executor.execute_s": per_traced_trial("db.executor.execute"),
        "db.executor.self_s": (window.self_time("db.executor.execute")
                               / traced_trials),
        "db.executor.snapshot_capture_ms": histogram_mean_ms(
            "repro_query_snapshot_capture_seconds"),
        "db.executor.merge_ms": histogram_mean_ms(
            "repro_query_merge_seconds"),
        "db.executor.rows_classified": per_trial(rows_classified),
        "db.executor.rows_classified_per_row_returned": _ratio(
            rows_classified, rows_returned),
        "db.executor.shard_wall_spread": (statistics.median(shard_spreads)
                                          if shard_spreads else 0.0),
        "core.cascade.classify_s": per_traced_trial("core.cascade.classify"),
        "core.cascade.level0_decided_share": _ratio(
            delta("repro_cascade_level_decided_total", level="0"),
            delta("repro_cascade_level_evaluated_total", level="0")),
        "core.cascade.rows_evaluated": per_trial(rows_evaluated),
        "transforms.apply_batch_s": query_transforms / traced_trials,
        "transforms.ingest_apply_ms": _ratio(
            sum(ingest_transforms), len(run.named("db.ingest"))) * 1e3,
        "storage.store.rows_materialized": float(after.store_rows),
        "storage.store.useful_row_share": _ratio(per_trial(rows_evaluated),
                                                 after.store_rows),
        "storage.store.bytes_per_row": _ratio(after.store_bytes,
                                              after.store_rows),
        "storage.store.hits": per_trial(delta("repro_store_hits_total")),
        "storage.store.misses": per_trial(delta("repro_store_misses_total")),
        # Since the serving database opened: a budget that binds evicts while
        # the store fills, before the measured window.
        "storage.store.evictions": sum(
            value[0] for key, value in after.registry.items()
            if key[0] == "repro_store_evictions_total"),
        "nn.infer_s": per_traced_trial("nn.infer"),
        "nn.infer_us_per_row": _ratio(window.total("nn.infer"),
                                      infer_rows) * 1e6,
        "nn.flops_per_row": _ratio(infer_flops, infer_rows),
        "db.aggregates.partials_ms": mean_ms("db.aggregates.partials"),
        "db.aggregates.merge_ms": mean_ms("db.aggregates.merge"),
        "db.results.fetchall_ms": mean_ms("db.results.fetch"),
        "db.results.rows_returned": per_trial(rows_returned),
        # The timed ingest slices: wall rate with the device's syncs inside
        # (the end-to-end ``ingest_rows_per_s`` leaves them out), and what
        # the syncs cost.
        "db.ingest.wall_rows_per_s": statistics.median(
            workload.samples["ingest_wall_rows_per_s"]),
        "db.wal.fsync_ms_mean": statistics.median(workload.samples["fsync_ms"]),
        "db.wal.fsyncs_per_krow": statistics.median(
            workload.samples["fsyncs_per_krow"]),
        "db.wal.append_ms_mean": _mean(run.durations("db.wal.append")) * 1e3,
        "db.wal.records": _ratio(len(run.named("db.wal.append")) * 1e3,
                                 run.attr_total("db.ingest", "rows")),
        "db.retention.rows_dropped": per_trial(
            after.id_offsets - before.id_offsets),
        "db.persistence.replay_records": _ratio(
            run.attr_total("db.wal.replay", "records"),
            len(run.named("db.persistence.load"))),
        # Trials alternate untraced, traced: each pair is adjacent in time.
        "bench.trace_overhead_share": statistics.median(
            traced / untraced
            for untraced, traced in zip(untraced_walls, traced_walls)) - 1,
        "bench.layer_coverage_share": 1 - _ratio(
            window.self_time(QUERY_ROOT), window.total(QUERY_ROOT)),
        # Wall time / this = the reference clock of the end-to-end timings.
        "bench.host_factor": statistics.median(
            workload.samples["host_factor"]),
    }
    setups = len(setup.named("setup"))
    for metric, span_name in SETUP_LAYERS.items():
        layers[metric] = setup.total(span_name) / setups
    return {**layers, **dict.fromkeys(WORKLOAD_FACTS, 0.0),
            **workload.layer_facts}
