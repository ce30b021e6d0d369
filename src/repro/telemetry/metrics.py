"""Thread-safe named metrics: Counter / Gauge / Histogram behind a registry.

One :class:`MetricsRegistry` per :class:`~repro.db.database.VisualDatabase`
(components built standalone create their own private registry, so tests
keep per-instance counts).  Every metric is *named* and *labelled* the
Prometheus way — ``repro_plan_cache_lookups_total{outcome="hit"}`` — and the
engine's well-known metrics are declared up front in :data:`CATALOG` so an
exposition always carries ``# HELP`` / ``# TYPE`` for each of them, traffic
or not (dashboards and the CI smoke check key off the declared names).

Everything here is lock-disciplined the same way as the engine proper: the
registry and its metrics share one reentrant lock from
:func:`repro.locking.make_rlock`, the guarded attributes are declared by
their ``# guarded by:`` comments (:mod:`repro.analysis.guards`; the
subclasses inherit ``_Metric._series``), and snapshot methods return
copies, never live references.  Gauge callbacks (e.g. a queue depth read)
are invoked *outside* the lock, keeping it a leaf in the lock-order graph.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

from repro.locking import make_rlock

__all__ = ["CATALOG", "DEFAULT_BUCKETS", "MetricSpec", "MetricsRegistry",
           "Counter", "Gauge", "Histogram"]

#: Default latency buckets (seconds): 100µs up to 10s, Prometheus-style.
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                   0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: name, kind, help text and label names."""

    name: str
    kind: str
    help: str
    labels: tuple = ()
    buckets: tuple | None = None


#: Every metric the engine emits, declared up front.  A registry created
#: without an explicit catalog pre-registers all of these, so the Prometheus
#: exposition names them even before any traffic touches them.
CATALOG: tuple[MetricSpec, ...] = (
    MetricSpec("repro_query_plan_seconds", "histogram",
               "Time spent resolving a query's plan (parse + cascade "
               "selection, or a plan-cache hit), per table.", ("table",)),
    MetricSpec("repro_query_execute_seconds", "histogram",
               "End-to-end execution time of one query, per table.",
               ("table",)),
    MetricSpec("repro_query_snapshot_capture_seconds", "histogram",
               "Time to capture a frozen shard snapshot under the shard "
               "lock.", ("table",)),
    MetricSpec("repro_query_merge_seconds", "histogram",
               "Time to merge freshly classified labels back into the "
               "shard.", ("table",)),
    MetricSpec("repro_query_rows_classified_total", "counter",
               "Rows actually classified by a cascade, per table and "
               "predicate category.", ("table", "category")),
    MetricSpec("repro_cascade_level_evaluated_total", "counter",
               "Images reaching each cascade level.", ("cascade", "level")),
    MetricSpec("repro_cascade_level_decided_total", "counter",
               "Images decided at each cascade level.", ("cascade", "level")),
    MetricSpec("repro_wal_append_seconds", "histogram",
               "WAL record append latency (encode the frame, one write, one "
               "fsync), per table.", ("table",)),
    MetricSpec("repro_wal_replay_seconds", "histogram",
               "WAL replay time on recovery, one observation per "
               "replayed record, per table.", ("table",)),
    MetricSpec("repro_store_hits_total", "counter",
               "Representations a query needed and found stored."),
    MetricSpec("repro_store_misses_total", "counter",
               "Representations a query needed and did not find stored (the "
               "transform runs at query time)."),
    MetricSpec("repro_store_evictions_total", "counter",
               "Representations evicted by the byte budget: least recently "
               "written first, the inserting table's own before any other's."),
    MetricSpec("repro_plan_cache_lookups_total", "counter",
               "Plan-cache lookups by outcome (hit | rebind | miss).",
               ("outcome",)),
    MetricSpec("repro_plan_cache_invalidations_total", "counter",
               "Whole-plan-cache invalidations (scenario, catalog or "
               "retention changes)."),
    MetricSpec("repro_plan_cache_evictions_total", "counter",
               "Plan-cache LRU evictions."),
    MetricSpec("repro_admission_queries_total", "counter",
               "Served query events: submitted, then one outcome "
               "(completed | failed | timeouts | rejected).", ("event",)),
    MetricSpec("repro_admission_queue_depth", "gauge",
               "Queries waiting for an admission slot right now."),
    MetricSpec("repro_server_request_seconds", "histogram",
               "Wire-request handling latency by command.", ("cmd",)),
)


class _Metric:
    """Shared plumbing: label validation and the registry's lock."""

    kind = ""

    def __init__(self, name: str, help: str, labels: tuple, lock) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = lock
        self._series: dict = {}  # guarded by: self._lock

    def _key(self, labels: dict) -> tuple:
        if sorted(labels) != sorted(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.label_names)}, got {sorted(labels)}")
        return tuple(str(labels[name]) for name in self.label_names)

    def _labels_dict(self, key: tuple) -> dict:
        return dict(zip(self.label_names, key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Metric):
    """A monotonically increasing count, one series per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def series(self) -> list[dict]:
        """JSON-safe series snapshot (copies, never live state)."""
        with self._lock:
            items = sorted(self._series.items())
        return [{"labels": self._labels_dict(key), "value": float(value)}
                for key, value in items]


class Gauge(_Metric):
    """A value that goes up and down; series may be set or callback-backed."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: tuple, lock) -> None:
        super().__init__(name, help, labels, lock)
        self._functions: dict = {}  # guarded by: self._lock

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Back one series with a callable sampled at read time (e.g. a
        queue's current depth) — invoked outside the registry lock."""
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return float(self._series.get(key, 0.0))
        return float(fn())

    def series(self) -> list[dict]:
        with self._lock:
            values = dict(self._series)
            functions = dict(self._functions)
        for key, fn in functions.items():
            values[key] = float(fn())
        return [{"labels": self._labels_dict(key), "value": float(value)}
                for key, value in sorted(values.items())]


class Histogram(_Metric):
    """Observations bucketed by upper bound (cumulative at export time)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labels: tuple, lock,
                 buckets: tuple = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labels, lock)
        self.buckets = tuple(sorted(float(bound) for bound in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        # Last slot catches observations above every bound (+Inf only).
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "count": 0, "sum": 0.0,
                    "counts": [0] * (len(self.buckets) + 1)}
            series["count"] += 1
            series["sum"] += float(value)
            series["counts"][index] += 1

    def value(self, **labels) -> float:
        """The observation *count* for one series (0 when unseen)."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return float(series["count"]) if series is not None else 0.0

    def series(self) -> list[dict]:
        with self._lock:
            items = [(key, series["count"], series["sum"],
                      list(series["counts"]))
                     for key, series in sorted(self._series.items())]
        out = []
        for key, count, total, counts in items:
            cumulative: dict[str, int] = {}
            running = 0
            for bound, n in zip(self.buckets, counts):
                running += n
                cumulative[format_bound(bound)] = running
            cumulative["+Inf"] = count
            out.append({"labels": self._labels_dict(key), "count": count,
                        "sum": total, "buckets": cumulative})
        return out


def format_bound(bound: float) -> str:
    """A bucket bound as Prometheus spells it (integral bounds without .0)."""
    return f"{bound:g}"


class MetricsRegistry:
    """All of one engine's metrics, by name.

    Components take ``metrics: MetricsRegistry | None = None`` and build a
    private registry when handed ``None``; a :class:`VisualDatabase` creates
    one and injects it everywhere so ``stats`` and ``metrics`` views agree.
    """

    def __init__(self, catalog: tuple = CATALOG) -> None:
        self._lock = make_rlock("telemetry-metrics")
        self._metrics: dict = {}  # guarded by: self._lock
        for spec in catalog:
            self._metrics[spec.name] = self._build(
                spec.kind, spec.name, spec.help, spec.labels, spec.buckets)

    def _build(self, kind: str, name: str, help: str, labels: tuple,
               buckets: tuple | None):
        if kind == "counter":
            return Counter(name, help, labels, self._lock)
        if kind == "gauge":
            return Gauge(name, help, labels, self._lock)
        if kind == "histogram":
            return Histogram(name, help, labels, self._lock,
                             buckets=buckets or DEFAULT_BUCKETS)
        raise ValueError(f"unknown metric kind {kind!r}")

    def _named(self, name: str, kind: str, help: str, labels: tuple,
               buckets: tuple | None = None):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = self._build(
                    kind, name, help, labels, buckets)
        if metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name: str, help: str = "",
                labels: tuple = ()) -> Counter:
        """The named counter (pre-declared or created on first use)."""
        return self._named(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> Gauge:
        return self._named(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels: tuple = (),
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._named(name, "histogram", help, labels, buckets)

    def value(self, name: str, **labels) -> float:
        """One series' current value; 0.0 for an unknown metric/series."""
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return metric.value(**labels)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Every metric's JSON-safe state: ``{name: {type, help, labels,
        series}}`` — a deep copy, safe to serialize or mutate."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: {"type": metric.kind, "help": metric.help,
                       "labels": list(metric.label_names),
                       "series": metric.series()}
                for name, metric in metrics}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self.names())} metrics)"
