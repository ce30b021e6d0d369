"""Spans recorded from outside the program, and the trace file they land in.

The benchmark may not edit ``src/``, so a traced pass wraps the public entry
point of each layer (``parse_query``, ``QueryPlanner.plan``,
``QueryExecutor.execute``, ``Cascade.classify_with_stats``, ...) with a
timing shim for the duration of the pass and restores the originals
afterwards.  An untraced pass installs nothing, so end-to-end numbers carry
no instrumentation cost; the difference between the two passes is reported
as ``bench.trace_overhead_share``.

A span is ``(name, start, end, parent, workload, trial, thread, attrs)``.
``parent`` is the index of the span that was open on the same thread when
this one started.  A span that starts on a thread with nothing open (a
fan-out shard on a pool thread) is adopted by the single ``db.execute`` in
flight, if there is exactly one; with several in flight (the wire workload)
the cause is ambiguous and ``parent`` stays ``None``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Recorder", "SpanView", "instrument", "span", "write_trace",
           "QUERY_ROOT"]

#: The span every query's layers hang under.
QUERY_ROOT = "db.execute"

COLUMNS = ("name", "start", "end", "parent", "workload", "trial", "thread",
           "attrs")


class Recorder:
    """In-memory span store; written once, by :func:`write_trace`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.workload = ""
        self.trial = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots_in_flight: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif len(self._roots_in_flight) == 1:
                parent = self._roots_in_flight[0]
            else:
                parent = None
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, self.workload, self.trial,
                      threading.current_thread().name, attrs]
            self.spans.append(record)
            if name == QUERY_ROOT:
                self._roots_in_flight.append(index)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if name == QUERY_ROOT:
                with self._lock:
                    self._roots_in_flight.remove(index)

    def mark(self) -> int:
        """A position in the span list, for :meth:`view`."""
        with self._lock:
            return len(self.spans)

    def view(self, since: int = 0, until: int | None = None) -> "SpanView":
        return SpanView(self.spans, since,
                        len(self.spans) if until is None else until)


def write_trace(path: Path, recorders: list[Recorder], **meta) -> Path:
    """Write every span of every pass once, one pass after the other.

    Times are seconds from the first span; ``parent`` indexes the written
    list.
    """
    origin = min((span[1] for recorder in recorders
                  for span in recorder.spans), default=0.0)
    rows = []
    for recorder in recorders:
        offset = len(rows)
        rows.extend(
            [name, round(start - origin, 7), round(end - origin, 7),
             None if parent is None else parent + offset, workload, trial,
             thread, attrs]
            for name, start, end, parent, workload, trial, thread, attrs
            in recorder.spans)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "columns": COLUMNS,
                                "spans": rows}) + "\n")
    return path


class SpanView:
    """Read-only sums over the spans recorded between two marks."""

    def __init__(self, spans: list[list], since: int, until: int) -> None:
        self._all = spans
        self.since = since
        self.spans = spans[since:until]
        self._by_name: dict[str, list[list]] = defaultdict(list)
        for span in self.spans:
            self._by_name[span[0]].append(span)

    def named(self, name: str) -> list[list]:
        return self._by_name.get(name, [])

    def durations(self, name: str) -> list[float]:
        return [span[2] - span[1] for span in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def attr_total(self, name: str, key: str) -> float:
        return sum(span[7].get(key, 0) for span in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus what their children cover.

        Children on other threads can overlap each other, so the covered
        part is the length of the union of their intervals, clipped to the
        parent's.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, *_ in self.spans:
            if parent is not None and parent >= self.since:
                children[parent].append((start, end))
        total = 0.0
        for index, span in enumerate(self.spans, self.since):
            if span[0] != name:
                continue
            _, start, end, *_ = span
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            total += (end - start) - covered
        return total

    def children_of(self, name: str, child: str) -> list[list[float]]:
        """Per ``name`` span, the durations of its direct ``child`` spans."""
        groups: dict[int, list[float]] = defaultdict(list)
        for span_name, start, end, parent, *_ in self.spans:
            if (span_name == child and parent is not None
                    and self._all[parent][0] == name):
                groups[parent].append(end - start)
        return list(groups.values())

    def nested_under(self, name: str, ancestor: str) -> list[float]:
        """Durations of ``name`` spans that have an ``ancestor`` span above."""
        out = []
        for span_name, start, end, parent, *_ in self.spans:
            if span_name != name:
                continue
            while parent is not None:
                if self._all[parent][0] == ancestor:
                    out.append(end - start)
                    break
                parent = self._all[parent][3]
        return out


def _infer_attrs(model, representation, *args, **kwargs) -> dict:
    return {"rows": int(len(representation)), "flops": int(model.flops)}


def _select_attrs(optimizer, *args, **kwargs) -> dict:
    return {"cascades": int(optimizer.n_cascades)}


def _rows_attrs(_self, images, *args, **kwargs) -> dict:
    return {"rows": int(len(images))}


def _records_attrs(_self, records, *args, **kwargs) -> dict:
    return {"records": len(records)}


def _patch_points() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, attrs fn)`` for every layer boundary.

    Module-level functions are patched where they are *looked up* — the
    importing module for ``from x import f`` at import time, the defining
    module for imports made inside a function body.
    """
    import repro.baselines.reference as reference
    import repro.core.trainer as trainer
    import repro.db.aggregates as aggregates
    import repro.db.database as database
    import repro.db.persistence as persistence
    import repro.db.results as results
    from repro.core.cascade import Cascade
    from repro.core.model import TrainedModel
    from repro.core.optimizer import TahomaOptimizer
    from repro.db.executor import QueryExecutor
    from repro.db.planner import QueryPlanner
    from repro.db.wal import TableWal
    from repro.server.client import Connection, RemoteCursor
    from repro.server.session import Session
    from repro.transforms.spec import TransformSpec

    return [
        (database, "parse_query", "query.sql.parse", None),
        (QueryPlanner, "plan", "db.planner.plan", None),
        (TahomaOptimizer, "select", "core.optimizer.select", _select_attrs),
        (database.VisualDatabase, "execute", QUERY_ROOT, None),
        (database.VisualDatabase, "ingest", "db.ingest", _rows_attrs),
        (QueryExecutor, "execute", "db.executor.execute", None),
        (QueryExecutor, "replay_wal", "db.wal.replay", _records_attrs),
        (Cascade, "classify_with_stats", "core.cascade.classify", None),
        (TransformSpec, "apply_batch", "transforms.apply_batch", _rows_attrs),
        (TrainedModel, "predict_proba_transformed", "nn.infer", _infer_attrs),
        (aggregates, "compute_partials", "db.aggregates.partials", None),
        (results, "merge_partials", "db.aggregates.merge", None),
        (database, "build_result_set", "db.results.build", None),
        (results.FanoutResultSet, "__init__", "db.results.fanout_merge", None),
        # fetchall() and the wire's paged fetch both go through fetchmany().
        (results.ResultSet, "fetchmany", "db.results.fetch", None),
        (TableWal, "log_segment", "db.wal.append", None),
        (persistence, "save_database", "db.persistence.save", None),
        (persistence, "load_database", "db.persistence.load", None),
        (Session, "handle", "server.session.handle", None),
        (Connection, "execute", "server.client.execute", None),
        (Connection, "ping", "server.client.ping", None),
        (RemoteCursor, "fetchall", "server.client.fetchall", None),
        (trainer, "fit", "nn.train.fit", None),
        (reference, "fit", "nn.train.fit", None),
        (database, "train_reference_model", "baselines.reference.train",
         None),
        (trainer.ModelTrainer, "train_models", "core.trainer.train_models",
         None),
        (TahomaOptimizer, "initialize", "core.optimizer.initialize", None),
    ]


def _wrap(recorder: Recorder, fn, name: str, attrs_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
        with recorder.span(name, **attrs):
            return fn(*args, **kwargs)
    return traced


@contextlib.contextmanager
def instrument(recorder: Recorder | None):
    """Wrap every layer boundary with a span for the duration of the block.

    ``None`` installs nothing (the untraced pass).
    """
    if recorder is None:
        yield
        return
    originals = []
    try:
        for owner, attribute, name, attrs_fn in _patch_points():
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute,
                    _wrap(recorder, original, name, attrs_fn))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def span(recorder: Recorder | None, name: str, **attrs):
    """``recorder.span(...)``, or a no-op when nothing is being recorded."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, **attrs)
