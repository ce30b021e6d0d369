"""Per-query trace spans: where one query's wall time actually went.

A :class:`Tracer` hands out :class:`Trace` objects — one per query (or
ingest) — each a tree of :class:`Span` context managers::

    trace = tracer.trace("query", sql=sql)
    with trace.root as span:
        with span.child("plan"):
            ...
        with span.child("execute", table="cam_0") as execute_span:
            execute_span.annotate(rows=42)

Child spans are passed explicitly (``executor.execute(plan, span=...)``)
rather than via thread-local state, so each shard of a fan-out lands its
spans under its own ``table:<name>`` parent.  Every span of a trace shares
the trace's reentrant lock, because other threads read ``db.telemetry()``
while a query is still writing spans.  Instrumented code takes
``span=NO_SPAN`` by default — the no-op singleton absorbs
``child``/``annotate`` calls, so hot paths never branch on ``None``.

The tracer keeps the last ``keep`` traces in a ring buffer;
``db.telemetry()`` exposes them alongside the metrics snapshot.
"""

from __future__ import annotations

import time
from collections import deque

from repro.locking import make_lock, make_rlock

__all__ = ["Span", "Trace", "Tracer", "NO_SPAN"]


class Span:
    """One timed region of a trace; a context manager producing children."""

    def __init__(self, name: str, lock, **attrs) -> None:
        self.name = name
        self._start = time.perf_counter()
        self._attrs = dict(attrs)  # guarded by: self._lock
        self._children: list = []  # guarded by: self._lock
        self._elapsed_s: float | None = None  # guarded by: self._lock
        self._error: str | None = None  # guarded by: self._lock
        # Attached last: the guarded-write sanitizer reads writes made
        # before the lock exists as construction, which these are.
        self._lock = lock

    def child(self, name: str, **attrs) -> "Span":
        """A new child span (sharing this trace's lock), started now.

        Entering it restarts its clock, so a span created ahead of its work
        (a fan-out shard waiting for a pool thread) times only the work.
        """
        span = Span(name, self._lock, **attrs)
        with self._lock:
            self._children.append(span)
        return span

    def annotate(self, **attrs) -> None:
        """Attach key/value facts to this span (rows in/out, savings, ...)."""
        with self._lock:
            self._attrs.update(attrs)

    @property
    def elapsed_s(self) -> float | None:
        """Seconds from start to exit; ``None`` while the span is open."""
        with self._lock:
            return self._elapsed_s

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        with self._lock:
            self._elapsed_s = elapsed
            if exc_type is not None:
                self._error = f"{exc_type.__name__}: {exc}"
        return False

    def to_dict(self) -> dict:
        """This span and its subtree as JSON-safe data (a deep copy)."""
        with self._lock:
            return self._as_dict()

    def _as_dict(self) -> dict:
        # guarded by: self._lock
        node: dict = {"name": self.name, "elapsed_s": self._elapsed_s,
                      "attrs": dict(self._attrs),
                      "children": [child._as_dict()
                                   for child in self._children]}
        if self._error is not None:
            node["error"] = self._error
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, elapsed_s={self.elapsed_s})"


class Trace:
    """One query's span tree: an id plus the root :class:`Span`."""

    def __init__(self, trace_id: str, name: str, **attrs) -> None:
        # One reentrant lock shared by every span of the tree, so a parent
        # serializing its subtree can walk children without re-deadlocking.
        self._lock = make_rlock("telemetry-trace")
        self.trace_id = trace_id
        self.root = Span(name, self._lock, **attrs)

    def to_dict(self) -> dict:
        node = self.root.to_dict()
        node["trace_id"] = self.trace_id
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.trace_id!r}, {self.root.name!r})"


class _NoopSpan:
    """The do-nothing span: ``child`` returns itself, everything else is a
    no-op, so instrumented code never branches on ``None``."""

    __slots__ = ()
    name = "noop"
    elapsed_s = None

    def child(self, name: str, **attrs) -> "_NoopSpan":
        return self

    def annotate(self, **attrs) -> None:
        return None

    def to_dict(self) -> dict:
        return {"name": "noop", "elapsed_s": None, "attrs": {},
                "children": []}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NO_SPAN"


#: The shared no-op span instrumented signatures default to.
NO_SPAN = _NoopSpan()


class Tracer:
    """Hands out traces and remembers the most recent ``keep`` of them."""

    def __init__(self, keep: int = 32) -> None:
        if keep < 1:
            raise ValueError("keep must be positive")
        self.keep = keep
        self._next_id = 1  # guarded by: self._lock
        self._recent: deque = deque(maxlen=keep)  # guarded by: self._lock
        # Attached last, so the guarded-write sanitizer reads the two
        # assignments above as construction.
        self._lock = make_lock("telemetry-tracer")

    def trace(self, name: str, **attrs) -> Trace:
        """A new :class:`Trace` (ids are process-ordered: t000001, ...)."""
        with self._lock:
            trace_id = f"t{self._next_id:06d}"
            self._next_id += 1
        trace = Trace(trace_id, name, **attrs)
        with self._lock:
            self._recent.append(trace)
        return trace

    def recent(self) -> list[dict]:
        """The retained traces, oldest first, as JSON-safe dicts."""
        with self._lock:
            traces = list(self._recent)
        return [trace.to_dict() for trace in traces]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(keep={self.keep})"
