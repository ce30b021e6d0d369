"""Admission control: a counting gate in front of query execution.

The serving layer's load story: a session *runs* every query it accepts
through :meth:`AdmissionController.run`, on the connection's own thread.
The gate counts two things — queries running (at most ``max_workers``) and
callers waiting for a slot (at most ``max_queue`` beyond them).  A caller
that finds both full is refused with
:class:`~repro.server.protocol.BackpressureError` *immediately* (it never
waits), so an overloaded server answers with a structured rejection the
client can back off on instead of hanging the connection.  No thread is
started here: the thread that read the request is the thread that runs it,
and per-shard executor locks make it safe for several of them to race
queries, ingest and retention on one database.

Per-query timeouts are cooperative: :meth:`AdmissionController.cancel_for`
builds the cancellation hook a session passes down to
:meth:`~repro.db.database.VisualDatabase.execute` — it raises
:class:`~repro.query.ast.QueryTimeoutError` once the deadline passes, which
the executor observes at chunk boundaries.  A timed-out query therefore
aborts between chunks (bounded overshoot: one chunk), frees its slot, and
the session that ran it stays usable.

Shutdown drains: :meth:`shutdown` first flips the gate into a rejecting
state (new callers get a backpressure error naming the shutdown), then
waits for waiting and running queries to finish before returning, so every
admitted query's session gets a real answer.

The gate is the server's one count of query outcomes: every :meth:`run`
call ends in exactly one terminal event of ``repro_admission_queries_total``
— ``completed``, ``failed``, ``timeouts`` (the query raised
:class:`~repro.query.ast.QueryTimeoutError`) or ``rejected`` (a full queue
or a gate shutting down).
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Callable

from repro.locking import make_lock
from repro.query.ast import QueryTimeoutError
from repro.server.protocol import BackpressureError
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded concurrency gate for one server's queries.

    Parameters
    ----------
    max_workers:
        Queries allowed to run concurrently.
    max_queue:
        Callers allowed to *wait* for a slot beyond the ones running; a
        caller finding that many already waiting is rejected immediately
        with :class:`~repro.server.protocol.BackpressureError`.
    metrics:
        The registry the lifetime counters (``repro_admission_queries_total``
        by event: ``submitted`` plus one terminal event per call) and the
        queue-depth gauge live on; a private registry is created when
        omitted.
    """

    def __init__(self, max_workers: int = 4, max_queue: int = 16,
                 metrics: MetricsRegistry | None = None) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = make_lock("admission")
        # Signalled whenever a counter drops: a freed slot wakes waiters,
        # the last one out wakes shutdown().
        self._changed = threading.Condition(self._lock)
        self._closing = False  # guarded by: self._lock
        self._running = 0  # guarded by: self._lock
        self._waiting = 0  # guarded by: self._lock
        self._events = self.metrics.counter("repro_admission_queries_total")
        self.metrics.gauge("repro_admission_queue_depth").set_function(
            lambda: self.stats()["queue_depth"])

    # -- admission ------------------------------------------------------------
    def run(self, fn: Callable[[], object]) -> object:
        """Admit one query and run it on the calling thread.

        Blocks while ``max_workers`` queries are running, then returns
        ``fn()`` (or raises what it raised).  Raises
        :class:`~repro.server.protocol.BackpressureError` without waiting
        when ``max_queue`` callers are already waiting or the gate is
        shutting down.  Waiters are woken in no particular order.
        """
        with self._lock:
            if self._closing:
                self._events.inc(event="rejected")
                raise BackpressureError(
                    "server is shutting down; query rejected",
                    queue_depth=self._waiting, max_queue=self.max_queue)
            if (self._running + self._waiting
                    >= self.max_workers + self.max_queue):
                self._events.inc(event="rejected")
                raise BackpressureError(
                    f"admission queue full ({self.max_queue} queries "
                    "waiting); retry after a backoff",
                    queue_depth=self._waiting, max_queue=self.max_queue)
            self._events.inc(event="submitted")
            self._waiting += 1
            while self._running >= self.max_workers:
                self._changed.wait()
            self._waiting -= 1
            self._running += 1
        event = "failed"
        try:
            result = fn()
            event = "completed"
            return result
        except QueryTimeoutError:
            event = "timeouts"
            raise
        finally:
            with self._lock:
                self._running -= 1
                self._changed.notify_all()
            self._events.inc(event=event)

    def cancel_for(self, timeout_s: float | None,
                   started: float | None = None) -> Callable[[], None] | None:
        """The chunk-boundary cancellation hook for one query's deadline.

        ``None`` timeout means no hook (the query runs to completion).  The
        deadline clock starts when the hook is built (``started``, default
        now) — before :meth:`run` — so time spent *waiting for a slot*
        counts against the budget: an overloaded server times out stale
        work instead of running it.
        """
        if timeout_s is None:
            return None
        deadline = (started if started is not None else monotonic()) \
            + timeout_s

        def cancel() -> None:
            if monotonic() > deadline:
                raise QueryTimeoutError(
                    f"query exceeded its {timeout_s:g}s timeout and was "
                    "aborted at a chunk boundary")

        return cancel

    # -- lifecycle ------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop admitting queries and wait for the admitted ones (idempotent).

        New callers are rejected from the moment this is called.  Every
        already-admitted query — running or still waiting for a slot —
        finishes, so its session gets a real answer; this returns once
        nothing is running or waiting.
        """
        with self._lock:
            self._closing = True
            while self._running or self._waiting:
                self._changed.wait()

    def stats(self) -> dict:
        """Gate occupancy and lifetime counters."""
        with self._lock:
            waiting = self._waiting
            running = self._running
            closing = self._closing
        return {"max_workers": self.max_workers,
                "max_queue": self.max_queue,
                "queue_depth": waiting,
                "in_flight": running,
                "submitted": int(self._events.value(event="submitted")),
                "rejected": int(self._events.value(event="rejected")),
                "completed": int(self._events.value(event="completed")),
                "failed": int(self._events.value(event="failed")),
                "timeouts": int(self._events.value(event="timeouts")),
                "closing": closing}
