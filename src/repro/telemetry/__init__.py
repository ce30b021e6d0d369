"""Observability for the engine: metrics, traces, and their exports.

A stdlib-only package (its only engine dependency is the
:mod:`repro.locking` factory, keeping it a leaf every layer may import):

* :mod:`repro.telemetry.metrics` — a thread-safe named
  Counter/Gauge/Histogram registry with Prometheus-style labels; the
  engine's well-known metrics are pre-declared in
  :data:`~repro.telemetry.metrics.CATALOG`;
* :mod:`repro.telemetry.trace` — per-query span trees via context
  managers, safe to read from other threads, with a ring-buffered
  :class:`~repro.telemetry.trace.Tracer`;
* :mod:`repro.telemetry.export` — JSON snapshot and Prometheus text
  exposition renderers.

``db.telemetry()`` returns ``{"metrics": ..., "traces": ...}`` for an
in-process engine; the server's ``metrics`` wire command serves the same
snapshot (or its text exposition) remotely, and ``EXPLAIN ANALYZE <sql>``
turns one query's trace into a plan tree annotated with estimated vs.
actual selectivity per node.
"""
