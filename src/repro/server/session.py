"""Per-connection sessions: command dispatch and server-side cursors.

One :class:`Session` lives for the duration of one client connection.  It
owns the connection's *cursors*: ``execute`` runs the query on the
connection's own thread (once the server's admission gate lets it in) and
answers with the first page of rows; only when rows remain does it park the
resulting :class:`~repro.db.results.ResultSet` under a session-local cursor
id, so a short result is one round trip and holds no cursor.  ``fetch``
pages further rows off the parked result set with
:meth:`~repro.db.results.ResultSet.fetchmany` with ``columnar=True`` —
the query is never re-run — and reports how many rows remain so clients
stop paging without a final empty round trip.  Every page travels as columns
sliced straight from the result's arrays (``"values"``: one entry per
column, in ``"columns"`` order): ``int64`` and ``float64`` columns as base64
little-endian bytes, every other column as a JSON list (see
:func:`~repro.server.protocol.encode_column`); no row is ever built on the
server.  Cursors are bounded per session (:data:`MAX_CURSORS`); a ``fetch``
that drains a cursor frees it, ``close_cursor`` frees one early, and closing
the session frees them all.

Sessions survive errors: a failed command — parse error, timeout,
backpressure rejection — produces an error payload for that request and
nothing else; the connection and its other cursors stay usable.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.core.selector import UserConstraints
from repro.server.protocol import (PROTOCOL_VERSION, ProtocolError,
                                   encode_column)
from repro.telemetry.export import render_prometheus

__all__ = ["Session"]

#: Rows of the page ``execute`` answers with, and the page size of a
#: ``fetch`` request that names none.
DEFAULT_FETCH_SIZE = 64

#: Open-cursor cap per session: an ``execute`` whose result would park one
#: more is rejected (after it ran) until the client closes one; a result
#: that fits in the first page is served regardless.
MAX_CURSORS = 32

_CONSTRAINT_KEYS = ("max_accuracy_loss", "min_throughput")


class Session:
    """One client's command dispatcher and cursor table.

    A session is confined to one thread: it is owned by its connection's
    handler thread, and its cursors are never shared across connections,
    so its state needs no lock.

    Parameters
    ----------
    database:
        The shared :class:`~repro.db.database.VisualDatabase` being served.
    admission:
        The server's :class:`~repro.server.admission.AdmissionController`;
        every ``execute`` runs through it, on the calling thread, and it
        counts each one's outcome.
    default_timeout:
        Per-query timeout (seconds) applied when a request carries none;
        ``None`` lets queries run to completion.
    stats_extra:
        Optional callable contributing server-level keys (``sessions``,
        ``address``) to the ``stats`` command's result.
    """

    def __init__(self, database, admission, *,
                 default_timeout: float | None = None,
                 stats_extra: Callable[[], dict] | None = None) -> None:
        self.database = database
        self.admission = admission
        self.default_timeout = default_timeout
        self.metrics = database.metrics
        self._request_seconds = self.metrics.histogram(
            "repro_server_request_seconds")
        self._stats_extra = stats_extra
        self._cursors: dict[int, object] = {}
        self._next_cursor = 1
        self.closed = False

    # -- dispatch --------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Run one decoded request, returning its ``result`` object.

        Raises on any failure — the connection handler turns the exception
        into the error envelope; the session itself stays usable.
        """
        cmd = request.get("cmd")
        if not isinstance(cmd, str):
            raise ProtocolError('request needs a string "cmd" key')
        try:
            handler = self._COMMANDS[cmd]
        except KeyError:
            raise ProtocolError(
                f"unknown command {cmd!r}; commands: "
                f"{sorted(self._COMMANDS)}") from None
        started = time.perf_counter()
        try:
            return handler(self, request)
        finally:
            self._request_seconds.observe(time.perf_counter() - started,
                                          cmd=cmd)

    # -- commands --------------------------------------------------------------
    def _cmd_execute(self, request: dict) -> dict:
        sql = self._require_str(request, "sql")
        constraints = self._constraints_from(request.get("constraints"))
        tables = self._tables_from(request.get("tables"))
        timeout = request.get("timeout")
        if timeout is None:  # absent or JSON null: the operator's default
            timeout = self.default_timeout
        # json.loads accepts NaN and Infinity; a NaN deadline never fires.
        if timeout is not None and (not isinstance(timeout, (int, float))
                                    or isinstance(timeout, bool)
                                    or not 0 < timeout < math.inf):
            raise ProtocolError(f'"timeout" must be positive, finite '
                                f"seconds, got {timeout!r}")
        # The deadline clock starts now — time spent waiting for a slot
        # counts, so an overloaded server aborts stale queries instead of
        # running them.
        cancel = self.admission.cancel_for(timeout)
        result_set = self.admission.run(
            lambda: self.database.execute(sql, constraints, tables=tables,
                                          cancel=cancel))
        if isinstance(result_set, dict):
            # EXPLAIN ANALYZE: the result is a JSON report, not row data —
            # return it whole, no cursor to page.
            return {"explain_analyze": result_set}
        # Only a result longer than its first page needs a cursor, and only
        # the result can say whether it is.
        if (result_set.remaining > DEFAULT_FETCH_SIZE
                and len(self._cursors) >= MAX_CURSORS):
            raise ProtocolError(
                f"session has {MAX_CURSORS} open cursors; "
                "close_cursor one before executing again")
        page = self._page(result_set, DEFAULT_FETCH_SIZE)
        cursor_id = None
        if result_set.remaining:
            cursor_id = self._next_cursor
            self._next_cursor += 1
            self._cursors[cursor_id] = result_set
        return {"cursor": cursor_id, "rowcount": len(result_set), **page}

    def _cmd_fetch(self, request: dict) -> dict:
        result_set = self._cursor_for(request)
        n = request.get("n", DEFAULT_FETCH_SIZE)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ProtocolError(f'"n" must be a non-negative integer, '
                                f"got {n!r}")
        page = self._page(result_set, n)
        if not result_set.remaining:
            del self._cursors[request["cursor"]]
        return page

    @staticmethod
    def _page(result_set, n: int) -> dict:
        """The next ``n`` rows of ``result_set`` as one columnar page,
        encoded from the column slices that
        :meth:`~repro.db.results.ResultSet.fetchmany` returns with
        ``columnar=True``."""
        columns = result_set.fetchmany(n, columnar=True)
        return {"columns": result_set.columns,
                "values": [encode_column(values) for values in columns],
                "remaining": result_set.remaining}

    def _cmd_close_cursor(self, request: dict) -> dict:
        cursor = self._cursor_id(request)
        return {"closed": self._cursors.pop(cursor, None) is not None}

    def _cmd_explain(self, request: dict) -> dict:
        sql = self._require_str(request, "sql")
        constraints = self._constraints_from(request.get("constraints"))
        tables = self._tables_from(request.get("tables"))
        plans = self.database.explain(sql, constraints, tables=tables)
        if isinstance(plans, dict):
            return {"plans": {table: plan.to_dict()
                              for table, plan in plans.items()}}
        return {"plan": plans.to_dict()}

    def _cmd_stats(self, request: dict) -> dict:
        database = self.database
        cache = database.plan_cache
        result = {"protocol": PROTOCOL_VERSION,
                  "scenario": database.scenario.name,
                  "tables": database.tables(),
                  "predicates": database.predicates(),
                  "open_cursors": len(self._cursors),
                  "admission": self.admission.stats(),
                  "plan_cache": cache.stats() if cache is not None else None,
                  # Storage-engine health per shard: segment fragmentation,
                  # WAL depth, checkpoint count (see VisualDatabase.storage_stats).
                  "storage": database.storage_stats()}
        if self._stats_extra is not None:
            result.update(self._stats_extra())
        return result

    def _cmd_metrics(self, request: dict) -> dict:
        fmt = request.get("format", "json")
        if fmt not in ("json", "text"):
            raise ProtocolError(f'"format" must be "json" or "text", '
                                f"got {fmt!r}")
        snapshot = self.metrics.snapshot()
        if fmt == "text":
            return {"exposition": render_prometheus(snapshot)}
        return {"metrics": snapshot}

    def _cmd_tables(self, request: dict) -> dict:
        return {"tables": self.database.tables()}

    def _cmd_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _cmd_quit(self, request: dict) -> dict:
        self.close()
        return {"bye": True}

    _COMMANDS = {"execute": _cmd_execute,
                 "fetch": _cmd_fetch,
                 "close_cursor": _cmd_close_cursor,
                 "explain": _cmd_explain,
                 "stats": _cmd_stats,
                 "metrics": _cmd_metrics,
                 "tables": _cmd_tables,
                 "ping": _cmd_ping,
                 "quit": _cmd_quit}

    # -- request validation ----------------------------------------------------
    @staticmethod
    def _require_str(request: dict, key: str) -> str:
        value = request.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ProtocolError(f'request needs a non-empty string '
                                f'"{key}" key')
        return value

    @staticmethod
    def _cursor_id(request: dict) -> int:
        cursor = request.get("cursor")
        if not isinstance(cursor, int) or isinstance(cursor, bool):
            raise ProtocolError(f'"cursor" must be an integer cursor id, '
                                f"got {cursor!r}")
        return cursor

    def _cursor_for(self, request: dict):
        cursor = self._cursor_id(request)
        try:
            return self._cursors[cursor]
        except KeyError:
            raise ProtocolError(
                f"unknown cursor {cursor!r}; "
                f"open: {sorted(self._cursors)}") from None

    def _constraints_from(self, spec) -> UserConstraints | None:
        """The request's ``constraints`` object as :class:`UserConstraints`.

        Unnamed fields inherit the database's defaults, so a client tuning
        only ``max_accuracy_loss`` keeps the configured throughput floor.
        """
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ProtocolError('"constraints" must be an object with '
                                f"keys {list(_CONSTRAINT_KEYS)}")
        unknown = sorted(set(spec) - set(_CONSTRAINT_KEYS))
        if unknown:
            raise ProtocolError(f"unknown constraint keys {unknown}; "
                                f"known: {list(_CONSTRAINT_KEYS)}")
        base = self.database.default_constraints
        return UserConstraints(
            max_accuracy_loss=spec.get("max_accuracy_loss",
                                       base.max_accuracy_loss),
            min_throughput=spec.get("min_throughput", base.min_throughput))

    @staticmethod
    def _tables_from(spec) -> list[str] | None:
        if spec is None:
            return None
        if not isinstance(spec, list) or not all(
                isinstance(name, str) for name in spec):
            raise ProtocolError('"tables" must be a list of table names, '
                                f"got {spec!r}")
        return spec

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drop every cursor (idempotent); the session stops serving."""
        self._cursors.clear()
        self.closed = True
