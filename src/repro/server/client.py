"""The matching client: ``repro.server.connect()`` and remote cursors.

A thin, dependency-free driver for the NDJSON protocol.  One
:class:`Connection` holds one socket/session; :meth:`Connection.execute`
returns a :class:`RemoteCursor` holding the first page of rows, which the
``execute`` answer carries; further rows page in with server-side ``fetch``
— iteration streams batches, the query never re-runs.  Pages arrive as
columns, are decoded with the stdlib alone (:func:`decode_page`: binary
``int64`` / ``float64`` columns through :mod:`array`) and are zipped back
into one dictionary per row whose values and types equal a local
``fetchall()``'s.  A connection whose
socket fails, or whose reply does not answer the request, is closed: every
later call raises "connection is closed".  Server
errors come back as the exceptions the server raised where a local
counterpart exists (:class:`~repro.query.ast.SqlParseError` with its
``offset``/``token``, :class:`~repro.query.ast.QueryTimeoutError`,
:class:`~repro.server.protocol.BackpressureError`, ...); anything else
surfaces as :class:`~repro.server.protocol.ServerError` carrying the raw
payload.

Requests on one connection are serialized under a lock — a
:class:`Connection` is safe to share between threads, though each thread
opening its own connection (its own session and cursors) is the natural
shape.
"""

from __future__ import annotations

import contextlib
import socket
import threading

from repro.query.ast import QueryError, QueryTimeoutError, SqlParseError
from repro.server.protocol import (MAX_LINE_BYTES, BackpressureError,
                                   ProtocolError, ServerError, decode,
                                   decode_column, encode)
from repro.server.session import DEFAULT_FETCH_SIZE

__all__ = ["connect", "Connection", "RemoteCursor", "decode_page"]


def _rebuild_error(payload: dict) -> Exception:
    """The server's error payload as the closest local exception."""
    error_type = payload.get("type")
    message = payload.get("message", "server error")
    if error_type == "SqlParseError":
        return SqlParseError(message, offset=payload.get("offset"),
                             token=payload.get("token"))
    if error_type == "QueryTimeoutError":
        return QueryTimeoutError(message)
    if error_type == "QueryError":
        return QueryError(message)
    if error_type == "BackpressureError":
        return BackpressureError(message,
                                 queue_depth=payload.get("queue_depth"),
                                 max_queue=payload.get("max_queue"))
    if error_type == "ProtocolError":
        return ProtocolError(message)
    return ServerError(f"{error_type}: {message}" if error_type else message,
                       payload=payload)


def connect(host: str = "127.0.0.1", port: int = 7432, *,
            timeout: float | None = None) -> "Connection":
    """Open a :class:`Connection` to a running server.

    ``timeout`` is the *socket* timeout (connect and per-response receive) —
    per-query execution deadlines are the server's ``timeout`` request key
    (:meth:`Connection.execute`'s ``timeout=``).
    """
    return Connection(host, port, timeout=timeout)


class Connection:
    """One session with a :class:`~repro.server.server.VisualDatabaseServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7432, *,
                 timeout: float | None = None) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._next_id = 1
        self.closed = False

    # -- wire ------------------------------------------------------------------
    def _call(self, cmd: str, **params) -> dict:
        """One request-response round trip, returning the ``result`` object.

        A socket error (a receive timeout included), a hang-up, or a reply
        that is not the answer to this request leaves the stream unusable:
        the connection closes before the error propagates.
        """
        request = {"cmd": cmd}
        request.update((key, value) for key, value in params.items()
                       if value is not None)
        with self._lock:
            if self.closed:
                raise RuntimeError("connection is closed")
            request["id"] = self._next_id
            self._next_id += 1
            try:
                self._file.write(encode(request))
                self._file.flush()
                line = self._file.readline(MAX_LINE_BYTES + 2)
                if not line:
                    raise ConnectionError("server closed the connection")
                response = decode(line)
                if response.get("id") != request["id"]:
                    raise ProtocolError(
                        f"response id {response.get('id')!r} does not "
                        f"answer request id {request['id']!r}")
            except (OSError, ProtocolError):
                self._drop()
                raise
        if response.get("ok"):
            return response.get("result", {})
        raise _rebuild_error(response.get("error") or {})

    def _drop(self) -> None:
        """Close the socket without a goodbye (idempotent)."""
        self.closed = True
        with contextlib.suppress(OSError):
            self._file.close()
        self._sock.close()

    # -- commands --------------------------------------------------------------
    def execute(self, sql: str, *, timeout: float | None = None,
                constraints: dict | None = None,
                tables: list[str] | None = None) -> "RemoteCursor | dict":
        """Run one query server side, returning its :class:`RemoteCursor`.

        ``timeout`` (seconds) bounds the query's execution — past it the
        server aborts at a chunk boundary and this raises
        :class:`~repro.query.ast.QueryTimeoutError`; the session stays
        usable.  ``constraints`` takes ``{"max_accuracy_loss", ...}``;
        ``tables`` restricts an ``all_cameras`` fan-out to named shards.

        An ``EXPLAIN ANALYZE`` query has no rows to page: the annotated-plan
        report (see
        :meth:`~repro.db.database.VisualDatabase.explain_analyze`) comes
        back whole as a plain dict instead of a cursor.
        """
        result = self._call("execute", sql=sql, timeout=timeout,
                            constraints=constraints, tables=tables)
        if "explain_analyze" in result:
            return result["explain_analyze"]
        return RemoteCursor(self, result)

    def fetch(self, cursor: int, n: int = DEFAULT_FETCH_SIZE) -> dict:
        """Raw ``fetch``: ``{"columns", "values", "remaining"}``, the
        columns still encoded (:func:`decode_page` decodes them)."""
        return self._call("fetch", cursor=cursor, n=n)

    def close_cursor(self, cursor: int) -> bool:
        return bool(self._call("close_cursor",
                               cursor=cursor).get("closed"))

    def explain(self, sql: str, *, constraints: dict | None = None,
                tables: list[str] | None = None) -> dict:
        """The serialized plan: ``{"plan": ...}`` or ``{"plans": {...}}``."""
        return self._call("explain", sql=sql, constraints=constraints,
                          tables=tables)

    def stats(self) -> dict:
        return self._call("stats")

    def metrics(self, format: str | None = None) -> dict | str:
        """The server's telemetry registry snapshot.

        ``format="json"`` (the default) returns the structured snapshot
        (``{metric: {"kind", "help", "series": [...]}}``);
        ``format="text"`` returns the Prometheus-style text exposition as
        one string.
        """
        result = self._call("metrics", format=format)
        if "exposition" in result:
            return result["exposition"]
        return result.get("metrics", {})

    def tables(self) -> list[str]:
        return list(self._call("tables").get("tables", []))

    def ping(self) -> bool:
        return bool(self._call("ping").get("pong"))

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Say ``quit`` (best effort) and close the socket (idempotent)."""
        if self.closed:
            return
        try:
            self._call("quit")
        except (OSError, ValueError, RuntimeError):
            pass
        self._drop()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        peer = "closed" if self.closed else "%s:%d" % self._sock.getpeername()
        return f"Connection({peer})"


def decode_page(page: dict) -> list[dict]:
    """A columnar page (``columns`` + one ``values`` entry per column) as
    one dictionary per row.

    Raises :class:`~repro.server.protocol.ProtocolError` for a column that
    does not decode (see :func:`~repro.server.protocol.decode_column`) or
    for columns of unequal lengths.
    """
    names, columns = page["columns"], page["values"]
    if len(columns) != len(names):
        raise ProtocolError(f"page has {len(columns)} columns of values "
                            f"for {len(names)} names")
    columns = [decode_column(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ProtocolError("page columns differ in length: "
                            f"{[len(column) for column in columns]}")
    return [dict(zip(names, row)) for row in zip(*columns)]


class RemoteCursor:
    """A server-side cursor: rows page over the wire, the query never re-runs.

    Mirrors the :class:`~repro.db.results.ResultSet` cursor API —
    ``fetchone`` / ``fetchmany`` / ``fetchall``, iteration in ``batch_size``
    pages, ``len()`` — against a result set whose first page came with the
    ``execute`` answer.  Rows past it are parked in the server session under
    :attr:`cursor_id` (``None`` when the first page held every row); the
    server frees that slot once a ``fetch`` drains it, and :meth:`close`
    frees it early (sessions cap open cursors).
    """

    def __init__(self, connection: Connection, result: dict,
                 batch_size: int = DEFAULT_FETCH_SIZE) -> None:
        self._connection = connection
        self.cursor_id: int | None = result["cursor"]
        self.rowcount: int = result["rowcount"]
        self.columns: list[str] = list(result["columns"])
        self._buffer = decode_page(result)        # received, not yet returned
        self._unsent: int = result["remaining"]   # still on the server
        self.batch_size = batch_size
        self.closed = False

    def __len__(self) -> int:
        return self.rowcount

    @property
    def remaining(self) -> int:
        """Rows not yet returned by this cursor."""
        return len(self._buffer) + self._unsent

    def fetchmany(self, size: int = DEFAULT_FETCH_SIZE) -> list[dict]:
        """The next ``size`` rows (shorter at the end, ``[]`` when done).

        ``fetchmany(0)`` returns ``[]`` and a negative size raises
        :class:`ValueError`, as on :meth:`ResultSet.fetchmany
        <repro.db.results.ResultSet.fetchmany>` — neither reaches the
        server.  Rows already received are served first; only the shortfall
        is fetched.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if self.closed:
            return []
        if len(self._buffer) < size and self._unsent:
            page = self._connection.fetch(self.cursor_id,
                                          n=size - len(self._buffer))
            self._buffer += decode_page(page)
            self._unsent = page["remaining"]
        rows, self._buffer = self._buffer[:size], self._buffer[size:]
        return rows

    def fetchone(self) -> dict | None:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchall(self) -> list[dict]:
        return self.fetchmany(self.remaining)

    def __iter__(self):
        while True:
            rows = self.fetchmany(self.batch_size)
            if not rows:
                return
            yield from rows

    def close(self) -> None:
        """Free the server-side cursor (idempotent, best effort).

        Sends nothing when the server holds no rows for it any more — it
        parked none, or a ``fetch`` drained and freed them.
        """
        if self.closed:
            return
        self.closed = True
        if self._unsent and not self._connection.closed:
            try:
                self._connection.close_cursor(self.cursor_id)
            except (OSError, ValueError, RuntimeError):
                pass

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RemoteCursor(id={self.cursor_id}, rows={self.rowcount}, "
                f"remaining={self.remaining})")
