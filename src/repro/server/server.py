"""The TCP server: one thread per connection, shared admission + plan cache.

:class:`VisualDatabaseServer` wraps one
:class:`~repro.db.database.VisualDatabase` in a ``socketserver``-based
threading TCP server speaking the NDJSON protocol (grammar in the
:mod:`repro.server` package docstring).  A connection's thread
(``repro-server-conn-<port>-<n>``) does everything for its requests — parse,
run the query, page, encode — so a served query is one stack on one thread;
the :class:`~repro.server.admission.AdmissionController` gate it runs
through caps how many run at once and how many may wait, so client count
and query concurrency stay decoupled and a full gate answers with an
immediate backpressure error.  The served database gets its plan cache
enabled, so repeated dashboard shapes skip parsing and lowering; per-shard
executor locks (not the server) provide the correctness under concurrency.

Shutdown is graceful: :meth:`VisualDatabaseServer.close` stops accepting
connections, lets every admitted query finish (their sessions get real
answers), then releases the port.  The context-manager form does the
same::

    with repro.server.serve(db, port=0) as server:
        conn = repro.server.connect(port=server.address[1])
        ...
"""

from __future__ import annotations

import itertools
import socketserver
import threading

from repro.locking import make_lock
from repro.server.admission import AdmissionController
from repro.server.protocol import (MAX_LINE_BYTES, ProtocolError, decode,
                                   encode, error_response, ok_response)
from repro.server.session import Session

__all__ = ["VisualDatabaseServer", "serve"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection's read-dispatch-write loop.

    Every request gets exactly one response line, errors included; only
    end-of-stream, an oversized line (framing is lost at that point) or a
    ``quit`` ends the loop.  The session — and its cursors — lives exactly
    as long as the loop.
    """

    def setup(self) -> None:  # pragma: no cover - exercised over sockets
        super().setup()
        owner: "VisualDatabaseServer" = self.server.owner
        threading.current_thread().name = (
            f"repro-server-conn-{owner.address[1]}-"
            f"{next(owner._connection_ids)}")

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        owner: "VisualDatabaseServer" = self.server.owner
        session = owner._open_session()
        try:
            while True:
                line = self.rfile.readline(MAX_LINE_BYTES + 2)
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    # The rest of the oversized message is still in flight;
                    # framing is unrecoverable, so answer and hang up.
                    self._reply(error_response({}, ProtocolError(
                        f"message exceeds {MAX_LINE_BYTES} bytes")))
                    break
                request: dict = {}
                try:
                    request = decode(line)
                    response = ok_response(request, session.handle(request))
                except BaseException as exc:  # noqa: BLE001 - wire-reported
                    response = error_response(request, exc)
                self._reply(response)
                if session.closed:
                    break
        finally:
            session.close()
            owner._close_session()

    def _reply(self, response: dict) -> None:  # pragma: no cover - socket I/O
        self.wfile.write(encode(response))
        self.wfile.flush()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "VisualDatabaseServer"


class VisualDatabaseServer:
    """Serve one :class:`~repro.db.database.VisualDatabase` over TCP.

    Parameters
    ----------
    database:
        The :class:`~repro.db.database.VisualDatabase` to serve; shared by
        every connection (per-shard executor locks make concurrent queries,
        ingest and retention safe).  The admission gate meters onto its
        :attr:`~repro.db.database.VisualDatabase.metrics` registry.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    max_workers, max_queue:
        Admission control: how many queries may run at once, and how many
        may wait beyond them before further ones are rejected with a
        backpressure error.
    default_timeout:
        Per-query timeout (seconds) for requests that carry none; ``None``
        lets queries run to completion.
    close_database:
        Also :meth:`~repro.db.database.VisualDatabase.close` the database
        when the server closes (for servers that own their database, like
        ``python -m repro.server``).
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0, *,
                 max_workers: int = 4, max_queue: int = 16,
                 default_timeout: float | None = None,
                 close_database: bool = False) -> None:
        self.database = database
        self.default_timeout = default_timeout
        self._close_database = close_database
        database.enable_plan_cache()
        self.admission = AdmissionController(max_workers=max_workers,
                                             max_queue=max_queue,
                                             metrics=database.metrics)
        self._lock = make_lock("server")
        self._sessions = 0  # guarded by: self._lock
        self._closed = False  # guarded by: self._lock
        self._thread: threading.Thread | None = None  # guarded by: self._lock
        self._connection_ids = itertools.count(1)
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.owner = self

    # -- sessions --------------------------------------------------------------
    def _open_session(self) -> Session:
        with self._lock:
            self._sessions += 1
        return Session(self.database, self.admission,
                       default_timeout=self.default_timeout,
                       stats_extra=self._stats_extra)

    def _close_session(self) -> None:
        with self._lock:
            self._sessions -= 1

    def _stats_extra(self) -> dict:
        with self._lock:
            return {"sessions": self._sessions,
                    "address": list(self.address)}

    # -- lifecycle -------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — the real port when bound with 0."""
        return self._tcp.server_address[:2]

    def start(self) -> "VisualDatabaseServer":
        """Accept connections on a daemon thread; returns ``self``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("server is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._tcp.serve_forever,
                    name=f"repro-server-{self.address[1]}", daemon=True)
                self._thread.start()
        return self

    def close(self) -> None:
        """Graceful shutdown (idempotent).

        Stops accepting connections, then waits for every admitted query to
        finish (connection threads deliver those answers before their
        sockets go away), and finally releases the port.
        """
        # Flip the closed flag atomically so a concurrent close() (or a
        # start() racing it) sees a consistent state; release the lock
        # before the shutdown calls below, which wait on running queries.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._tcp.shutdown()
        self.admission.shutdown()
        self._tcp.server_close()
        if self._close_database:
            self.database.close()

    def __enter__(self) -> "VisualDatabaseServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        host, port = self.address
        return (f"VisualDatabaseServer({host}:{port}, "
                f"sessions={self._sessions}, closed={self._closed})")  # unguarded ok: cosmetic


def serve(database, host: str = "127.0.0.1", port: int = 0,
          **kwargs) -> VisualDatabaseServer:
    """Build and start a :class:`VisualDatabaseServer` (keywords forwarded)."""
    return VisualDatabaseServer(database, host, port, **kwargs).start()
