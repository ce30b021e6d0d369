"""The network serving layer: SQL over a newline-delimited JSON wire protocol.

:class:`~repro.db.database.VisualDatabase` is an in-process engine; this
package turns it into a multi-client system.  A stdlib-only
:class:`~repro.server.server.VisualDatabaseServer` (``socketserver`` + a
counting admission gate) accepts TCP connections, each holding a *session*
with server-side cursors, and speaks the :mod:`repro.query.sql` dialect over
the wire::

    db = repro.db.connect({"cam_north": north, "cam_south": south})
    server = repro.server.serve(db, port=7432)

    with repro.server.connect(port=7432) as conn:
        cursor = conn.execute("SELECT * FROM all_cameras "
                              "WHERE contains_object(bicycle) LIMIT 10")
        for row in cursor:
            print(row["__table__"], row["image_id"])

Run ``python -m repro.server --demo`` for a self-contained server.

Wire protocol grammar
---------------------

One request per line, one response per line, both JSON objects (UTF-8,
``\\n``-terminated — the *NDJSON* framing).  Mirroring the SQL-grammar
docstring convention of :mod:`repro.query.sql`::

    request    := '{' '"cmd"' ':' command [',' '"id"' ':' any]
                      (command-specific keys)* '}' '\\n'
    response   := '{' '"ok"' ':' bool [',' '"id"' ':' any]
                      (',' '"result"' ':' object
                      |',' '"error"'  ':' error) '}' '\\n'
    error      := '{' '"type"' ':' string ',' '"message"' ':' string
                      (error-specific keys: "offset", "token", ...)* '}'

    command    := "execute" | "fetch" | "close_cursor" | "explain"
                | "stats" | "metrics" | "tables" | "ping" | "quit"

    execute    keys: "sql" (required), "timeout" (seconds, optional),
                     "tables" (shard list, optional), "constraints"
                     (optional: {"max_accuracy_loss", "min_throughput"})
               result: {"cursor", "rowcount", "columns", "values",
                        "remaining"} — the first page (up to 64 rows);
                       "cursor" is null when it held every row, else the
                       id of the cursor parked for the rest
                       | {"explain_analyze": report} for an
                       ``EXPLAIN ANALYZE`` query — the annotated-plan
                       report of
                       :meth:`repro.db.database.VisualDatabase.explain_analyze`,
                       whole, with no cursor to page
    fetch      keys: "cursor" (required), "n" (optional, default 64)
               result: {"columns": [name...], "values": [column...],
                        "remaining": int}; a fetch that leaves
                       "remaining" at 0 frees the cursor
    column     := '[' value* ']'
                | '{' '"dtype"' ':' ("i" | "f") ',' '"b64"' ':' string '}'
    close_cursor keys: "cursor"           result: {"closed": bool}
    explain    keys: "sql", "tables", "constraints" (as execute)
               result: {"plan": plan} | {"plans": {table: plan}}
                       (plan is :meth:`repro.db.planner.QueryPlan.to_dict`)
    stats      result: {"protocol", "scenario", "tables", "predicates",
                        "sessions", "open_cursors", "storage",
                        "admission": {"max_workers", "max_queue",
                                      "queue_depth", "in_flight",
                                      "submitted", "completed", "failed",
                                      "timeouts", "rejected", "closing"},
                        "plan_cache": {...}}; each "execute" is counted
                       once, as one of "completed", "failed", "timeouts"
                       or "rejected"
    metrics    keys: "format" ("json" default | "text")
               result: {"metrics": snapshot} — the
                       :mod:`repro.telemetry` registry snapshot — or
                       {"exposition": string} for "text" (the
                       Prometheus-style exposition).  Counters here and
                       the "stats" result read one registry, so the two
                       never disagree.
    tables     result: {"tables": [name...]}
    ping       result: {"pong": true}
    quit       result: {"bye": true}; the server then closes the connection

A page is columnar: "values" holds one column per name in "columns", in
that order, each as long as the page (an empty page sends one empty column
per name).  An ``int64`` column travels as ``{"dtype": "i", ...}`` and a
``float64`` column as ``{"dtype": "f", ...}``: "b64" is the base64 of its
little-endian 8-byte values, so NaN, ±inf, -0.0 and the ``int64`` extremes
cross as their bits; every other column (strings, ``bool``, ``float32``,
integers of other widths) is a JSON list.  The matching client decodes
both with the stdlib alone.  Protocol 3 (``stats``' "protocol") is the
first with binary columns.  An ``id`` key, when present, is echoed
verbatim in the response so clients can match pipelined requests.  Error
``type`` names the Python exception class on the server (``SqlParseError``
carries ``offset``/``token``,
``BackpressureError`` means the admission gate was full — resubmit later,
``QueryTimeoutError`` means the per-query deadline passed and the query was
aborted at a chunk boundary).  Sessions survive every error: a failed query
never tears down the connection.

The serving pieces:

* :mod:`repro.server.protocol` — framing, serializable error payloads;
* :mod:`repro.server.session` — per-connection sessions and cursor paging
  built on :meth:`repro.db.results.ResultSet.fetchmany` with
  ``columnar=True``;
* :mod:`repro.server.admission` — the gate that caps running and waiting
  queries (each runs on its connection's thread), with immediate
  backpressure rejection and cooperative per-query timeouts;
* :mod:`repro.server.server` — the TCP server and graceful shutdown;
* :mod:`repro.server.client` — the matching ``connect()`` client.
"""

from repro.server.admission import AdmissionController
from repro.server.client import connect
from repro.server.protocol import BackpressureError, ProtocolError, ServerError
from repro.server.server import VisualDatabaseServer, serve
from repro.server.session import Session

__all__ = ["VisualDatabaseServer", "serve", "connect", "Session",
           "AdmissionController",
           "BackpressureError", "ProtocolError", "ServerError"]
