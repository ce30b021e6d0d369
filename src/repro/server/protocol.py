"""Wire-protocol framing and serializable errors (NDJSON).

One message per line, each line one JSON object — see the grammar in the
:mod:`repro.server` package docstring.  This module owns the mechanical
half: encoding/decoding single lines, building the ``{"ok": ...}`` response
envelopes, and turning exceptions into machine-readable error payloads (the
``.to_dict()`` protocol of :class:`~repro.query.ast.SqlParseError` and
:class:`~repro.query.ast.QueryError`, with a generic fallback for everything
else).

It also owns the page-column codec (:func:`encode_column` /
:func:`decode_column`): an ``int64`` or ``float64`` column crosses as
``{"dtype": "i" | "f", "b64": ...}``, the base64 of its little-endian
bytes, and decodes with the stdlib ``array`` module; every other column is
a JSON list.  Binary columns carry NaN, ±inf and -0.0 as their bits.  A
list-path float column (``float32``) may still hold NaN — the typed fill for
absent fan-out columns — and JSON keeps Python's ``NaN`` spelling for it,
which the matching client parses back; a non-Python client should treat
bare ``NaN`` tokens as null.
"""

from __future__ import annotations

import array
import base64
import binascii
import json
import sys

from repro.db.results import column_values

__all__ = ["PROTOCOL_VERSION", "MAX_LINE_BYTES",
           "ProtocolError", "ServerError", "BackpressureError",
           "encode", "decode", "encode_column", "decode_column",
           "ok_response", "error_response", "error_payload"]

#: Bumped when the wire protocol changes incompatibly; the server speaks
#: only this version.
PROTOCOL_VERSION = 3

#: Binary page columns: NumPy ``(kind, itemsize)`` -> wire ``dtype``, and
#: wire ``dtype`` -> the :mod:`array` typecode that decodes it.
_BINARY_DTYPES = {("i", 8): "i", ("f", 8): "f"}
_TYPECODES = {"i": "q", "f": "d"}

#: Upper bound on one encoded line; a request beyond this is a protocol
#: error (keeps a misbehaving client from ballooning server memory).
MAX_LINE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed wire message: bad JSON, not an object, missing keys."""

    def to_dict(self) -> dict:
        return {"type": "ProtocolError", "message": str(self)}


class ServerError(RuntimeError):
    """Client-side stand-in for a server error with no richer local type."""

    def __init__(self, message: str, payload: dict | None = None) -> None:
        super().__init__(message)
        self.payload = dict(payload or {})


class BackpressureError(RuntimeError):
    """The admission gate is full (or shutting down): query rejected, not run.

    Raised *immediately* on arrival — a full server never hangs new
    queries.  ``queue_depth``/``max_queue`` (callers waiting for a slot, and
    how many may) tell the client how loaded the server was; resubmitting
    after a backoff is the expected reaction.
    """

    def __init__(self, message: str, *, queue_depth: int | None = None,
                 max_queue: int | None = None) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue = max_queue

    def to_dict(self) -> dict:
        return {"type": "BackpressureError", "message": str(self),
                "queue_depth": self.queue_depth, "max_queue": self.max_queue}


def encode(message: dict) -> bytes:
    """One message as a single NDJSON line (UTF-8, newline-terminated)."""
    return (json.dumps(message, separators=(",", ":"),
                       ensure_ascii=False) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one received line into a message object.

    Raises :class:`ProtocolError` for anything but a single JSON object —
    the caller answers with the error payload instead of killing the
    connection.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Replacing the bytes would run a different query than was sent.
            raise ProtocolError(
                f"invalid UTF-8 at byte offset {exc.start}") from None
    text = line.strip()
    if not text:
        raise ProtocolError("empty message")
    try:
        message = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object, got "
                            f"{type(message).__name__}")
    return message


def encode_column(values) -> dict | list:
    """One page column from a NumPy slice: binary for ``int64`` /
    ``float64``, else the list of :func:`repro.db.results.column_values`."""
    dtype = _BINARY_DTYPES.get((values.dtype.kind, values.dtype.itemsize))
    if dtype is None:
        return column_values(values)
    raw = values.astype(f"<{dtype}8", copy=False).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(raw).decode("ascii")}


def decode_column(column) -> list:
    """One received page column as a list of Python values.

    A binary column decodes to ``int`` / ``float`` exactly as ``tolist()``
    gives them on the server; a list column is returned as sent.  Raises
    :class:`ProtocolError` for anything else: an unknown ``dtype``, bad
    base64, or a byte length that is not a multiple of 8.
    """
    if isinstance(column, list):
        return column
    typecode = (_TYPECODES.get(column.get("dtype"))
                if isinstance(column, dict) else None)
    if typecode is None:
        raise ProtocolError(f"page column is neither a list nor a binary "
                            f"column of dtype {sorted(_TYPECODES)}: "
                            f"{column!r:.80}")
    try:
        raw = base64.b64decode(column.get("b64"), validate=True)
    except (TypeError, ValueError, binascii.Error) as exc:
        raise ProtocolError(f"binary page column is not base64: {exc}") \
            from None
    if len(raw) % 8:
        raise ProtocolError(f"binary page column holds {len(raw)} bytes, "
                            "not a multiple of 8")
    values = array.array(typecode, raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist()


def error_payload(exc: BaseException) -> dict:
    """A machine-readable payload for any exception.

    Exceptions exposing ``to_dict()`` (:class:`~repro.query.ast
    .SqlParseError`, :class:`~repro.query.ast.QueryError` and subclasses,
    :class:`BackpressureError`, :class:`ProtocolError`) serialize
    themselves; anything else falls back to type name + message, so the
    wire never carries a bare ``str(exc)`` without its type.
    """
    to_dict = getattr(exc, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return {"type": type(exc).__name__, "message": str(exc)}


def ok_response(request: dict, result: dict) -> dict:
    """The success envelope, echoing the request's ``id`` when present."""
    response: dict = {"ok": True}
    if "id" in request:
        response["id"] = request["id"]
    response["result"] = result
    return response


def error_response(request: dict, exc: BaseException) -> dict:
    """The failure envelope, echoing the request's ``id`` when present."""
    response: dict = {"ok": False}
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    response["error"] = error_payload(exc)
    return response
