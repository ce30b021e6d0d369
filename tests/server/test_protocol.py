"""Wire-protocol framing: encode/decode, envelopes, error payloads."""

import json

import pytest

from repro.query.ast import QueryError, QueryTimeoutError, SqlParseError
from repro.server.protocol import (MAX_LINE_BYTES, BackpressureError,
                                   ProtocolError, decode, encode,
                                   error_payload, error_response, ok_response)


class TestFraming:
    def test_encode_is_one_terminated_line(self):
        line = encode({"cmd": "ping"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert json.loads(line) == {"cmd": "ping"}

    def test_roundtrip(self):
        message = {"cmd": "execute", "sql": "SELECT * FROM images",
                   "id": 7, "timeout": 1.5}
        assert decode(encode(message)) == message

    def test_unicode_survives(self):
        message = {"sql": "SELECT * FROM images WHERE location = 'détroit'"}
        assert decode(encode(message)) == message

    def test_decode_accepts_str(self):
        assert decode('{"cmd": "ping"}') == {"cmd": "ping"}

    @pytest.mark.parametrize("bad", [b"", b"   \n", b"not json\n",
                                     b"[1, 2]\n", b'"string"\n'])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode(bad)

    def test_invalid_utf8_rejected_with_its_offset(self):
        # Decoding with replacement would run a different query.
        line = b'{"sql": "SELECT * FROM images WHERE location = \'\xff\'"}\n'
        with pytest.raises(ProtocolError, match=(
                f"invalid UTF-8 at byte offset {line.index(0xff)}$")):
            decode(line)

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode(b"x" * (MAX_LINE_BYTES + 1))


class TestEnvelopes:
    def test_ok_echoes_id(self):
        response = ok_response({"cmd": "ping", "id": "abc"}, {"pong": True})
        assert response == {"ok": True, "id": "abc", "result": {"pong": True}}

    def test_ok_without_id(self):
        assert "id" not in ok_response({"cmd": "ping"}, {})

    def test_error_echoes_id(self):
        response = error_response({"id": 3}, QueryError("boom"))
        assert response["ok"] is False
        assert response["id"] == 3
        assert response["error"]["type"] == "QueryError"


class TestErrorPayloads:
    def test_parse_error_carries_location(self):
        exc = SqlParseError("unexpected token", offset=7, token="nope")
        payload = error_payload(exc)
        assert payload == {"type": "SqlParseError",
                           "message": "unexpected token",
                           "token": "nope", "offset": 7}
        rebuilt = SqlParseError(payload["message"], offset=payload["offset"],
                                token=payload["token"])
        assert str(rebuilt) == str(exc)

    def test_query_error_uses_concrete_type(self):
        payload = error_payload(QueryTimeoutError("too slow"))
        assert payload == {"type": "QueryTimeoutError", "message": "too slow"}

    def test_backpressure_carries_queue_state(self):
        payload = error_payload(BackpressureError("full", queue_depth=4,
                                                  max_queue=4))
        assert payload["type"] == "BackpressureError"
        assert payload["queue_depth"] == payload["max_queue"] == 4

    def test_generic_fallback(self):
        payload = error_payload(RuntimeError("oops"))
        assert payload == {"type": "RuntimeError", "message": "oops"}
