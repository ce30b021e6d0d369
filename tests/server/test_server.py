"""End-to-end tests for the network serving layer, over real sockets.

One server (module scope — training is shared) serves a two-camera catalog
with a trained ``komondor`` predicate; each test opens its own client
connection(s).  Dedicated single-slot servers exercise backpressure and
shutdown without perturbing the shared one.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.costs.scenario import CAMERA
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect as db_connect
from repro.db.retention import RetentionPolicy
from repro.query.ast import QueryError, QueryTimeoutError, SqlParseError
from repro.server import (AdmissionController, BackpressureError,
                          ProtocolError, ServerError, Session, connect, serve)
from repro.server.session import DEFAULT_FETCH_SIZE
from tests.conftest import TINY_SIZE

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
CONTENT_SQL = ("SELECT * FROM cam_a WHERE contains_object(komondor) "
               "LIMIT 5")


def make_corpus(n_images: int, seed: int):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture(scope="module")
def db(tiny_optimizer, tiny_device):
    database = db_connect(
        {"cam_a": make_corpus(30, seed=9), "cam_b": make_corpus(24, seed=10)},
        device=tiny_device, scenario=CAMERA, calibrate_target_fps=None,
        default_constraints=CONSTRAINED)
    database.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


@pytest.fixture(scope="module")
def server(db):
    with serve(db, port=0, max_workers=2, max_queue=8) as running:
        yield running


@pytest.fixture(scope="module")
def paged_db(tiny_device):
    """One metadata-only table longer than two pages."""
    return db_connect({"cam_wide": make_corpus(150, seed=11)},
                      device=tiny_device, scenario=CAMERA,
                      calibrate_target_fps=None)


@pytest.fixture(scope="module")
def paged_server(paged_db):
    with serve(paged_db, port=0, max_workers=2) as running:
        yield running


@pytest.fixture()
def conn(server):
    with connect(*server.address, timeout=30) as connection:
        yield connection


class TestBasics:
    def test_ping_and_tables(self, conn):
        assert conn.ping() is True
        assert conn.tables() == ["cam_a", "cam_b"]

    def test_content_query_over_the_wire(self, conn, db):
        cursor = conn.execute(CONTENT_SQL)
        rows = cursor.fetchall()
        assert 0 < len(rows) <= 5
        assert all(row["contains_komondor"] for row in rows)
        local = db.execute(CONTENT_SQL)
        assert [row["image_id"] for row in rows] == \
            [row["image_id"] for row in local]

    def test_aggregate_query(self, conn, db):
        cursor = conn.execute("SELECT count(*) FROM cam_a")
        rows = cursor.fetchall()
        assert rows == [{"count(*)": len(db.corpus_for('cam_a'))}]

    def test_fanout_carries_provenance(self, conn):
        cursor = conn.execute("SELECT * FROM all_cameras "
                              "WHERE contains_object(komondor) LIMIT 6")
        tables = {row["__table__"] for row in cursor}
        assert tables <= {"cam_a", "cam_b"} and tables

    def test_tables_restriction(self, conn, db):
        cursor = conn.execute("SELECT count(*) FROM all_cameras",
                              tables=["cam_b"])
        assert cursor.fetchall() == [
            {"count(*)": len(db.corpus_for("cam_b"))}]

    def test_constraints_forwarded(self, conn):
        cursor = conn.execute(CONTENT_SQL,
                              constraints={"max_accuracy_loss": 0.3})
        assert cursor.rowcount >= 0

    def test_explain_returns_serialized_plans(self, conn):
        plan = conn.explain(CONTENT_SQL)["plan"]
        assert plan["table"] == "cam_a"
        assert plan["limit"] == 5
        assert plan["content_steps"][0]["category"] == "komondor"
        json.dumps(plan)  # fully JSON-serializable
        plans = conn.explain("SELECT count(*) FROM all_cameras")["plans"]
        assert set(plans) == {"cam_a", "cam_b"}

    def test_stats_shape(self, conn):
        stats = conn.stats()
        assert stats["scenario"] == "camera"
        assert stats["tables"] == ["cam_a", "cam_b"]
        assert stats["predicates"] == ["komondor"]
        assert stats["sessions"] >= 1
        assert {"completed", "failed", "timeouts",
                "rejected"} <= set(stats["queries"])
        assert stats["admission"]["max_workers"] == 2


class TestThreadNames:
    """Every long-lived thread carries a descriptive name, so thread dumps
    of a wedged server read as a story instead of ``Thread-7``."""

    def test_server_threads_are_named(self, db, monkeypatch):
        # Connection threads of earlier tests exit on their own schedule;
        # let them, so the count below only sees this server.
        wait_until(lambda: not any(
            thread.name.startswith("repro-server-conn-")
            for thread in threading.enumerate()))
        before = threading.active_count()
        with serve(db, port=0, max_workers=7) as dedicated:
            # The acceptor is the only thread a server starts by itself.
            assert threading.active_count() == before + 1
            port = dedicated.address[1]
            seen = set()
            monkeypatch.setattr(
                dedicated.admission, "cancel_for",
                lambda timeout: lambda: seen.add(
                    threading.current_thread().name))
            with connect(*dedicated.address, timeout=30) as connection:
                connection.execute(CONTENT_SQL).fetchall()
                names = [thread.name for thread in threading.enumerate()]
        assert f"repro-server-{port}" in names
        assert not any(name.startswith("repro-server-worker-")
                       for name in names)
        # The query ran on the thread that read it off the socket.
        assert seen == {f"repro-server-conn-{port}-1"}

    def test_fanout_runs_on_the_calling_thread(self, db):
        seen = set()
        results = db.execute(
            "SELECT count(*) FROM all_cameras",
            cancel=lambda: seen.add(threading.current_thread()))
        assert len(results) >= 1
        assert seen == {threading.current_thread()}


class TestCursorPaging:
    SQL = "SELECT image_id FROM cam_a"

    def test_pages_without_rerunning(self, conn, server):
        completed_before = server.counters.snapshot()["completed"]
        cursor = conn.execute(self.SQL)
        total = cursor.rowcount
        seen = []
        while True:
            page = cursor.fetchmany(7)
            if not page:
                break
            assert len(page) <= 7
            seen.extend(row["image_id"] for row in page)
        assert len(seen) == total == len(set(seen))
        # Paging fetched from the parked result set: one query executed.
        assert server.counters.snapshot()["completed"] == completed_before + 1

    def test_remaining_counts_down(self, conn):
        cursor = conn.execute(self.SQL)
        before = cursor.remaining
        cursor.fetchmany(4)
        assert cursor.remaining == before - 4

    def test_fetchone_and_exhaustion(self, conn):
        cursor = conn.execute(self.SQL + " LIMIT 2")
        assert cursor.fetchone() is not None
        assert cursor.fetchone() is not None
        assert cursor.fetchone() is None
        assert cursor.fetchmany(10) == []

    def test_close_cursor_frees_slot(self, conn):
        cursor = conn.execute(self.SQL)
        cursor.close()
        with pytest.raises(ProtocolError):
            conn.fetch(cursor.cursor_id)

    def test_multiple_cursors_independent(self, conn):
        a = conn.execute(self.SQL + " LIMIT 3")
        b = conn.execute("SELECT location FROM cam_b LIMIT 2")
        assert len(a.fetchall()) == 3
        assert len(b.fetchall()) == 2


def count_requests(monkeypatch, connection) -> list[str]:
    """Record the command of every request ``connection`` sends."""
    sent: list[str] = []
    real = connection._call

    def counting(cmd, **params):
        sent.append(cmd)
        return real(cmd, **params)

    monkeypatch.setattr(connection, "_call", counting)
    return sent


class TestColumnarWire:
    """Pages travel as columns, the first rides on ``execute``, and a
    drained cursor frees its slot."""

    @pytest.fixture()
    def wide(self, paged_server):
        with connect(*paged_server.address, timeout=30) as connection:
            yield connection

    @pytest.mark.parametrize("n", [0, 1, DEFAULT_FETCH_SIZE,
                                   DEFAULT_FETCH_SIZE + 1, 150])
    def test_fetchall_matches_local_rows_and_types(self, wide, paged_db,
                                                   monkeypatch, n):
        sql = f"SELECT * FROM cam_wide LIMIT {n}"
        sent = count_requests(monkeypatch, wide)
        with wide.execute(sql) as cursor:
            remote = cursor.fetchall()
        local = paged_db.execute(sql).fetchall()
        assert len(remote) == n
        assert remote == local
        assert [{key: type(value) for key, value in row.items()}
                for row in remote] == \
            [{key: type(value) for key, value in row.items()}
             for row in local]
        # One round trip while the result fits in the first page, one
        # fetch for the rest otherwise; closing a drained cursor sends
        # nothing.
        expected = (["execute"] if n <= DEFAULT_FETCH_SIZE
                    else ["execute", "fetch"])
        assert sent == expected
        assert wide.stats()["open_cursors"] == 0

    def test_closing_an_undrained_cursor_frees_its_slot(self, wide,
                                                        monkeypatch):
        cursor = wide.execute(
            f"SELECT * FROM cam_wide LIMIT {DEFAULT_FETCH_SIZE + 1}")
        assert len(cursor.fetchmany(DEFAULT_FETCH_SIZE)) == \
            DEFAULT_FETCH_SIZE
        assert cursor.remaining == 1
        assert wide.stats()["open_cursors"] == 1
        sent = count_requests(monkeypatch, wide)
        cursor.close()
        cursor.close()
        assert sent == ["close_cursor"]
        assert wide.stats()["open_cursors"] == 0

    def test_fetchmany_zero_and_negative_stay_local(self, wide, monkeypatch):
        cursor = wide.execute("SELECT image_id FROM cam_wide")
        cursor.fetchmany(DEFAULT_FETCH_SIZE)  # the inline page: local
        sent = count_requests(monkeypatch, wide)
        assert cursor.fetchmany(0) == []
        with pytest.raises(ValueError):
            cursor.fetchmany(-1)
        assert sent == []
        assert cursor.remaining == 150 - DEFAULT_FETCH_SIZE
        assert [row["image_id"] for row in cursor.fetchmany(2)] == \
            [DEFAULT_FETCH_SIZE, DEFAULT_FETCH_SIZE + 1]
        assert sent == ["fetch"]
        cursor.close()

    def test_pages_across_the_inline_boundary(self, wide):
        cursor = wide.execute("SELECT image_id FROM cam_wide")
        seen = []
        while True:
            page = cursor.fetchmany(27)
            if not page:
                break
            seen.extend(row["image_id"] for row in page)
        assert seen == list(range(150))
        assert wide.stats()["open_cursors"] == 0

    def test_session_frees_a_drained_cursor(self, paged_db):
        session = Session(paged_db, AdmissionController())
        result = session.handle({"cmd": "execute",
                                 "sql": "SELECT image_id FROM cam_wide"})
        assert result["values"] == [tuple(range(DEFAULT_FETCH_SIZE))]
        assert session.open_cursors == [result["cursor"]]
        page = session.handle({"cmd": "fetch", "cursor": result["cursor"],
                               "n": 1000})
        assert page == {"columns": ["image_id"],
                        "values": [tuple(range(DEFAULT_FETCH_SIZE, 150))],
                        "remaining": 0}
        assert session.open_cursors == []


class TestBrokenConnection:
    """A connection whose stream cannot be trusted closes itself."""

    def test_receive_timeout_closes_the_connection(self, paged_db,
                                                   monkeypatch):
        def slow_ping(session, request):
            time.sleep(0.5)
            return {"pong": True}

        monkeypatch.setitem(Session._COMMANDS, "ping", slow_ping)
        with serve(paged_db, port=0) as dedicated:
            connection = connect(*dedicated.address, timeout=0.1)
            with pytest.raises(TimeoutError):
                connection.ping()
            assert connection.closed
            with pytest.raises(RuntimeError, match="connection is closed"):
                connection.tables()
            connection.close()  # still idempotent

    def test_mismatched_response_id_closes_the_connection(self, paged_db,
                                                          monkeypatch):
        import repro.server.server as server_module

        monkeypatch.setattr(
            server_module, "ok_response",
            lambda request, result: {"ok": True, "id": "someone-else",
                                     "result": result})
        with serve(paged_db, port=0) as dedicated:
            connection = connect(*dedicated.address, timeout=30)
            with pytest.raises(ProtocolError, match="does not answer"):
                connection.ping()
            assert connection.closed
            with pytest.raises(RuntimeError, match="connection is closed"):
                connection.ping()


class TestErrorsKeepSessionAlive:
    def test_parse_error_with_location(self, conn):
        with pytest.raises(SqlParseError) as info:
            conn.execute("SELEKT nope")
        assert info.value.offset == 0
        assert conn.ping() is True

    def test_query_error(self, conn):
        with pytest.raises(QueryError):
            conn.execute("SELECT no_such_column FROM cam_a")
        assert conn.ping() is True

    def test_unknown_cursor(self, conn):
        with pytest.raises(ProtocolError):
            conn.fetch(99999)
        assert conn.ping() is True

    def test_unmapped_error_becomes_server_error(self, server):
        # TypeError has no local counterpart: generic ServerError.
        with connect(*server.address, timeout=30) as c:
            with pytest.raises(ServerError) as info:
                c._call("execute", sql="SELECT * FROM cam_a",
                        constraints={"max_accuracy_loss": "high"})
            assert info.value.payload["type"] == "TypeError"
            assert c.ping() is True


class TestRawProtocol:
    """Straight sockets: envelope/id echo and malformed-line handling."""

    def request(self, sock_file, payload: bytes) -> dict:
        sock_file.write(payload)
        sock_file.flush()
        return json.loads(sock_file.readline())

    def test_id_echo_and_bad_json(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            f = sock.makefile("rwb")
            response = self.request(
                f, b'{"cmd": "ping", "id": "req-1"}\n')
            assert response == {"ok": True, "id": "req-1",
                                "result": {"pong": True}}
            response = self.request(f, b"this is not json\n")
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            response = self.request(f, b'{"cmd": "warp", "id": 2}\n')
            assert response["id"] == 2
            assert "unknown command" in response["error"]["message"]
            # The session survived all of it.
            assert self.request(f, b'{"cmd": "ping"}\n')["ok"] is True

    def test_close_cursor_with_unhashable_id(self, paged_server):
        with socket.create_connection(paged_server.address,
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            # Longer than the first page, so a cursor is parked.
            response = self.request(
                f, b'{"cmd": "execute", '
                b'"sql": "SELECT image_id FROM cam_wide"}\n')
            cursor = response["result"]["cursor"]
            response = self.request(
                f, b'{"cmd": "close_cursor", "cursor": [1]}\n')
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            response = self.request(
                f, b'{"cmd": "close_cursor", "cursor": 99999}\n')
            assert response["result"] == {"closed": False}
            # The session and its open cursor survived both.
            response = self.request(
                f, b'{"cmd": "fetch", "cursor": %d, "n": 1}\n' % cursor)
            assert response["result"]["values"] == [[DEFAULT_FETCH_SIZE]]

    def test_quit_closes_connection(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            f = sock.makefile("rwb")
            response = self.request(f, b'{"cmd": "quit"}\n')
            assert response["result"] == {"bye": True}
            assert f.readline() == b""  # server hung up


class TestSessionValidation:
    """Request validation at :class:`Session` level (no socket)."""

    def test_cursor_ids_validated_once_for_fetch_and_close(self, paged_db):
        session = Session(paged_db, AdmissionController())
        # Longer than the first page, so a cursor is parked.
        cursor = session.handle(
            {"cmd": "execute",
             "sql": "SELECT image_id FROM cam_wide"})["cursor"]
        for bad in ([1], {"id": 1}, "1", 1.5, True, None):
            for cmd in ("fetch", "close_cursor"):
                with pytest.raises(ProtocolError):
                    session.handle({"cmd": cmd, "cursor": bad})
        assert session.handle(
            {"cmd": "close_cursor", "cursor": 99999}) == {"closed": False}
        assert session.open_cursors == [cursor]
        assert session.handle(
            {"cmd": "close_cursor", "cursor": cursor}) == {"closed": True}

    def test_null_timeout_falls_back_to_default(self, db):
        session = Session(db, AdmissionController(), default_timeout=1e-6)
        with pytest.raises(QueryTimeoutError):
            session.handle(
                {"cmd": "execute", "sql": CONTENT_SQL, "timeout": None})


class TestPlanCacheOverTheWire:
    def test_repeated_shape_served_from_cache(self, conn, db):
        sql = "SELECT image_id FROM cam_b WHERE location = 'detroit'"
        rebound = "SELECT image_id FROM cam_b WHERE location = 'seattle'"
        before = db.plan_cache.stats()
        conn.execute(sql)
        conn.execute(sql)        # exact repeat: hit
        conn.execute(rebound)    # same shape, new literal: rebind
        after = conn.stats()["plan_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["rebinds"] == before["rebinds"] + 1
        assert after["hit_rate"] > 0


class TestTimeouts:
    def test_timeout_aborts_and_session_survives(self, conn, server):
        timeouts_before = server.counters.snapshot()["timeouts"]
        with pytest.raises(QueryTimeoutError):
            conn.execute(CONTENT_SQL, timeout=1e-6)
        assert server.counters.snapshot()["timeouts"] == timeouts_before + 1
        # Same session, same query, no timeout: runs fine.
        assert conn.execute(CONTENT_SQL).rowcount >= 0

    def test_cold_fanout_timeout_frees_its_slot(self, tiny_optimizer,
                                                tiny_device):
        """A fresh catalog's fan-out is cold, so its shards run on the shard
        pool; a timeout stops them all, releases the admission slot and
        leaves the session usable."""
        cold = db_connect(
            {"cam_a": make_corpus(30, seed=12),
             "cam_b": make_corpus(24, seed=13)},
            device=tiny_device, scenario=CAMERA, calibrate_target_fps=None,
            default_constraints=CONSTRAINED)
        cold.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
        fanout = "SELECT * FROM all_cameras WHERE contains_object(komondor)"
        with cold, serve(cold, port=0, max_workers=1) as dedicated, \
                connect(*dedicated.address, timeout=30) as connection:
            with pytest.raises(QueryTimeoutError):
                connection.execute(fanout, timeout=1e-6)
            assert wait_until(lambda: connection.stats()["admission"][
                "in_flight"] == 0)
            rows = connection.execute(fanout).fetchall()
            assert len(rows) == len(cold.execute(fanout)) > 0

    def test_invalid_timeout_rejected(self, conn):
        with pytest.raises(ProtocolError):
            conn.execute(CONTENT_SQL, timeout=-1)


class TestBackpressure:
    def test_full_queue_rejects_immediately_e2e(self, db):
        with serve(db, port=0, max_workers=1, max_queue=1) as small:
            executor = db.executor_for("cam_a")
            results = {}

            def run(name, connection):
                try:
                    results[name] = connection.execute(
                        "SELECT count(*) FROM cam_a").fetchall()
                except Exception as exc:  # noqa: BLE001 - recorded
                    results[name] = exc

            with connect(*small.address, timeout=30) as c1, \
                    connect(*small.address, timeout=30) as c2, \
                    connect(*small.address, timeout=30) as c3:
                with executor._lock:  # the query blocks inside execute
                    t1 = threading.Thread(target=run, args=("first", c1))
                    t1.start()
                    assert wait_until(
                        lambda: small.admission.stats()["in_flight"] == 1)
                    t2 = threading.Thread(target=run, args=("queued", c2))
                    t2.start()
                    assert wait_until(
                        lambda: small.admission.stats()["queue_depth"] == 1)
                    started = time.monotonic()
                    with pytest.raises(BackpressureError) as info:
                        c3.execute("SELECT count(*) FROM cam_a")
                    assert time.monotonic() - started < 2.0
                    assert info.value.max_queue == 1
                    # The rejected connection stays usable immediately.
                    assert c3.ping() is True
                t1.join(timeout=10)
                t2.join(timeout=10)
            expected = [{"count(*)": len(db.corpus_for("cam_a"))}]
            assert results["first"] == expected
            assert results["queued"] == expected
            assert small.counters.snapshot()["rejected"] == 1

    def test_disconnect_mid_query_frees_slot_and_session(self, db):
        sql = "SELECT count(*) FROM cam_a"
        with serve(db, port=0, max_workers=1, max_queue=1) as small:
            sessions = small.stats()["sessions"]
            with db.executor_for("cam_a")._lock:
                sock = socket.create_connection(small.address, timeout=30)
                sock.sendall(json.dumps({"cmd": "execute",
                                         "sql": sql}).encode() + b"\n")
                assert wait_until(
                    lambda: small.admission.stats()["in_flight"] == 1)
                assert small.stats()["sessions"] == sessions + 1
                sock.close()  # gone before the answer exists
            assert wait_until(
                lambda: small.admission.stats()["in_flight"] == 0)
            assert wait_until(lambda: small.stats()["sessions"] == sessions)
            # The one slot is free again: the next client's query runs.
            with connect(*small.address, timeout=30) as c:
                assert c.execute(sql).fetchall() == [
                    {"count(*)": len(db.corpus_for("cam_a"))}]


class TestShutdown:
    def test_close_refuses_new_connections(self, db):
        dedicated = serve(db, port=0)
        address = dedicated.address
        with connect(*address, timeout=30) as c:
            assert c.ping() is True
        dedicated.close()
        with pytest.raises(OSError):
            connect(*address, timeout=1)

    def test_close_drains_in_flight_queries(self, db):
        dedicated = serve(db, port=0, max_workers=1)
        executor = db.executor_for("cam_b")
        result = {}

        def run(connection):
            result["rows"] = connection.execute(
                "SELECT count(*) FROM cam_b").fetchall()
            connection.close()

        connection = connect(*dedicated.address, timeout=30)
        with executor._lock:
            worker = threading.Thread(target=run, args=(connection,))
            worker.start()
            assert wait_until(
                lambda: dedicated.admission.stats()["in_flight"] == 1)
            closer = threading.Thread(target=dedicated.close)
            closer.start()
            # close() is draining: it cannot finish while we hold the lock.
            time.sleep(0.05)
            assert closer.is_alive()
        closer.join(timeout=10)
        worker.join(timeout=10)
        assert not closer.is_alive()
        assert result["rows"] == [{"count(*)": 24}]

    def test_close_idempotent(self, db):
        dedicated = serve(db, port=0)
        dedicated.close()
        dedicated.close()


class TestConcurrentClients:
    def test_many_clients_against_streaming_ingest(self, server, db):
        """N concurrent sessions querying while ingest + retention run."""
        batch = make_corpus(6, seed=42)
        db.set_retention("cam_a", RetentionPolicy(max_rows=60))
        stop = threading.Event()
        errors = []

        def client(seed: int):
            queries = [CONTENT_SQL,
                       "SELECT count(*) FROM cam_a",
                       "SELECT * FROM all_cameras "
                       "WHERE contains_object(komondor) LIMIT 4",
                       "SELECT image_id, location FROM cam_b "
                       "WHERE location = 'detroit'"]
            try:
                with connect(*server.address, timeout=60) as connection:
                    for step in range(8):
                        sql = queries[(seed + step) % len(queries)]
                        cursor = connection.execute(sql)
                        rows = cursor.fetchall()
                        assert len(rows) == cursor.rowcount
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        def churn():
            while not stop.is_set():
                db.ingest(batch.images, metadata=batch.metadata,
                          content=batch.content, table="cam_a")
                db.retain("cam_a")
                time.sleep(0.01)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            churner.join(timeout=30)
            db.set_retention("cam_a", None)
        assert errors == []
        # Retention actually ran: cam_a stayed inside its window.
        assert len(db.corpus_for("cam_a")) <= 60 + len(batch)
