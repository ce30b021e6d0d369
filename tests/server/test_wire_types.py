"""Type fidelity over real sockets: remote rows equal local ``fetchall()``.

Two metadata-only tables carry the values a page encoding can get wrong —
``int64`` extremes, NaN, ±inf and -0.0 in ``float64`` (binary columns), and
``float32``, ``bool``, ``uint8``, ``str`` and an object column holding
NumPy scalars (JSON list columns) — and do not share every column, so a
fan-out pads the shard that lacks one with its typed fill.  Every remote row must equal the local row in value *and* in
Python type; ``repr`` tells -0.0 from 0.0, NaN from anything else, and 1
from 1.0 and True.
"""

import base64

import numpy as np
import pytest

from repro.costs.scenario import CAMERA
from repro.data.categories import get_category
from repro.data.corpus import ImageCorpus, generate_corpus
from repro.db import connect as db_connect
from repro.server import AdmissionController, ProtocolError, Session
from repro.server import connect, serve
from repro.server.client import decode_page
from repro.server.protocol import decode_column
from repro.server.session import DEFAULT_FETCH_SIZE
from tests.conftest import TINY_SIZE

INT64 = np.iinfo(np.int64)
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25e300,
                  5e-324]
#: Rows in the wide table: more than one page, so a cursor parks.
WIDE_ROWS = DEFAULT_FETCH_SIZE + 6


def corpus(n: int, seed: int, metadata: dict) -> ImageCorpus:
    images = generate_corpus((get_category("komondor"),), n_images=n,
                             image_size=TINY_SIZE,
                             rng=np.random.default_rng(seed)).images
    return ImageCorpus(np.array(images), metadata=metadata)


def cycle(values, n: int, dtype) -> np.ndarray:
    return np.resize(np.array(values, dtype=dtype), n)


@pytest.fixture(scope="module")
def typed_db(tiny_device):
    n = WIDE_ROWS
    wide = corpus(n, seed=21, metadata={
        "big": cycle([INT64.min, INT64.max, 0, -1, 1], n, np.int64),
        "reading": cycle(SPECIAL_FLOATS, n, np.float64),
        "gain": cycle([np.nan, np.inf, -0.0, 0.1], n, np.float32),
        "flag": cycle([True, False, False], n, bool),
        "level": cycle([0, 7, 255], n, np.uint8),
        "name": cycle(["détroit", "", "a b"], n, str)})
    # Carries only some of wide's columns, plus one of its own.
    narrow = corpus(5, seed=22, metadata={
        "big": np.array([3, INT64.max, INT64.min, 0, 9], dtype=np.int64),
        "name": np.array(["x", "y", "z", "", "ü"]),
        "extra": np.array([0.5, np.nan, -0.0, np.inf, 2.0]),
        "note": np.array([None, 1, "a", np.float32(2.5), np.int64(7)],
                         dtype=object)})
    return db_connect({"wide": wide, "narrow": narrow}, device=tiny_device,
                      scenario=CAMERA, calibrate_target_fps=None)


@pytest.fixture(scope="module")
def typed_server(typed_db):
    with serve(typed_db, port=0, max_workers=2) as running:
        yield running


@pytest.fixture()
def conn(typed_server):
    with connect(*typed_server.address, timeout=30) as connection:
        yield connection


def assert_same_rows(remote: list[dict], local: list[dict]) -> None:
    assert len(remote) == len(local)
    for got, want in zip(remote, local):
        assert list(got) == list(want)
        for key, value in want.items():
            assert type(got[key]) is type(value), (key, got[key], value)
            assert repr(got[key]) == repr(value), (key, got[key], value)


class TestRemoteRowsEqualLocal:
    @pytest.mark.parametrize("sql", [
        "SELECT * FROM wide",
        "SELECT big, reading FROM wide WHERE level = 7",
        "SELECT * FROM narrow",
        # Fan-out: each shard pads the columns only the other one carries
        # (NaN, -1, False, max uint8, "", None).
        "SELECT * FROM all_cameras",
        "SELECT flag, count(*), avg(level) FROM wide GROUP BY flag",
        "SELECT count(*), avg(extra) FROM narrow",
        "SELECT name, count(*) FROM all_cameras GROUP BY name",
    ])
    def test_fetchall_matches_local(self, conn, typed_db, sql):
        with conn.execute(sql) as cursor:
            remote = cursor.fetchall()
        local = typed_db.execute(sql).fetchall()
        assert local, "a vacuous comparison"
        assert_same_rows(remote, local)

    def test_fanout_fills_cross_the_wire(self, conn, typed_db):
        with conn.execute("SELECT * FROM all_cameras") as cursor:
            rows = cursor.fetchall()
        narrow = [row for row in rows if row["__table__"] == "narrow"]
        wide = [row for row in rows if row["__table__"] == "wide"]
        assert {repr(row["reading"]) for row in narrow} == {"nan"}
        assert {repr(row["gain"]) for row in narrow} == {"nan"}
        assert {row["level"] for row in narrow} == {255}
        assert {row["flag"] for row in narrow} == {False}
        assert {repr(row["extra"]) for row in wide} == {"nan"}
        assert {row["note"] for row in wide} == {None}
        assert [row["note"] for row in narrow] == [None, 1, "a", 2.5, 7]

    def test_fetch_of_zero_rows(self, conn, typed_db):
        sql = "SELECT * FROM wide"
        cursor = conn.execute(sql)
        assert cursor.cursor_id is not None
        page = conn.fetch(cursor.cursor_id, n=0)
        assert page["columns"] == cursor.columns
        assert len(page["values"]) == len(cursor.columns)
        assert decode_page(page) == []
        assert page["remaining"] == WIDE_ROWS - DEFAULT_FETCH_SIZE
        # The empty fetch moved nothing: the rest still matches.
        assert_same_rows(cursor.fetchall(),
                         typed_db.execute(sql).fetchall())


class TestPageEncoding:
    def test_only_int64_and_float64_travel_as_bytes(self, typed_db):
        session = Session(typed_db, AdmissionController())
        page = session.handle({"cmd": "execute",
                               "sql": "SELECT * FROM wide LIMIT 3"})
        kinds = {name: (values["dtype"] if isinstance(values, dict)
                        else "list")
                 for name, values in zip(page["columns"], page["values"])}
        assert kinds == {"image_id": "i", "big": "i", "reading": "f",
                         "gain": "list", "flag": "list", "level": "list",
                         "name": "list"}

    def test_empty_page_sends_one_empty_column_per_name(self, typed_db):
        session = Session(typed_db, AdmissionController())
        page = session.handle({"cmd": "execute",
                               "sql": "SELECT big, name FROM wide LIMIT 0"})
        assert page["values"] == [{"dtype": "i", "b64": ""}, []]
        assert decode_page(page) == []


class TestBadPages:
    @pytest.mark.parametrize("column", [
        {"dtype": "i", "b64": "not base64!"},
        {"dtype": "f", "b64": "AAAA="},            # 3 bytes
        {"dtype": "f", "b64": "é"},                # not ASCII
        {"dtype": "i"},                            # no bytes at all
        {"dtype": "u", "b64": ""},                 # unknown dtype
        {"dtype": None, "b64": ""},
        {"b64": ""},
        {"dtype": "i", "b64": "AAAAAAAAAA=="},     # 7 bytes
        {"dtype": "f", "b64": "AAAAAAAAAAAAAA=="},  # 10 bytes
        7,
        "abc",
    ])
    def test_undecodable_column_raises(self, column):
        with pytest.raises(ProtocolError):
            decode_page({"columns": ["x"], "values": [column],
                         "remaining": 0})

    def test_columns_and_values_must_agree(self):
        with pytest.raises(ProtocolError, match="2 columns of values"):
            decode_page({"columns": ["x"], "values": [[1], [2]]})
        with pytest.raises(ProtocolError, match="differ in length"):
            decode_page({"columns": ["x", "y"],
                         "values": [[1, 2], {"dtype": "i", "b64": ""}]})

    def test_good_binary_column_decodes(self):
        raw = np.array([INT64.min, INT64.max], dtype="<i8").tobytes()
        values = decode_column({"dtype": "i",
                                "b64": base64.b64encode(raw).decode()})
        assert values == [INT64.min, INT64.max]
        assert all(type(value) is int for value in values)
