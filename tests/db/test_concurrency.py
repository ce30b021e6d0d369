"""Concurrent use of one VisualDatabase: parallel execute() racing ingest and
retention, plus the chunk-boundary cancellation hook the serving layer's
per-query timeouts are built on."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.costs.scenario import CAMERA
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect
from repro.db import executor as executor_module
from repro.db.executor import QueryExecutor
from repro.db.retention import RetentionPolicy
from repro.query.ast import QueryTimeoutError
from repro.telemetry.trace import NO_SPAN
from tests.conftest import TINY_SIZE

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
CONTENT_SQL = "SELECT * FROM cam_a WHERE contains_object(komondor)"


def make_corpus(n_images: int, seed: int):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


@pytest.fixture()
def db(tiny_optimizer, tiny_device):
    database = connect(
        {"cam_a": make_corpus(30, seed=21), "cam_b": make_corpus(20, seed=22)},
        device=tiny_device, scenario=CAMERA, calibrate_target_fps=None,
        default_constraints=CONSTRAINED)
    database.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


class TestConcurrentExecute:
    def test_threads_query_while_ingest_and_retention_run(self, db):
        db.set_retention("cam_a", RetentionPolicy(max_rows=50))
        batch = make_corpus(5, seed=23)
        stop = threading.Event()
        errors = []

        def query_loop(seed: int):
            queries = [CONTENT_SQL + " LIMIT 5",
                       "SELECT count(*) FROM cam_a",
                       "SELECT * FROM all_cameras "
                       "WHERE contains_object(komondor) LIMIT 4",
                       "SELECT avg(timestamp) FROM cam_b GROUP BY location"]
            try:
                for step in range(8):
                    sql = queries[(seed + step) % len(queries)]
                    results = db.execute(sql)
                    assert len(results.fetchall()) == len(results)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        def churn():
            while not stop.is_set():
                db.ingest(batch.images, metadata=batch.metadata,
                          content=batch.content, table="cam_a")
                db.retain("cam_a")
                time.sleep(0.005)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            threads = [threading.Thread(target=query_loop, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            churner.join(timeout=30)
        assert errors == []
        assert len(db.corpus_for("cam_a")) <= 50 + len(batch)

    def test_cold_fanouts_while_ingest_and_retention_run(self, db):
        """Ingest into two shards keeps the fan-outs cold, so they run their
        shards on the pool while the churn thread appends and drops rows."""
        db.attach("cam_c", make_corpus(16, seed=25))
        for table in ("cam_a", "cam_c"):
            db.set_retention(table, RetentionPolicy(max_rows=40))
        expected_b = db.execute("SELECT * FROM cam_b "
                                "WHERE contains_object(komondor)").image_ids
        batch = make_corpus(5, seed=23)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    for table in ("cam_a", "cam_c"):
                        db.ingest(batch.images, metadata=batch.metadata,
                                  content=batch.content, table=table)
                        db.retain(table)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(6):
                merged = db.execute("SELECT * FROM all_cameras "
                                    "WHERE contains_object(komondor)")
                assert all(row["contains_komondor"] == 1 for row in merged)
                np.testing.assert_array_equal(
                    merged.per_table("cam_b").image_ids, expected_b)
        finally:
            stop.set()
            churner.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not churner.is_alive()
        assert errors == []
        for table in ("cam_a", "cam_c"):
            assert len(db.corpus_for(table)) <= 40 + len(batch)

    def test_concurrent_queries_agree_with_serial(self, db):
        expected = [row["image_id"] for row in db.execute(CONTENT_SQL)]
        outcomes = [None] * 4

        def run(slot: int):
            outcomes[slot] = [row["image_id"]
                              for row in db.execute(CONTENT_SQL)]

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == [expected] * 4


class TestCancellation:
    def test_cancel_checked_at_start_and_chunk_boundaries(self, db):
        calls = []
        db.execute(CONTENT_SQL, cancel=lambda: calls.append(1))
        # Once before execution starts, once before each chunk.
        assert len(calls) >= 2

    def test_cancel_raising_at_start_aborts(self, db):
        def cancel():
            raise QueryTimeoutError("deadline passed while queued")

        with pytest.raises(QueryTimeoutError):
            db.execute(CONTENT_SQL, cancel=cancel)

    def test_cancel_aborts_between_chunks(self, db):
        state = {"calls": 0}

        def cancel():
            state["calls"] += 1
            if state["calls"] > 1:
                raise QueryTimeoutError("aborted at a chunk boundary")

        with pytest.raises(QueryTimeoutError):
            db.execute(CONTENT_SQL, cancel=cancel)

    def test_database_usable_after_abort(self, db):
        def cancel():
            raise QueryTimeoutError("boom")

        with pytest.raises(QueryTimeoutError):
            db.execute(CONTENT_SQL, cancel=cancel)
        results = db.execute(CONTENT_SQL)
        assert len(results) == len(db.execute(CONTENT_SQL))

    def test_fanout_cancel_propagates(self, db):
        def cancel():
            raise QueryTimeoutError("boom")

        with pytest.raises(QueryTimeoutError):
            db.execute("SELECT * FROM all_cameras "
                       "WHERE contains_object(komondor)", cancel=cancel)

    def test_cancel_raising_in_first_shard_stops_the_rest(self, db,
                                                          monkeypatch):
        """Cold shards run in parallel, so the contract is: once one shard
        raises, a running shard stops at its next chunk boundary and a
        shard that has not started never starts.  The other shards' hooks
        block until ``cam_a`` has failed, which makes the order fixed: every
        other shard is stopped before it classifies a row, whether it was
        running (``cam_b``) or, on a host with fewer cores than shards,
        still queued (``cam_c``)."""
        db.attach("cam_c", make_corpus(10, seed=24))
        classified = db.metrics.counter("repro_query_rows_classified_total")
        # Several chunks in cam_a; the other shards stop before their first.
        monkeypatch.setattr(executor_module, "MIN_LIMIT_CHUNK", 4)
        shard = threading.local()
        cam_a_failed = threading.Event()
        execute = QueryExecutor.execute

        def tracking_execute(self, plan, cancel=None, span=NO_SPAN):
            shard.table = self.table
            try:
                return execute(self, plan, cancel=cancel, span=span)
            except QueryTimeoutError:
                if self.table == "cam_a":
                    cam_a_failed.set()
                raise

        monkeypatch.setattr(QueryExecutor, "execute", tracking_execute)

        def cancel():
            if shard.table != "cam_a":
                assert cam_a_failed.wait(timeout=30)
            elif classified.value(table="cam_a", category="komondor") >= 12:
                raise QueryTimeoutError("aborted inside the first shard")

        with pytest.raises(QueryTimeoutError,
                           match="aborted inside the first shard"):
            db.execute("SELECT * FROM all_cameras "
                       "WHERE contains_object(komondor)", cancel=cancel)
        assert 0 < classified.value(table="cam_a", category="komondor") \
            < len(db.corpus_for("cam_a"))
        assert classified.value(table="cam_b", category="komondor") == 0
        assert classified.value(table="cam_c", category="komondor") == 0

    def test_cancel_none_unchunked_results_identical(self, db):
        plain = db.execute(CONTENT_SQL)
        chunked = db.execute(CONTENT_SQL, cancel=lambda: None)
        assert [row["image_id"] for row in plain] == \
            [row["image_id"] for row in chunked]


class TestColdOptimizer:
    def test_threads_selecting_together_agree(self, fresh_optimizer,
                                              camera_profiler):
        """The optimizer's frontier memo is unlocked: racing first calls may
        each evaluate, but must all see the same choice."""
        optimizer = fresh_optimizer()
        barrier = threading.Barrier(4)
        chosen, errors = [], []

        def select():
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    evaluation = optimizer.select(camera_profiler, CONSTRAINED)
                    chosen.append((evaluation.name, evaluation.accuracy,
                                   evaluation.cost.total_s))
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=select) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(chosen) == 20 and len(set(chosen)) == 1
