"""Cold fan-outs on the shard pool: the same answer as the shards one after
another, warm fan-outs on the calling thread, plan-ordered EXPLAIN ANALYZE
spans, and a pool whose threads every database reuses."""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selector import UserConstraints
from repro.costs.scenario import CAMERA
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect, database as database_module
from repro.db.executor import QueryExecutor
from repro.telemetry.trace import NO_SPAN
from tests.conftest import TINY_SIZE

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
PREDICATE = "WHERE contains_object(komondor)"
FANOUT_SQL = f"SELECT * FROM all_cameras {PREDICATE}"


def make_db(shards, optimizer, device):
    """One table ``cam_<i>`` per ``(n_images, positive_rate, seed)``."""
    corpora = {
        f"cam_{index}": generate_corpus(
            (get_category("komondor"),), n_images=n_images,
            image_size=TINY_SIZE, rng=np.random.default_rng(seed),
            positive_rate=positive_rate)
        for index, (n_images, positive_rate, seed) in enumerate(shards)}
    database = connect(corpora, device=device, scenario=CAMERA,
                       calibrate_target_fps=None,
                       default_constraints=CONSTRAINED)
    database.register_optimizer("komondor", optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


def materialized(database, table):
    image = database.executor_for(table).capture_image(checkpoint=False)
    return image.materialized


FOUR_SHARDS = [(24, 0.9, 41), (12, 0.2, 42), (18, 0.5, 43), (8, 0.7, 44)]


@pytest.fixture()
def threads_seen(monkeypatch):
    """The threads each ``QueryExecutor.execute`` call ran on, by table."""
    seen: dict[str, list[threading.Thread]] = {}
    execute = QueryExecutor.execute

    def recording(self, plan, cancel=None, span=NO_SPAN):
        seen.setdefault(self.table, []).append(threading.current_thread())
        return execute(self, plan, cancel=cancel, span=span)

    monkeypatch.setattr(QueryExecutor, "execute", recording)
    return seen


@settings(max_examples=12, deadline=None)
@given(shards=st.lists(
    st.tuples(st.integers(4, 24), st.sampled_from([0.1, 0.4, 0.7, 0.95]),
              st.integers(0, 2**16)),
    min_size=2, max_size=5))
def test_cold_fanout_equals_sequential_union_of_shards(shards, tiny_optimizer,
                                                       tiny_device):
    parallel = make_db(shards, tiny_optimizer, tiny_device)
    sequential = make_db(shards, tiny_optimizer, tiny_device)
    with parallel, sequential:
        merged = parallel.execute(FANOUT_SQL)
        per_table = {table: sequential.execute(
            f"SELECT * FROM {table} {PREDICATE}")
            for table in sequential.tables()}

        assert merged.tables == tuple(per_table)
        assert merged.fetchall() == [
            {**row, "__table__": table}
            for table, result in per_table.items()
            for row in result.fetchall()]
        for table, result in per_table.items():
            assert merged.images_classified[table] == result.images_classified
            assert ({category: evaluation.name for category, evaluation
                     in merged.cascades_used[table].items()}
                    == {category: evaluation.name for category, evaluation
                        in result.cascades_used.items()})
            got, want = (materialized(parallel, table),
                         materialized(sequential, table))
            assert got.keys() == want.keys()
            for key, (evaluated, labels) in want.items():
                np.testing.assert_array_equal(got[key][0], evaluated)
                np.testing.assert_array_equal(got[key][1], labels)


class TestShardThreads:
    @pytest.mark.skipif(database_module._CPUS < 2, reason="needs two cores")
    def test_cold_fanouts_reuse_the_pool_threads(self, monkeypatch,
                                                 threads_seen,
                                                 tiny_optimizer, tiny_device):
        # The first two shards wait for each other, so one idle pool thread
        # cannot take every shard of a small fan-out by itself.
        both_running = threading.Barrier(2, timeout=30)
        calls = itertools.count()
        execute = QueryExecutor.execute

        def paired(self, plan, cancel=None, span=NO_SPAN):
            if next(calls) < 2:
                both_running.wait()
            return execute(self, plan, cancel=cancel, span=span)

        monkeypatch.setattr(QueryExecutor, "execute", paired)
        with make_db(FOUR_SHARDS, tiny_optimizer, tiny_device) as database:
            database.execute(FANOUT_SQL)
        first = {thread for calls in threads_seen.values()
                 for thread in calls}
        assert threading.current_thread() not in first
        assert 1 < len(first) <= database_module._CPUS
        assert all(thread.name.startswith("repro-shard") for thread in first)

        threads_seen.clear()
        before = threading.active_count()
        with make_db(FOUR_SHARDS, tiny_optimizer, tiny_device) as database:
            database.execute(FANOUT_SQL)
        second = {thread for calls in threads_seen.values()
                  for thread in calls}
        # Another database's cold fan-out starts no thread.
        assert threading.active_count() == before
        assert all(thread.is_alive() for thread in first | second)
        assert len(first | second) <= database_module._CPUS

    def test_one_usable_cpu_runs_cold_shards_on_the_calling_thread(
            self, monkeypatch, threads_seen, tiny_optimizer, tiny_device):
        monkeypatch.setattr(database_module, "_CPUS", 1)
        with make_db(FOUR_SHARDS, tiny_optimizer, tiny_device) as database:
            cold = database.execute(FANOUT_SQL)
        assert all(count["komondor"] > 0
                   for count in cold.images_classified.values())
        assert threads_seen == {table: [threading.current_thread()]
                                for table in cold.tables}

    def test_warm_fanout_runs_on_the_calling_thread(self, threads_seen,
                                                    tiny_optimizer,
                                                    tiny_device):
        with make_db(FOUR_SHARDS, tiny_optimizer, tiny_device) as database:
            database.execute(FANOUT_SQL)
            threads_seen.clear()
            second = database.execute(FANOUT_SQL)
        assert all(count == {"komondor": 0}
                   for count in second.images_classified.values())
        assert threads_seen == {table: [threading.current_thread()]
                                for table in second.tables}

    def test_one_cold_shard_stays_on_the_calling_thread(self, threads_seen,
                                                        tiny_optimizer,
                                                        tiny_device):
        with make_db(FOUR_SHARDS, tiny_optimizer, tiny_device) as database:
            database.execute("SELECT * FROM cam_0 " + PREDICATE)
            database.execute(FANOUT_SQL, tables=["cam_0", "cam_1"])
            threads_seen.clear()
            database.execute(FANOUT_SQL, tables=["cam_0", "cam_1", "cam_2"])
        assert {thread for calls in threads_seen.values()
                for thread in calls} == {threading.current_thread()}


@pytest.mark.skipif(database_module._CPUS < 2, reason="needs two cores")
def test_explain_analyze_keeps_plan_order(monkeypatch, tiny_optimizer,
                                          tiny_device):
    """The first shard is held until the others have finished, yet its
    ``table:`` span still comes first."""
    others_done = threading.Event()
    finished: list[str] = []
    execute = QueryExecutor.execute

    def first_finishes_last(self, plan, cancel=None, span=NO_SPAN):
        if self.table == "cam_0":
            assert others_done.wait(timeout=30)
        result = execute(self, plan, cancel=cancel, span=span)
        finished.append(self.table)
        if len(finished) == len(FOUR_SHARDS) - 1:
            others_done.set()
        return result

    monkeypatch.setattr(QueryExecutor, "execute", first_finishes_last)
    with make_db(FOUR_SHARDS, tiny_optimizer, tiny_device) as database:
        report = database.explain_analyze(FANOUT_SQL)
    order = [f"cam_{index}" for index in range(len(FOUR_SHARDS))]
    assert finished[-1] == "cam_0"
    assert list(report["plans"]) == order
    shard_spans = [child for child in report["spans"]["children"]
                   if child["name"].startswith("table:")]
    assert [child["name"] for child in shard_spans] == \
        [f"table:{table}" for table in order]
    assert all(child["elapsed_s"] is not None for child in shard_spans)
