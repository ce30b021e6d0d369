"""Tests for retention windows: bounded streaming state with stable ids.

Covers the RetentionPolicy model, coherent drop_oldest across corpus /
executor / store, enforcement at ingest and via db.retain(), the soak
acceptance criterion (ingest >> window, results match an unbounded reference
restricted to the surviving rows), persistence of policy + id offset, and
fan-out queries racing an ingest + retention pass.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import ImageCorpus, generate_corpus
from repro.db import RetentionPolicy, VisualDatabase, connect
from repro.db.executor import QueryExecutor
from repro.db.planner import QueryPlanner
from repro.query.predicates import ContainsObject
from repro.query.model import Query
from repro.storage.store import RepresentationStore
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE
from tests.where import conjunction

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
SQL = "SELECT * FROM images WHERE contains_object(komondor)"


def make_corpus(n_images: int, seed: int, positive_rate: float = 0.9):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed),
                           positive_rate=positive_rate)


def timed_corpus(timestamps):
    """A corpus whose 'timestamp' column is exactly ``timestamps``."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    n = timestamps.size
    return ImageCorpus(
        images=np.zeros((n, TINY_SIZE, TINY_SIZE, 3)),
        metadata={"timestamp": timestamps,
                  "location": np.array(["detroit"] * n)})


@pytest.fixture()
def planner(tiny_optimizer, camera_profiler):
    return QueryPlanner({"komondor": tiny_optimizer}, camera_profiler)


def content_plan(planner, **kwargs):
    return planner.plan(Query(where=conjunction(ContainsObject("komondor")),
                              constraints=CONSTRAINED, **kwargs))


class TestRetentionPolicy:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="max_rows, max_age"):
            RetentionPolicy()

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError, match="max_rows"):
            RetentionPolicy(max_rows=0)
        with pytest.raises(ValueError, match="max_age"):
            RetentionPolicy(max_age=0.0)
        with pytest.raises(ValueError, match="max_age"):
            RetentionPolicy(max_age=-5.0)

    def test_max_rows_drop_count(self):
        corpus = timed_corpus(np.arange(10.0))
        assert RetentionPolicy(max_rows=4).rows_to_drop(corpus) == 6
        assert RetentionPolicy(max_rows=10).rows_to_drop(corpus) == 0
        assert RetentionPolicy(max_rows=50).rows_to_drop(corpus) == 0

    def test_max_age_is_anchored_to_newest_timestamp(self):
        corpus = timed_corpus([0.0, 10.0, 95.0, 99.0, 100.0])
        # Cutoff is 100 - 30 = 70: the two stale rows at the front go.
        assert RetentionPolicy(max_age=30.0).rows_to_drop(corpus) == 2
        # Even a tiny window keeps the newest row: a stalled feed never
        # empties the table.
        assert RetentionPolicy(max_age=0.5).rows_to_drop(corpus) == 4

    def test_both_bounds_take_the_stricter(self):
        corpus = timed_corpus([0.0, 1.0, 2.0, 98.0, 99.0, 100.0])
        policy = RetentionPolicy(max_rows=5, max_age=10.0,
                                 timestamp_column="timestamp")
        assert policy.rows_to_drop(corpus) == 3  # age drops more than rows

    def test_missing_timestamp_column_is_reported(self):
        corpus = timed_corpus([0.0, 1.0])
        policy = RetentionPolicy(max_age=1.0, timestamp_column="recorded_at")
        with pytest.raises(KeyError, match="recorded_at"):
            policy.rows_to_drop(corpus)

    def test_dict_round_trip(self):
        policy = RetentionPolicy(max_rows=7, max_age=3.5,
                                 timestamp_column="ts")
        assert RetentionPolicy.from_dict(policy.to_dict()) == policy


class TestCorpusDropOldest:
    def test_drops_front_rows_everywhere(self):
        corpus = make_corpus(10, seed=1)
        kept_images = corpus.images[3:].copy()
        kept_location = corpus.metadata["location"][3:].copy()
        kept_content = corpus.content["komondor"][3:].copy()
        assert corpus.drop_oldest(3) == 3
        assert len(corpus) == 7
        np.testing.assert_array_equal(corpus.images, kept_images)
        np.testing.assert_array_equal(corpus.metadata["location"],
                                      kept_location)
        np.testing.assert_array_equal(corpus.content["komondor"], kept_content)

    def test_dropped_rows_are_released_at_the_next_reallocation(self):
        # A drop only moves the window's start; the dropped rows' bytes go
        # when a fold next reallocates, at twice the rows it then holds.
        corpus = make_corpus(6, seed=2)
        first = weakref.ref(corpus.images.base)
        kept = corpus.images[2:].copy()
        assert corpus.drop_oldest(2) == 2
        assert corpus.images.base is first()  # nothing copied
        batch = make_corpus(3, seed=4)
        corpus.append(batch.images, batch.metadata, batch.content)
        images = corpus.images  # the batch does not fit: reallocate
        gc.collect()
        assert first() is None
        assert images.base.shape[0] == 2 * len(corpus) == 14
        np.testing.assert_array_equal(images[:4], kept)
        np.testing.assert_array_equal(images[4:], batch.images)

    def test_clamps_and_validates(self):
        corpus = make_corpus(4, seed=3)
        assert corpus.drop_oldest(0) == 0
        assert corpus.drop_oldest(100) == 4
        assert len(corpus) == 0
        with pytest.raises(ValueError):
            corpus.drop_oldest(-1)


class TestStoreTrim:
    def test_trims_arrays_and_credits_budget(self):
        gray = TransformSpec(8, "gray")
        store = RepresentationStore().scoped("cam")
        store.add(gray, gray.apply_batch(np.zeros((10, TINY_SIZE,
                                                   TINY_SIZE, 3))))
        before = store.bytes_stored()
        store.drop_oldest_rows(4)
        assert store.rows(gray) == 6
        assert store.bytes_stored() == before * 6 // 10

    def test_short_arrays_become_empty_not_negative(self):
        gray = TransformSpec(8, "gray")
        store = RepresentationStore().scoped("cam")
        store.add(gray, gray.apply_batch(np.zeros((3, TINY_SIZE,
                                                   TINY_SIZE, 3))))
        store.drop_oldest_rows(5)
        assert store.rows(gray) == 0
        assert gray in store  # spec and registration survive, array is empty

    def test_other_namespaces_untouched(self):
        gray = TransformSpec(8, "gray")
        root = RepresentationStore()
        a, b = root.scoped("a"), root.scoped("b")
        images = np.zeros((5, TINY_SIZE, TINY_SIZE, 3))
        a.add(gray, gray.apply_batch(images))
        b.add(gray, gray.apply_batch(images))
        a.drop_oldest_rows(2)
        assert a.rows(gray) == 3
        assert b.rows(gray) == 5


class TestExecutorRetention:
    def test_drop_oldest_keeps_ids_stable(self, planner):
        executor = QueryExecutor(make_corpus(20, seed=10))
        first = executor.execute(content_plan(planner))
        assert executor.drop_oldest(8) == 8
        assert executor.id_offset == 8
        np.testing.assert_array_equal(executor.relation["image_id"],
                                      np.arange(8, 20))
        second = executor.execute(content_plan(planner))
        # Surviving rows kept their ids and labels: nothing re-classified,
        # and the old selection restricted to survivors is exactly the new.
        assert second.images_classified["komondor"] == 0
        np.testing.assert_array_equal(
            second.selected_indices,
            first.selected_indices[first.selected_indices >= 8])

    def test_drop_oldest_trims_store_namespace(self, planner):
        executor = QueryExecutor(make_corpus(16, seed=11))
        executor.execute(content_plan(planner))
        rows_before = {spec.name: executor.store.rows(spec)
                       for spec in executor.store.specs()}
        assert rows_before
        bytes_before = executor.store.bytes_stored()
        executor.drop_oldest(6)
        for spec in executor.store.specs():
            assert executor.store.rows(spec) == rows_before[spec.name] - 6
        assert executor.store.bytes_stored() < bytes_before

    def test_retention_enforced_at_ingest(self, planner):
        executor = QueryExecutor(make_corpus(10, seed=12),
                                 retention=RetentionPolicy(max_rows=12))
        batch = make_corpus(8, seed=13)
        new_ids = executor.ingest(batch.images, metadata=batch.metadata)
        np.testing.assert_array_equal(new_ids, np.arange(10, 18))
        assert len(executor.corpus) == 12
        assert executor.id_offset == 6
        # The ingested rows that survived are the window's tail.
        np.testing.assert_array_equal(executor.relation["image_id"],
                                      np.arange(6, 18))

    def test_ids_never_reused_across_retention(self):
        executor = QueryExecutor(make_corpus(6, seed=14),
                                 retention=RetentionPolicy(max_rows=6))
        seen: list[int] = []
        for seed in range(20, 26):
            batch = make_corpus(3, seed=seed)
            seen.extend(executor.ingest(batch.images,
                                        metadata=batch.metadata).tolist())
        assert seen == sorted(set(seen))  # strictly increasing, no reuse
        assert len(executor.corpus) == 6

    def test_retain_without_policy_is_noop(self):
        executor = QueryExecutor(make_corpus(5, seed=15))
        assert executor.retain() == 0
        assert len(executor.corpus) == 5


class TestDatabaseRetention:
    @pytest.fixture()
    def db(self, tiny_optimizer, tiny_device):
        database = connect(make_corpus(12, seed=30),
                           device=tiny_device, scenario="camera",
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED,
                           retention=RetentionPolicy(max_rows=12))
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        return database

    def test_connect_applies_policy_to_single_table(self, db):
        assert (db.executor_for("images").retention
                == RetentionPolicy(max_rows=12))
        batch = make_corpus(5, seed=31)
        db.ingest(batch.images, metadata=batch.metadata)
        assert len(db.corpus) == 12

    def test_set_retention_assigns_per_table_policies(self, tiny_device):
        policy = RetentionPolicy(max_rows=8)
        database = connect({"cam_a": make_corpus(6, seed=32),
                            "cam_b": make_corpus(6, seed=33)},
                           device=tiny_device, calibrate_target_fps=None)
        database.set_retention("cam_a", policy)
        assert database.executor_for("cam_a").retention == policy
        assert database.executor_for("cam_b").retention is None

    def test_connect_rejects_a_retention_mapping(self, tiny_device):
        with pytest.raises(TypeError, match="set_retention"):
            connect({"cam_a": make_corpus(4, seed=34)},
                    device=tiny_device, calibrate_target_fps=None,
                    retention={"cam_a": RetentionPolicy(max_rows=4)})

    def test_set_retention_and_retain_on_demand(self, tiny_optimizer,
                                                tiny_device):
        database = connect(make_corpus(20, seed=35), device=tiny_device,
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        assert database.executor_for("images").retention is None
        assert database.retain() == {"images": 0}

        database.set_retention("images", RetentionPolicy(max_rows=15))
        assert database.retain() == {"images": 5}
        assert len(database.corpus) == 15
        np.testing.assert_array_equal(database.executor.relation["image_id"],
                                      np.arange(5, 20))
        database.set_retention("images", None)
        assert database.executor_for("images").retention is None

    def test_max_age_window(self, tiny_device):
        corpus = timed_corpus(np.arange(10.0))
        database = connect(corpus, device=tiny_device,
                           calibrate_target_fps=None,
                           retention=RetentionPolicy(max_age=3.0))
        dropped = database.retain()
        assert dropped == {"images": 6}  # cutoff 9 - 3 = 6: rows 0..5 go
        np.testing.assert_array_equal(
            database.corpus.metadata["timestamp"], [6.0, 7.0, 8.0, 9.0])

    def test_attach_with_policy(self, db):
        db.attach("cam_b", make_corpus(4, seed=36),
                  retention=RetentionPolicy(max_rows=3))
        assert db.retain("cam_b") == {"cam_b": 1}
        assert len(db.corpus_for("cam_b")) == 3

    def test_soak_bounded_state_matches_unbounded_reference(
            self, tiny_optimizer, tiny_device):
        """Acceptance: ingest 10x the window; every table holds <= N rows,
        the store stays within budget, and query results over the retained
        window exactly match an unbounded reference restricted to the same
        rows."""
        window = 12
        batches = [make_corpus(6, seed=100 + i) for i in range(20)]
        budget = 4 * window * TINY_SIZE * TINY_SIZE * 3

        bounded = connect(make_corpus(window, seed=99), device=tiny_device,
                          scenario="ongoing", calibrate_target_fps=None,
                          default_constraints=CONSTRAINED,
                          store_budget=budget,
                          retention=RetentionPolicy(max_rows=window))
        reference = connect(make_corpus(window, seed=99), device=tiny_device,
                            scenario="ongoing", calibrate_target_fps=None,
                            default_constraints=CONSTRAINED)
        for database in (bounded, reference):
            database.register_optimizer("komondor", tiny_optimizer,
                                        reference_params=REFERENCE_PARAMS)
            database.execute(SQL)  # registers ONGOING representations

        for batch in batches:
            for database in (bounded, reference):
                database.ingest(batch.images, metadata=batch.metadata,
                                content=batch.content)
            assert len(bounded.corpus) <= window
            assert bounded.catalog.store.total_bytes_stored() <= budget

        total = window + sum(len(batch) for batch in batches)
        assert len(bounded.corpus) == window
        assert len(reference.corpus) == total
        offset = bounded.executor.id_offset
        assert offset == total - window

        bounded_result = bounded.execute(SQL)
        reference_result = reference.execute(SQL)
        # The bounded database classifies exactly its window, never more.
        assert bounded_result.images_classified["komondor"] == window
        # Restrict the unbounded reference to the retained ids: identical.
        surviving = reference_result.image_ids >= offset
        np.testing.assert_array_equal(bounded_result.image_ids,
                                      reference_result.image_ids[surviving])
        np.testing.assert_array_equal(
            bounded_result.to_relation()["contains_komondor"],
            reference_result.to_relation()["contains_komondor"][surviving])
        np.testing.assert_array_equal(
            bounded_result.to_relation()["image_id"],
            reference_result.to_relation()["image_id"][surviving])
        # Surviving rows are never re-classified by a repeated query.
        assert bounded.execute(SQL).images_classified["komondor"] == 0


class TestRetentionPersistence:
    @pytest.fixture()
    def db(self, tiny_optimizer, tiny_device):
        database = connect(make_corpus(10, seed=40), device=tiny_device,
                           scenario="camera", calibrate_target_fps=None,
                           default_constraints=CONSTRAINED,
                           retention=RetentionPolicy(max_rows=10))
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        return database

    def test_policy_and_offset_round_trip(self, db, tmp_path):
        db.execute(SQL)
        batch = make_corpus(6, seed=41)
        db.ingest(batch.images, metadata=batch.metadata)  # drops 6 old rows
        assert db.executor.id_offset == 6
        before = db.execute(SQL)
        db.save(tmp_path / "vdb")

        loaded = VisualDatabase.load(tmp_path / "vdb")
        assert (loaded.executor_for("images").retention
                == RetentionPolicy(max_rows=10))
        assert loaded.executor.id_offset == 6
        after = loaded.execute(SQL)
        np.testing.assert_array_equal(after.image_ids, before.image_ids)
        # Materialized labels survived under the offset: the pre-save query
        # classified the 6 fresh rows, the post-load one classifies nothing.
        assert before.images_classified["komondor"] == 6
        assert after.images_classified["komondor"] == 0
        # And retention keeps being enforced after the reload.
        batch = make_corpus(4, seed=42)
        loaded.ingest(batch.images, metadata=batch.metadata)
        assert len(loaded.corpus) == 10
        assert loaded.executor.id_offset == 10


class TestConcurrentFanoutAndRetention:
    def test_fanout_queries_race_ingest_and_retention(self, tiny_optimizer,
                                                      tiny_device):
        window = 12
        database = connect(
            {"cam_live": make_corpus(window, seed=50),
             "cam_static": make_corpus(10, seed=51)},
            device=tiny_device, scenario="camera", calibrate_target_fps=None,
            default_constraints=CONSTRAINED)
        database.set_retention("cam_live", RetentionPolicy(max_rows=window))
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        fanout_sql = "SELECT * FROM all_cameras WHERE contains_object(komondor)"
        errors: list[Exception] = []

        def query_loop():
            try:
                for _ in range(6):
                    merged = database.execute(fanout_sql)
                    # Each shard's rows are internally consistent: ids fall
                    # inside that shard's live window at classification time.
                    live = merged.per_table("cam_live")
                    if len(live):
                        ids = live.image_ids
                        assert ids.max() - ids.min() < window
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def ingest_loop():
            try:
                for seed in range(60, 72):
                    batch = make_corpus(4, seed=seed)
                    database.ingest(batch.images, metadata=batch.metadata,
                                    table="cam_live")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=query_loop),
                   threading.Thread(target=ingest_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(database.corpus_for("cam_live")) == window
        # The final state is coherent: a fresh query classifies at most the
        # window and a repeat classifies nothing.
        database.execute(fanout_sql)
        repeat = database.execute(fanout_sql)
        assert repeat.images_classified["cam_live"]["komondor"] == 0
