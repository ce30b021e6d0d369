"""Tests for streaming ingest: corpus growth, incremental executor state,
ingest-time materialization, byte-budgeted eviction and persistence."""

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import FANOUT_TABLE, RetentionPolicy, TableWal, connect
from repro.db.executor import QueryExecutor
from repro.db.planner import QueryPlanner
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.query.model import Query
from repro.storage.store import RepresentationStore
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE
from tests.where import conjunction

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
SQL = "SELECT * FROM images WHERE contains_object(komondor)"


def make_corpus(n_images: int, seed: int):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


@pytest.fixture()
def corpus():
    """Function-scoped: ingest mutates the corpus in place."""
    return make_corpus(24, seed=77)


@pytest.fixture()
def batch():
    """A second corpus serving as the stream of frames to ingest."""
    return make_corpus(10, seed=78)


@pytest.fixture()
def planner(tiny_optimizer, camera_profiler):
    return QueryPlanner({"komondor": tiny_optimizer}, camera_profiler)


def content_plan(planner, metadata=(), **kwargs):
    return planner.plan(Query(
        where=conjunction(*metadata, ContainsObject("komondor")),
        constraints=CONSTRAINED, **kwargs))


class TestExecutorIngest:
    def test_ingest_grows_corpus_and_relation(self, corpus, batch, planner):
        executor = QueryExecutor(corpus)
        new_ids = executor.ingest(batch.images, metadata=batch.metadata,
                                  content=batch.content)
        np.testing.assert_array_equal(new_ids, np.arange(24, 34))
        assert len(executor.corpus) == 34
        assert len(executor.relation) == 34
        np.testing.assert_array_equal(executor.relation["image_id"],
                                      np.arange(34))
        assert executor.relation["location"].shape == (34,)

    def test_repeated_query_classifies_only_new_rows(self, corpus, batch,
                                                     planner):
        executor = QueryExecutor(corpus)
        plan = content_plan(planner)
        first = executor.execute(plan)
        assert first.images_classified["komondor"] == 24
        executor.ingest(batch.images, metadata=batch.metadata)
        second = executor.execute(plan)
        assert second.images_classified["komondor"] == 10
        # Old rows kept their labels: the old selection is a prefix of the new.
        old_selected = [i for i in second.selected_indices if i < 24]
        np.testing.assert_array_equal(old_selected, first.selected_indices)

    def test_ingested_rows_queryable_by_metadata(self, corpus, planner):
        executor = QueryExecutor(corpus)
        frames = make_corpus(4, seed=5)
        metadata = dict(frames.metadata)
        metadata["location"] = np.array(["atlantis"] * 4)
        new_ids = executor.ingest(frames.images, metadata=metadata)
        plan = planner.plan(Query(where=conjunction(
            MetadataPredicate("location", "==", "atlantis"))))
        result = executor.execute(plan)
        np.testing.assert_array_equal(result.selected_indices, new_ids)

    def test_lazy_top_up_after_ingest_matches_fresh_executor(self, corpus,
                                                             batch, planner):
        # ARCHIVE-style: ingest leaves stored representations stale; the next
        # broad query tops them up and the results match a from-scratch run.
        executor = QueryExecutor(corpus)
        plan = content_plan(planner)
        executor.execute(plan)
        for spec in executor.store.specs():
            assert executor.store.rows(spec) == 24
        executor.ingest(batch.images, metadata=batch.metadata)
        incremental = executor.execute(plan)
        for spec in executor.store.specs():
            assert executor.store.rows(spec) == 34

        merged = QueryExecutor(executor.corpus)
        fresh = merged.execute(plan)
        np.testing.assert_array_equal(incremental.selected_indices,
                                      fresh.selected_indices)

    @pytest.mark.parametrize("shape", ["wide", "narrow", "stale", "retained"])
    def test_every_snapshot_shape_matches_whole_corpus_classify(
            self, corpus, batch, planner, shape):
        # One read path, four ways a snapshot can hold a representation:
        # built snapshot-wide by this query (wide), not at all (narrow),
        # shorter than the snapshot after ingest (stale), trimmed by
        # retention and then stale (retained).
        executor = QueryExecutor(corpus)
        wide = content_plan(planner)
        plan = wide
        if shape == "narrow":
            plan = content_plan(planner, metadata=(
                MetadataPredicate("location", "==", "detroit"),))
        if shape in ("stale", "retained"):
            executor.execute(wide)
            if shape == "retained":
                assert executor.drop_oldest(5) == 5
            executor.ingest(batch.images, metadata=batch.metadata)
        result = executor.execute(plan)

        n = len(executor.corpus)
        stored_rows = {executor.store.rows(spec)
                       for spec in executor.store.specs()}
        assert stored_rows == (set() if shape == "narrow" else {n})
        cascade = plan.content_steps[0].evaluation.cascade
        expected = cascade.classify(executor.corpus.images).astype(bool)
        if shape == "narrow":
            expected &= executor.relation["location"] == "detroit"
            assert 0 < result.images_classified["komondor"] < n / 2
        np.testing.assert_array_equal(
            result.selected_indices,
            executor.id_offset + np.flatnonzero(expected))

    def test_materialize_on_ingest_extends_stored_reps(self, corpus,
                                                       batch, planner):
        executor = QueryExecutor(corpus)
        executor.execute(content_plan(planner))  # stores its reps
        stored = executor.store.specs()
        assert stored
        executor.ingest(batch.images, metadata=batch.metadata,
                        materialize=True)
        assert executor.store.specs() == stored
        for spec in stored:
            assert executor.store.rows(spec) == 34

    def test_observed_positive_rate_tracks_materialized_labels(self, corpus,
                                                               planner):
        executor = QueryExecutor(corpus)
        assert executor.observed_positive_rate("komondor") is None
        result = executor.execute(content_plan(planner))
        rate = executor.observed_positive_rate("komondor")
        assert rate == pytest.approx(len(result) / 24)
        assert executor.observed_positive_rate("komondor", "no-such") is None

    def test_ingest_rejects_mismatched_metadata(self, corpus):
        executor = QueryExecutor(corpus)
        with pytest.raises(ValueError):
            executor.ingest(corpus.images[:2], metadata={"location": ["a", "b"]})

    def test_ingest_pads_missing_content_with_false(self, corpus):
        executor = QueryExecutor(corpus)
        frames = make_corpus(3, seed=6)
        executor.ingest(frames.images, metadata=frames.metadata)
        assert not executor.corpus.content["komondor"][-3:].any()

    def test_zero_row_ingest_is_a_cheap_noop(self, corpus, tmp_path):
        # Regression: an empty batch used to walk the store's ingest path.
        executor = QueryExecutor(corpus)
        wal = TableWal(tmp_path, "images")
        executor.set_wal(wal)
        gray = executor.store  # namespaceless store; must stay empty
        empty = np.zeros((0, TINY_SIZE, TINY_SIZE, 3))
        new_ids = executor.ingest(empty, materialize=True)
        assert new_ids.size == 0
        assert new_ids.dtype == np.int64
        assert wal.record_count() == 0  # nothing journaled
        assert len(executor.corpus) == 24
        assert executor.corpus.segment_count == 1  # nothing queued
        assert gray.specs() == []
        assert len(gray) == 0
        wal.close()

    def test_zero_row_ingest_skips_metadata_validation_cost(self, corpus):
        # The no-op does not even require matching metadata columns.
        executor = QueryExecutor(corpus)
        empty = np.zeros((0, TINY_SIZE, TINY_SIZE, 3))
        assert executor.ingest(empty, metadata={}).size == 0


class TestByteBudget:
    def test_budget_holds_and_results_identical(self, corpus, batch, planner):
        # A budget that can hold roughly one of the cascade's representations:
        # eviction must kick in, results must not change.
        budget = len(corpus) * TINY_SIZE * TINY_SIZE * 3
        bounded = QueryExecutor(corpus,
                                store=RepresentationStore(byte_budget=budget))
        unbounded = QueryExecutor(make_corpus(24, seed=77))
        plan = content_plan(planner)

        for executor in (bounded, unbounded):
            executor.execute(plan)
            executor.ingest(batch.images, metadata=batch.metadata)
            executor.execute(plan)
            executor.invalidate()
            executor.execute(plan)
        assert bounded.store.bytes_stored() <= budget

        final_bounded = bounded.execute(plan)
        final_unbounded = unbounded.execute(plan)
        np.testing.assert_array_equal(final_bounded.selected_indices,
                                      final_unbounded.selected_indices)

    def test_eviction_happens_under_pressure(self, corpus, planner):
        tiny_budget = 64  # far below any full-corpus representation
        executor = QueryExecutor(
            corpus, store=RepresentationStore(byte_budget=tiny_budget))
        result = executor.execute(content_plan(planner))
        assert executor.store.bytes_stored() <= tiny_budget
        assert executor.store.evictions > 0
        # Queries still work (representations recomputed on demand).
        assert result.images_classified["komondor"] == len(corpus)


class TestDatabaseIngest:
    @pytest.fixture()
    def db(self, corpus, tiny_optimizer, tiny_device):
        database = connect(corpus, device=tiny_device, scenario="camera",
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        return database

    def test_zero_row_ingest_returns_empty_ids(self, db):
        empty = np.zeros((0, TINY_SIZE, TINY_SIZE, 3))
        assert db.ingest(empty).size == 0
        assert len(db.corpus) == 24

    def test_ingest_then_requery_classifies_only_new_rows(self, db, batch):
        db.execute(SQL)
        new_ids = db.ingest(batch.images, metadata=batch.metadata,
                            content=batch.content)
        assert new_ids.size == 10
        result = db.execute(SQL)
        assert result.images_classified["komondor"] == 10

    def test_ongoing_scenario_materializes_at_ingest(self, db, batch):
        db.use_scenario("ongoing")
        assert db.scenario.materializes_on_ingest
        db.execute(SQL)
        stored = db.executor.store.specs()
        assert stored
        db.ingest(batch.images, metadata=batch.metadata)
        assert db.executor.store.specs() == stored
        for spec in stored:
            assert db.executor.store.rows(spec) == len(db.corpus)

    def test_camera_scenario_stays_lazy_at_ingest(self, db, batch):
        assert not db.scenario.materializes_on_ingest
        db.execute(SQL)
        stale_rows = {spec.name: db.executor.store.rows(spec)
                      for spec in db.executor.store.specs()}
        db.ingest(batch.images, metadata=batch.metadata)
        for spec in db.executor.store.specs():
            assert db.executor.store.rows(spec) == stale_rows[spec.name]

    def test_explain_selectivity_refreshed_from_labels(self, db):
        before = db.explain(SQL).content_steps[0].selectivity
        result = db.execute(SQL)
        observed = len(result) / len(db.corpus)
        after = db.explain(SQL).content_steps[0].selectivity
        assert after == pytest.approx(observed)
        # The 90%-positive corpus is far from the balanced eval split, so the
        # refresh should actually move the estimate.
        assert after != before

    def test_ingested_state_round_trips_through_save_load(self, db, batch,
                                                          tmp_path):
        db.execute(SQL)
        db.ingest(batch.images, metadata=batch.metadata, content=batch.content)
        before = db.execute(SQL)
        db.save(tmp_path / "db")

        from repro.db import VisualDatabase
        loaded = VisualDatabase.load(tmp_path / "db")
        assert len(loaded.corpus) == 34
        after = loaded.execute(SQL)
        np.testing.assert_array_equal(after.image_ids, before.image_ids)
        # Materialized virtual columns survived: nothing is re-classified.
        assert after.images_classified["komondor"] == 0

    def test_store_policy_round_trips(self, corpus, batch, tiny_optimizer,
                                      tiny_device, tmp_path):
        budget = 2 * len(corpus) * TINY_SIZE * TINY_SIZE * 3
        database = connect(corpus, device=tiny_device, scenario="ongoing",
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED,
                           store_budget=budget)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        database.execute(SQL)
        saved = database.executor.store
        assert saved.specs()
        database.save(tmp_path / "db")

        from repro.db import VisualDatabase
        loaded = VisualDatabase.load(tmp_path / "db")
        store = loaded.executor.store
        assert store.byte_budget == budget == loaded.store_budget
        assert store.specs() == saved.specs()
        for spec in saved.specs():
            assert store.rows(spec) == saved.rows(spec)

    def test_store_budget_is_the_enforced_one(self, corpus, tiny_device,
                                              tmp_path):
        # One budget: the facade reads the store's, so what a save persists
        # is what the saved database ran under.
        database = connect(corpus, device=tiny_device,
                           calibrate_target_fps=None, store_budget=4096)
        with pytest.raises(AttributeError):
            database.store_budget = 1
        assert database.store_budget == database.catalog.store.byte_budget
        database.save(tmp_path / "db")

        from repro.db import VisualDatabase
        loaded = VisualDatabase.load(tmp_path / "db")
        assert (loaded.catalog.store.byte_budget
                == database.catalog.store.byte_budget == 4096)


@pytest.fixture()
def transformed_rows(monkeypatch):
    """A running count of the rows every ``TransformSpec.apply_batch`` call
    receives."""
    count = [0]
    apply_batch = TransformSpec.apply_batch

    def counting(spec, images):
        count[0] += int(images.shape[0])
        return apply_batch(spec, images)

    monkeypatch.setattr(TransformSpec, "apply_batch", counting)
    return count


class TestOngoingWindowIngest:
    """A toy twin of the ONGOING streaming benchmark: two tables, a
    retention window of ``WINDOW`` rows each, and a store budget that holds
    one window's representations, so the two full windows cannot both fit."""

    WINDOW = 16
    BATCH = 4
    FANOUT_SQL = (f"SELECT * FROM {FANOUT_TABLE} "
                  f"WHERE contains_object(komondor)")

    def open(self, tiny_optimizer, tiny_device, budget, root=None):
        corpora = {f"cam_{index}": make_corpus(self.WINDOW // 2,
                                               seed=80 + index)
                   for index in range(2)}
        database = connect(corpora, device=tiny_device, scenario="ongoing",
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED,
                           store_budget=budget,
                           retention=RetentionPolicy(max_rows=self.WINDOW))
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        if root is not None:
            database.enable_wal(root)
        database.execute(self.FANOUT_SQL)  # stores the representations
        return database

    def cascade_specs(self, database, table):
        """The derived specs ``table``'s plan reads: what its queries store
        and ingest then extends (native ones are the frames themselves)."""
        plan = database.explain(self.FANOUT_SQL)[table]
        frame_shape = database.corpus_for(table).images.shape[1:]
        return [spec for spec in dict.fromkeys(
                    model.transform for step in plan.content_steps
                    for model in step.evaluation.cascade.models)
                if not spec.is_native(frame_shape)]

    def test_ingest_transforms_only_new_rows_and_queries_rebuild(
            self, tiny_optimizer, tiny_device, transformed_rows):
        unbudgeted = self.open(tiny_optimizer, tiny_device, None)
        # Half a window per table is seeded: one window's bytes in total.
        budget = unbudgeted.catalog.store.total_bytes_stored()
        budgeted = self.open(tiny_optimizer, tiny_device, budget)
        cascade_specs = {table: self.cascade_specs(budgeted, table)
                         for table in budgeted.tables()}
        feed = make_corpus(12 * self.BATCH, seed=90)
        at_ingest, bound, rebuilt = 0, 0, 0
        for index in range(12):
            table = f"cam_{index % 2}"
            rows = slice(index * self.BATCH, (index + 1) * self.BATCH)
            metadata = {key: values[rows]
                        for key, values in feed.metadata.items()}
            store = budgeted.executor_for(table).store
            specs = cascade_specs[table]
            before = transformed_rows[0]
            budgeted.ingest(feed.images[rows], metadata=metadata, table=table)
            at_ingest += transformed_rows[0] - before
            bound += self.BATCH * len(specs)
            unbudgeted.ingest(feed.images[rows], metadata=metadata,
                              table=table)
            if index % 4 == 3:
                absent = [spec for spec in specs if spec not in store]
                result = budgeted.execute(self.FANOUT_SQL)
                rebuilt += sum(spec in store for spec in absent)
                np.testing.assert_array_equal(
                    result.image_ids,
                    unbudgeted.execute(self.FANOUT_SQL).image_ids)
        # Ingest transforms each new row once per stored spec and never
        # rebuilds what the budget evicted: the next query does that.
        assert at_ingest <= bound
        assert budgeted.catalog.store.evictions > 0
        assert rebuilt > 0
        assert budgeted.catalog.store.total_bytes_stored() <= budget

    def test_batch_larger_than_the_window(self, tiny_optimizer, tiny_device,
                                          tmp_path):
        database = self.open(tiny_optimizer, tiny_device, None,
                             root=tmp_path / "vdb")
        executor = database.executor_for("cam_0")
        wal = executor.wal
        generation = wal.generation
        batch = make_corpus(self.WINDOW + 5, seed=91)
        new_ids = database.ingest(batch.images, metadata=batch.metadata,
                                  table="cam_0")
        # The ids assigned before the drop, though 5 fell out at once.
        first = self.WINDOW // 2
        np.testing.assert_array_equal(
            new_ids, np.arange(first, first + self.WINDOW + 5))
        assert executor.id_offset == first + 5
        assert len(executor.corpus) == self.WINDOW
        np.testing.assert_array_equal(executor.corpus.images,
                                      batch.images[5:])
        assert executor.store.specs()
        for spec in executor.store.specs():
            assert executor.store.rows(spec) == self.WINDOW
        # The drop is implied by the segment and the policy: replay
        # re-derives it, so it is not journaled.
        records = list(wal.records(from_generation=generation))
        assert [record["type"] for record in records] == ["segment"]
        assert len(records[0]["segment"]) == self.WINDOW + 5
        database.close()
