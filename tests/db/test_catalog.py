"""Tests for the multi-table catalog: named corpora, FROM <table> routing,
cross-camera fan-out, namespace-aware store budgeting and catalog
persistence."""

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import ImageCorpus, generate_corpus
from repro.db import (FANOUT_TABLE, FanoutResultSet, VisualDatabase, connect,
                      persistence)
from repro.db.catalog import Catalog
from repro.query.sql import SqlParseError
from repro.storage.store import RepresentationStore
from tests.conftest import TINY_SIZE

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
FANOUT_SQL = f"SELECT * FROM {FANOUT_TABLE} WHERE contains_object(komondor)"


def make_corpus(n_images: int, seed: int, positive_rate: float = 0.9):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed),
                           positive_rate=positive_rate)


@pytest.fixture()
def cameras():
    """Three shards of different sizes (function-scoped: ingest mutates)."""
    return {"cam_north": make_corpus(18, seed=31),
            "cam_south": make_corpus(12, seed=32),
            "cam_east": make_corpus(24, seed=33)}


@pytest.fixture()
def db(cameras, tiny_optimizer, tiny_device):
    database = connect(cameras, device=tiny_device, scenario="camera",
                       calibrate_target_fps=None,
                       default_constraints=CONSTRAINED)
    database.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


class TestCatalog:
    def test_attach_detach_tables(self, cameras):
        catalog = Catalog()
        for name, corpus in cameras.items():
            catalog.attach(name, corpus)
        assert catalog.tables() == ["cam_north", "cam_south", "cam_east"]
        catalog.detach("cam_south")
        assert catalog.tables() == ["cam_north", "cam_east"]
        assert "cam_south" not in catalog

    def test_duplicate_attach_rejected(self, cameras):
        catalog = Catalog()
        catalog.attach("cam", cameras["cam_north"])
        with pytest.raises(ValueError, match="already attached"):
            catalog.attach("cam", cameras["cam_south"])

    def test_invalid_and_reserved_names_rejected(self, cameras):
        catalog = Catalog()
        for bad in ("1cam", "cam-2", "", "cam x"):
            with pytest.raises(ValueError):
                catalog.attach(bad, cameras["cam_north"])
        with pytest.raises(ValueError, match="reserved"):
            catalog.attach(FANOUT_TABLE, cameras["cam_north"])

    def test_detach_unknown_lists_tables(self, cameras):
        catalog = Catalog()
        catalog.attach("cam_a", cameras["cam_north"])
        with pytest.raises(KeyError, match="cam_a"):
            catalog.detach("cam_b")

    def test_connect_mapping_attaches_all(self, db):
        assert db.tables() == ["cam_north", "cam_south", "cam_east"]
        assert len(db.corpus_for("cam_south")) == 12

    def test_detach_clears_store_namespace(self, db):
        db.execute("SELECT * FROM cam_north WHERE contains_object(komondor)")
        store = db.executor_for("cam_north").store
        assert store.bytes_stored() > 0
        db.detach("cam_north")
        assert store.bytes_stored() == 0
        assert store.specs() == [] and len(store) == 0
        assert "cam_north" not in db.tables()

    def test_single_corpus_registers_images_table(self, tiny_optimizer,
                                                  tiny_device):
        database = connect(make_corpus(10, seed=1), device=tiny_device,
                           calibrate_target_fps=None)
        assert database.tables() == ["images"]
        assert len(database.corpus) == 10


class TestRouting:
    def test_from_table_routes_to_that_shard(self, db, cameras):
        result = db.execute(
            "SELECT * FROM cam_south WHERE contains_object(komondor)")
        assert result.plan.table == "cam_south"
        assert result.images_classified["komondor"] == len(cameras["cam_south"])
        # Only the targeted shard materialized labels.
        assert db.executor_for("cam_south").materialized_categories() == \
            ["komondor"]
        assert db.executor_for("cam_north").materialized_categories() == []

    def test_unknown_table_rejected_listing_known(self, db):
        with pytest.raises(SqlParseError) as excinfo:
            db.execute("SELECT * FROM cam_west WHERE contains_object(komondor)")
        message = str(excinfo.value)
        assert "cam_west" in message
        for table in db.tables():
            assert table in message
        # Nothing was classified by the failed query.
        for table in db.tables():
            assert db.executor_for(table).materialized_categories() == []

    def test_default_corpus_no_longer_answers_unknown_tables(
            self, tiny_optimizer, tiny_device):
        database = connect(make_corpus(10, seed=1), device=tiny_device,
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_optimizer("komondor", tiny_optimizer)
        with pytest.raises(SqlParseError, match="known tables"):
            database.execute(
                "SELECT * FROM typo_table WHERE contains_object(komondor)")

    def test_ingest_routes_to_named_table(self, db, cameras):
        batch = make_corpus(6, seed=40)
        new_ids = db.ingest(batch.images, metadata=batch.metadata,
                            content=batch.content, table="cam_south")
        np.testing.assert_array_equal(new_ids, np.arange(12, 18))
        assert len(db.corpus_for("cam_south")) == 18
        assert len(db.corpus_for("cam_north")) == 18  # untouched

    def test_ingest_without_table_needs_a_default(self, db):
        batch = make_corpus(4, seed=41)
        with pytest.raises(RuntimeError, match="name one explicitly"):
            db.ingest(batch.images, metadata=batch.metadata)


class TestFanout:
    def test_fanout_matches_union_of_per_table_queries(self, db, cameras):
        merged = db.execute(FANOUT_SQL)
        assert isinstance(merged, FanoutResultSet)
        assert merged.tables == tuple(cameras)

        per_table = {
            table: db.execute(f"SELECT * FROM {table} "
                              "WHERE contains_object(komondor)")
            for table in cameras}
        assert len(merged) == sum(len(r) for r in per_table.values())
        for table, result in per_table.items():
            np.testing.assert_array_equal(
                merged.per_table(table).image_ids, result.image_ids)

        # Row-level check: (__table__, image_id) pairs match the union.
        merged_pairs = {(row["__table__"], row["image_id"]) for row in merged}
        union_pairs = {(table, int(image_id))
                       for table, result in per_table.items()
                       for image_id in result.image_ids}
        assert merged_pairs == union_pairs

    def test_fanout_provenance_and_per_shard_stats(self, db, cameras):
        merged = db.execute(FANOUT_SQL)
        assert "__table__" in merged.columns
        assert set(merged.images_classified) == set(cameras)
        for table, corpus in cameras.items():
            assert merged.images_classified[table]["komondor"] == len(corpus)
            assert "komondor" in merged.cascades_used[table]
        counts = {table: 0 for table in cameras}
        for row in merged:
            counts[row["__table__"]] += 1
        for table in cameras:
            assert counts[table] == len(merged.per_table(table))

    def test_fanout_reuses_materialized_labels(self, db, cameras):
        db.execute(FANOUT_SQL)
        second = db.execute(FANOUT_SQL)
        for table in cameras:
            assert second.images_classified[table]["komondor"] == 0

    def test_explicit_tables_subset(self, db):
        subset = db.execute(FANOUT_SQL, tables=["cam_south", "cam_north"])
        assert subset.tables == ("cam_south", "cam_north")
        assert db.executor_for("cam_east").materialized_categories() == []
        with pytest.raises(KeyError, match="cam_west"):
            db.execute(FANOUT_SQL, tables=["cam_west"])

    def test_empty_tables_list_rejected(self, db):
        with pytest.raises(ValueError, match="at least one"):
            db.execute(FANOUT_SQL, tables=[])

    def test_tables_with_single_table_from_rejected(self, db):
        # tables=[...] must never silently answer a FROM cam_a query with
        # another shard's rows.
        with pytest.raises(ValueError, match="requires FROM all_cameras"):
            db.execute("SELECT * FROM cam_north "
                       "WHERE contains_object(komondor)",
                       tables=["cam_south"])

    def test_shards_priced_at_their_own_resolution(self, db):
        # A higher-resolution shard must not be priced at its neighbours'.
        db.attach("cam_hires", generate_corpus(
            (get_category("komondor"),), n_images=8,
            image_size=2 * TINY_SIZE, rng=np.random.default_rng(90),
            positive_rate=0.5))
        plans = db.explain(FANOUT_SQL, tables=["cam_north", "cam_hires"])
        # CAMERA pays per-pixel transform cost: the hi-res shard's selected
        # cascade must be priced at least as high as the lo-res shard's for
        # the same cascade choice, and the profilers must differ.
        profiler_for = db.registry.profiler_for
        assert profiler_for("cam_hires").source_resolution == 2 * TINY_SIZE
        assert profiler_for("cam_north").source_resolution == TINY_SIZE
        for plan in plans.values():
            assert plan.content_steps[0].cost_per_image_s > 0

    def test_explain_fanout_returns_per_shard_plans(self, db, cameras):
        plans = db.explain(FANOUT_SQL)
        assert set(plans) == set(cameras)
        for table, plan in plans.items():
            assert plan.table == table
            assert f"table={table!r}" in str(plan)
        # Nothing ran.
        for table in cameras:
            assert db.executor_for(table).materialized_categories() == []

    def test_per_shard_selectivity_feeds_each_plan(self, db, tiny_optimizer,
                                                   tiny_device):
        # One shard dense in positives, one almost empty: once labels are
        # materialized, each shard's plan must carry its own observed rate.
        db.attach("cam_sparse", make_corpus(20, seed=50, positive_rate=0.0))
        db.execute(FANOUT_SQL)
        plans = db.explain(FANOUT_SQL)
        for table in db.tables():
            observed = db.executor_for(table).observed_positive_rate("komondor")
            assert plans[table].content_steps[0].selectivity == \
                pytest.approx(observed)
        assert plans["cam_sparse"].content_steps[0].selectivity < \
            plans["cam_north"].content_steps[0].selectivity

    def test_fanout_on_empty_catalog_reports_no_corpus(self, tiny_optimizer,
                                                       tiny_device):
        database = connect(device=tiny_device, calibrate_target_fps=None)
        database.register_optimizer("komondor", tiny_optimizer)
        with pytest.raises(RuntimeError, match="no corpus"):
            database.execute(FANOUT_SQL)
        # Named shards on an empty catalog meet the same check first.
        with pytest.raises(RuntimeError, match="no corpus"):
            database.execute(FANOUT_SQL, tables=["cam_north"])

    def test_fanout_limit_caps_merged_result(self, db, cameras):
        # Regression: LIMIT used to apply per shard, so the merged result
        # returned up to n x shards rows.
        unlimited = db.execute(FANOUT_SQL)
        assert len(unlimited) > 5
        limited = db.execute(f"{FANOUT_SQL} LIMIT 5")
        assert len(limited) == 5
        # Corpus order within shard, attachment order across shards: the
        # capped rows are a prefix of the unlimited merge.
        np.testing.assert_array_equal(limited.image_ids,
                                      unlimited.image_ids[:5])
        np.testing.assert_array_equal(limited.to_relation()["__table__"],
                                      unlimited.to_relation()["__table__"][:5])
        # per_table views are consistent with the merged rows.
        assert sum(len(limited.per_table(table))
                   for table in limited.tables) == 5

    def test_fanout_limit_larger_than_result_returns_everything(self, db):
        unlimited = db.execute(FANOUT_SQL)
        limited = db.execute(f"{FANOUT_SQL} LIMIT 1000")
        np.testing.assert_array_equal(limited.image_ids, unlimited.image_ids)

    def test_fanout_merges_shards_with_different_metadata_schemas(
            self, db, cameras):
        # Regression: the merge used to keep only the intersection of the
        # shard columns, silently dropping any camera-specific metadata.
        base = make_corpus(8, seed=91)
        hires = ImageCorpus(
            base.images,
            {**base.metadata, "weather": np.array(["sunny", "rain"] * 4)},
            base.content)
        db.attach("cam_weather", hires)
        merged = db.execute(FANOUT_SQL)
        relation = merged.to_relation()
        assert "weather" in relation
        assert "location" in relation
        tables = relation["__table__"]
        # Shards lacking the column get a typed fill, never misalignment.
        assert set(relation["weather"][tables != "cam_weather"]) <= {""}
        weather_rows = relation["weather"][tables == "cam_weather"]
        assert set(weather_rows) <= {"sunny", "rain"}

    def test_detach_then_reattach_starts_from_clean_state(self, db, cameras):
        # Regression guard: reattaching the same table name must not leak
        # the old shard's store entries or materialized labels.
        db.use_scenario("ongoing")
        db.execute("SELECT * FROM cam_north WHERE contains_object(komondor)")
        old_executor = db.executor_for("cam_north")
        assert old_executor.store.bytes_stored() > 0
        assert old_executor.store.specs()
        global_before = db.catalog.store.total_bytes_stored()

        db.detach("cam_north")
        db.attach("cam_north", make_corpus(9, seed=92))
        executor = db.executor_for("cam_north")
        assert executor is not old_executor
        assert executor.materialized_categories() == []
        assert executor.store.bytes_stored() == 0
        assert executor.store.specs() == [] and len(executor.store) == 0
        assert db.catalog.store.total_bytes_stored() < global_before
        # The fresh shard classifies from scratch -- nothing inherited.
        result = db.execute(
            "SELECT * FROM cam_north WHERE contains_object(komondor)")
        assert result.images_classified["komondor"] == 9


class TestSharedStoreBudget:
    def test_namespaces_share_one_budget(self, cameras, tiny_optimizer,
                                         tiny_device):
        budget = 2 * 18 * TINY_SIZE * TINY_SIZE * 3
        database = connect(cameras, device=tiny_device, scenario="camera",
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED,
                           store_budget=budget)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        merged = database.execute(FANOUT_SQL)
        root = database.catalog.store
        assert root.total_bytes_stored() <= budget
        # Eviction never changed results: every shard classified fully.
        for table, corpus in cameras.items():
            assert merged.images_classified[table]["komondor"] == len(corpus)

    def test_hot_namespace_evicts_itself_first(self):
        from repro.transforms.spec import TransformSpec
        gray = TransformSpec(8, "gray")    # 64 bytes/image
        rgb = TransformSpec(8, "rgb")      # 192 bytes/image
        small = TransformSpec(4, "gray")   # 16 bytes/image
        # Budget holds cold's gray (384) + hot's rgb (1152) exactly.
        root = RepresentationStore(byte_budget=6 * (64 + 192))
        cold = root.scoped("cam_cold")
        hot = root.scoped("cam_hot")
        images = np.zeros((6, TINY_SIZE, TINY_SIZE, 3))
        cold.add(gray, gray.apply_batch(images))
        hot.add(rgb, rgb.apply_batch(images))
        # The hot camera inserting more must evict its own LRU entry (rgb),
        # not the cold camera's representation.
        hot.add(small, small.apply_batch(images))
        assert gray in cold
        assert rgb not in hot
        assert small in hot
        assert root.evictions == 1

    def test_scoped_views_are_isolated(self):
        from repro.transforms.spec import TransformSpec
        root = RepresentationStore()
        a, b = root.scoped("a"), root.scoped("b")
        spec = TransformSpec(8, "gray")
        a.add(spec, np.zeros((3, 8, 8, 1)))
        assert spec in a and spec not in b
        assert a.rows(spec) == 3 and b.rows(spec) == 0
        assert a.specs() == [spec] and b.specs() == []
        b.add(spec, np.zeros((2, 8, 8, 1)))
        a.clear()
        assert a.bytes_stored() == 0 and spec not in a
        assert b.specs() == [spec] and b.rows(spec) == 2


class TestCatalogPersistence:
    def test_three_table_roundtrip_mid_ingest(self, db, cameras, tmp_path):
        db.use_scenario("ongoing")
        db.execute(FANOUT_SQL)  # classifies + stores reps
        batch = make_corpus(8, seed=60)
        db.ingest(batch.images, metadata=batch.metadata, content=batch.content,
                  table="cam_east")  # mid-ingest: cam_east has 8 fresh rows
        before = db.execute(FANOUT_SQL)
        assert before.images_classified["cam_east"]["komondor"] == 8

        db.save(tmp_path / "vdb")
        loaded = VisualDatabase.load(tmp_path / "vdb")

        # Scenario, tables and per-table corpora survive.
        assert loaded.scenario.name == "ongoing"
        assert loaded.tables() == db.tables()
        assert len(loaded.corpus_for("cam_east")) == 32
        # Store namespaces survive: the budget and each table's entries.
        assert loaded.store_budget == db.store_budget
        for table in loaded.tables():
            store = loaded.executor_for(table).store
            saved = db.executor_for(table).store
            assert store.specs() == saved.specs()
            for spec in saved.specs():
                assert store.rows(spec) == saved.rows(spec)
        # Materialized labels survive: nothing is re-classified, rows match.
        after = loaded.execute(FANOUT_SQL)
        for table in cameras:
            assert after.images_classified[table]["komondor"] == 0
            np.testing.assert_array_equal(
                after.per_table(table).image_ids,
                before.per_table(table).image_ids)

    def test_store_arrays_warm_start_without_recompute(self, db, tmp_path,
                                                       monkeypatch):
        db.use_scenario("ongoing")
        db.execute(FANOUT_SQL)
        db.save(tmp_path / "vdb")
        loaded = VisualDatabase.load(tmp_path / "vdb")

        # A warm-started query must not transform a single image: stored
        # arrays came back from disk and labels are materialized.
        from repro.transforms import spec as spec_module

        def boom(self, images):
            raise AssertionError("representation recomputed after warm start")

        monkeypatch.setattr(spec_module.TransformSpec, "apply_batch", boom)
        result = loaded.execute(FANOUT_SQL)
        assert len(result) == len(db.execute(FANOUT_SQL))

    def test_store_bytes_cap_falls_back_to_recompute(self, db, tmp_path,
                                                     monkeypatch):
        db.use_scenario("ongoing")
        before = db.execute(FANOUT_SQL)
        monkeypatch.setattr(persistence, "DEFAULT_STORE_BYTES_CAP", 0)
        db.save(tmp_path / "vdb")  # no arrays persisted
        loaded = VisualDatabase.load(tmp_path / "vdb")
        for table in loaded.tables():
            assert loaded.executor_for(table).store.specs() == []
        # Results identical anyway: representations recompute on demand --
        # and materialized labels mean nothing needs re-classification.
        after = loaded.execute(FANOUT_SQL)
        for table in loaded.tables():
            np.testing.assert_array_equal(
                after.per_table(table).image_ids,
                before.per_table(table).image_ids)
            assert after.images_classified[table]["komondor"] == 0

    def test_store_cap_spent_on_globally_hottest_arrays(self, db, tmp_path,
                                                        monkeypatch):
        db.use_scenario("ongoing")
        db.execute("SELECT * FROM cam_north WHERE contains_object(komondor)")
        # cam_south queried last: its arrays are the globally hottest.
        db.execute("SELECT * FROM cam_south WHERE contains_object(komondor)")
        south_bytes = sum(array.nbytes for _, array, _ in
                          db.executor_for("cam_south").store.arrays_by_recency())
        assert south_bytes > 0
        monkeypatch.setattr(persistence, "DEFAULT_STORE_BYTES_CAP",
                            south_bytes)
        db.save(tmp_path / "vdb")
        loaded = VisualDatabase.load(tmp_path / "vdb")
        # The cap went to the hottest shard, not the first-attached one.
        assert loaded.executor_for("cam_south").store.specs() != []
        assert loaded.executor_for("cam_north").store.specs() == []
