"""End-to-end tests for the VisualDatabase facade.

Covers the acceptance path: connect -> register_predicate -> execute ->
save -> load -> execute, plus explain() plan ordering and scenario
switching.
"""

import numpy as np
import pytest

from repro.core.optimizer import TahomaConfig
from repro.core.selector import UserConstraints
from repro.core.spec import ArchitectureSpec
from repro.core.trainer import TrainingConfig
from repro.costs.scenario import CAMERA
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import VisualDatabase, connect
from repro.db.executor import QueryExecutor
from repro.db.planner import QueryPlanner
from repro.query.sql import parse_query
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE

SQL = ("SELECT * FROM images WHERE location = 'detroit' "
       "AND contains_object(komondor)")
CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus((get_category("komondor"),), n_images=30,
                           image_size=TINY_SIZE, rng=np.random.default_rng(9),
                           positive_rate=0.9)


@pytest.fixture()
def db(corpus, tiny_optimizer, tiny_device):
    database = connect(corpus, device=tiny_device, scenario=CAMERA,
                       calibrate_target_fps=None,
                       default_constraints=CONSTRAINED)
    database.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


class TestConnect:
    def test_connect_returns_database(self, corpus):
        database = connect(corpus)
        assert isinstance(database, VisualDatabase)
        assert len(database.corpus) == len(corpus)

    def test_query_without_corpus_rejected(self, tiny_optimizer):
        database = connect()
        database.register_optimizer("komondor", tiny_optimizer)
        with pytest.raises(RuntimeError):
            database.execute("SELECT * FROM images WHERE contains_object(komondor)")

    def test_duplicate_predicate_rejected(self, db, tiny_optimizer):
        with pytest.raises(ValueError):
            db.register_optimizer("komondor", tiny_optimizer)


class TestExecute:
    def test_paper_query_matches_raw_processor(self, db, corpus, tiny_optimizer,
                                               camera_profiler):
        results = db.execute(SQL)
        plan = QueryPlanner({"komondor": tiny_optimizer},
                            camera_profiler).plan(
            parse_query(SQL, constraints=CONSTRAINED))
        raw = QueryExecutor(corpus).execute(plan)
        np.testing.assert_array_equal(results.image_ids, raw.selected_indices)
        assert all(row["location"] == "detroit" for row in results)

    def test_default_constraints_applied(self, db, camera_profiler,
                                         tiny_optimizer):
        results = db.execute(SQL)
        expected = tiny_optimizer.select(camera_profiler, CONSTRAINED)
        assert results.cascades_used["komondor"].name == expected.name

    def test_results_stream_with_fetchmany(self, db):
        results = db.execute(
            "SELECT * FROM images WHERE contains_object(komondor)")
        seen = []
        while True:
            batch = results.fetchmany(4)
            if not batch:
                break
            assert len(batch) <= 4
            seen.extend(row["image_id"] for row in batch)
        assert seen == list(results.image_ids)

    def test_limit_via_sql(self, db):
        limited = db.execute(
            "SELECT * FROM images WHERE contains_object(komondor) LIMIT 2")
        assert len(limited) <= 2

    def test_unknown_predicate_raises(self, db):
        with pytest.raises(KeyError):
            db.execute("SELECT * FROM images WHERE contains_object(zebra)")


class TestExplain:
    def test_explain_reports_choice_without_classifying(self, db):
        plan = db.explain(SQL)
        assert plan.categories == ("komondor",)
        step = plan.content_steps[0]
        assert step.evaluation.name
        assert 0.0 <= step.selectivity <= 1.0
        assert step.cost_per_image_s > 0
        # Nothing ran: no virtual column was materialized.
        assert db.executor.materialized_categories() == []
        text = str(plan)
        assert "contains_object(komondor)" in text
        assert "location" in text

    def test_explain_orders_content_steps_by_rank(self, db, tiny_optimizer):
        # Same optimizer under a second name: ranks tie, order is stable;
        # the invariant is that ranks are sorted ascending.
        db.register_optimizer("komondor_b", tiny_optimizer,
                              reference_params=REFERENCE_PARAMS)
        plan = db.explain("SELECT * FROM images WHERE "
                          "contains_object(komondor) AND "
                          "contains_object(komondor_b)")
        ranks = [step.rank for step in plan.content_steps]
        assert ranks == sorted(ranks)
        assert set(plan.categories) == {"komondor", "komondor_b"}


class TestScenarios:
    def test_use_scenario_by_name_changes_pricing(self, db):
        camera_plan = db.explain(SQL)
        db.use_scenario("infer_only")
        infer_plan = db.explain(SQL)
        assert camera_plan.scenario_name == "camera"
        assert infer_plan.scenario_name == "infer_only"
        # CAMERA pays a transform cost INFER_ONLY does not.
        assert (camera_plan.content_steps[0].cost_per_image_s
                >= infer_plan.content_steps[0].cost_per_image_s)

    def test_use_scenario_rejects_a_profiler(self, db, camera_profiler):
        with pytest.raises(TypeError, match="Scenario or a scenario name"):
            db.use_scenario(camera_profiler)
        assert db.scenario.name == "camera"

    def test_unknown_scenario_name(self, db):
        with pytest.raises(KeyError):
            db.use_scenario("underwater")

    def test_materialized_labels_always_match_reported_cascade(self, db, corpus):
        """Across scenario/constraint switches, served labels must come from
        the cascade reported in ``cascades_used`` — never a stale column."""
        sql = "SELECT * FROM images WHERE contains_object(komondor)"
        first = db.execute(sql)
        assert first.images_classified["komondor"] == len(corpus)
        db.use_scenario("infer_only")
        second = db.execute(sql)
        same_cascade = (second.cascades_used["komondor"].name
                        == first.cascades_used["komondor"].name)
        # Same cascade -> column reused; different cascade -> re-classified.
        assert second.images_classified["komondor"] == (
            0 if same_cascade else len(corpus))
        # Repeating under the now-current selection always hits the column.
        third = db.execute(sql)
        assert third.images_classified["komondor"] == 0

    def test_constraint_change_never_serves_stale_labels(self, db, corpus,
                                                         camera_profiler,
                                                         tiny_optimizer):
        sql = "SELECT * FROM images WHERE contains_object(komondor)"
        loose = UserConstraints(max_accuracy_loss=0.5)
        strict = UserConstraints(max_accuracy_loss=0.0)
        loose_choice = tiny_optimizer.select(camera_profiler, loose)
        strict_choice = tiny_optimizer.select(camera_profiler, strict)
        if loose_choice.name == strict_choice.name:
            pytest.skip("tiny optimizer selects one cascade for both budgets")
        first = db.execute(sql, constraints=loose)
        second = db.execute(sql, constraints=strict)
        assert first.cascades_used["komondor"].name == loose_choice.name
        assert second.cascades_used["komondor"].name == strict_choice.name
        # The strict query must not reuse the loose cascade's column.
        assert second.images_classified["komondor"] == len(corpus)


class TestRegisterPredicate:
    def _tiny_config(self):
        return TahomaConfig(
            architectures=(ArchitectureSpec(1, 4, 8),),
            transforms=(TransformSpec(8, "gray"), TransformSpec(8, "rgb")),
            precision_targets=(0.9,),
            max_depth=2,
            training=TrainingConfig(epochs=1, batch_size=16))

    def test_register_trains_and_answers(self, corpus, tiny_splits, tiny_device):
        database = connect(corpus, device=tiny_device, scenario=CAMERA,
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_predicate("komondor", tiny_splits,
                                    config=self._tiny_config(),
                                    reference_params={"epochs": 1,
                                                      **REFERENCE_PARAMS})
        assert database.predicates() == ["komondor"]
        results = database.execute(SQL)
        assert "contains_komondor" in results.columns
        assert results.images_classified["komondor"] > 0

    def test_reference_built_with_dense_units_round_trips(
            self, corpus, tiny_splits, tiny_device, tmp_path):
        database = connect(corpus, device=tiny_device, scenario=CAMERA,
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_predicate(
            "komondor", tiny_splits, config=self._tiny_config(),
            reference_params={"epochs": 1, "base_width": 4, "n_stages": 1,
                              "blocks_per_stage": 1, "dense_units": 8})
        before = database.execute(SQL)
        reloaded = VisualDatabase.load(database.save(tmp_path / "vdb"))
        after = reloaded.execute(SQL)
        np.testing.assert_array_equal(after.image_ids, before.image_ids)
        images = corpus.images[:6]
        np.testing.assert_array_equal(
            reloaded.optimizer("komondor").reference_model
            .predict_proba(images),
            database.optimizer("komondor").reference_model
            .predict_proba(images))

    def test_registration_without_reference_answers(self, corpus,
                                                    tiny_splits, tiny_device):
        database = connect(corpus, device=tiny_device, scenario=CAMERA,
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_predicate("komondor", tiny_splits,
                                    config=self._tiny_config(),
                                    train_reference=False)
        assert database.predicates() == ["komondor"]
        assert database.optimizer("komondor").reference_model is None
        results = database.execute(
            "SELECT * FROM images WHERE contains_object(komondor)")
        assert results.images_classified["komondor"] == len(corpus)


class TestNewDialect:
    """Projection, boolean trees, aggregates, ORDER BY through the facade."""

    def test_bare_scan_with_limit(self, db, corpus):
        results = db.execute("SELECT * FROM images LIMIT 5")
        assert len(results) == 5
        np.testing.assert_array_equal(results.image_ids, np.arange(5))
        # Nothing was classified for a pure scan.
        assert results.images_classified == {}

    def test_projection_restricts_columns(self, db):
        results = db.execute("SELECT image_id, location FROM images LIMIT 3")
        assert results.columns == ["image_id", "location"]
        assert set(results.row(0)) == {"image_id", "location"}

    def test_unknown_projection_column_raises_query_error(self, db):
        from repro.db import QueryError

        with pytest.raises(QueryError, match="nope"):
            db.execute("SELECT nope FROM images LIMIT 1")

    def test_type_mismatch_comparison_raises_query_error(self, db):
        from repro.db import QueryError

        with pytest.raises(QueryError, match="location"):
            db.execute("SELECT * FROM images WHERE location = 5")
        with pytest.raises(QueryError, match="camera_id"):
            db.execute("SELECT * FROM images WHERE camera_id = 'five'")

    def test_or_classifies_only_undecided_rows(self, db, corpus):
        # The cheap disjunct decides its rows; the cascade must only
        # classify the rows the metadata predicate left undecided.
        results = db.execute("SELECT * FROM images "
                             "WHERE location = 'detroit' "
                             "OR contains_object(komondor)")
        n_detroit = int((corpus.metadata["location"] == "detroit").sum())
        assert results.images_classified["komondor"] == len(corpus) - n_detroit
        # Every Detroit row is selected regardless of its label.
        detroit_ids = np.where(corpus.metadata["location"] == "detroit")[0]
        assert set(detroit_ids) <= set(results.image_ids)

    def test_or_matches_row_wise_reference(self, db, corpus):
        results = db.execute("SELECT * FROM images "
                             "WHERE location = 'detroit' "
                             "OR contains_object(komondor)")
        # Reference: evaluate the full column with the conjunctive path,
        # then OR row-wise.
        labels = db.execute("SELECT * FROM images "
                            "WHERE contains_object(komondor)")
        positive = set(labels.image_ids)
        expected = [i for i in range(len(corpus))
                    if corpus.metadata["location"][i] == "detroit"
                    or i in positive]
        np.testing.assert_array_equal(np.sort(results.image_ids), expected)

    def test_not_inverts_content_predicate(self, db, corpus):
        selected = db.execute(
            "SELECT * FROM images WHERE contains_object(komondor)")
        inverted = db.execute(
            "SELECT * FROM images WHERE NOT contains_object(komondor)")
        assert (set(selected.image_ids) | set(inverted.image_ids)
                == set(range(len(corpus))))
        assert not set(selected.image_ids) & set(inverted.image_ids)

    def test_order_by_metadata_desc(self, db, corpus):
        results = db.execute("SELECT * FROM images ORDER BY timestamp DESC "
                             "LIMIT 4")
        timestamps = [row["timestamp"] for row in results]
        assert timestamps == sorted(timestamps, reverse=True)
        assert timestamps[0] == corpus.metadata["timestamp"].max()

    def test_order_by_disables_early_stop(self, db, corpus):
        # LIMIT under ORDER BY must consider every candidate: the last row
        # in corpus order has the largest timestamp, so an early-stopped
        # scan could never return it.
        results = db.execute("SELECT * FROM images ORDER BY timestamp DESC "
                             "LIMIT 1")
        assert results.row(0)["timestamp"] == corpus.metadata["timestamp"].max()

    def test_global_count(self, db, corpus):
        results = db.execute("SELECT COUNT(*) FROM images")
        assert len(results) == 1
        assert results.row(0) == {"count(*)": len(corpus)}

    def test_grouped_count_matches_row_wise(self, db, corpus):
        results = db.execute("SELECT location, COUNT(*) FROM images "
                             "WHERE contains_object(komondor) "
                             "GROUP BY location")
        rows = db.execute("SELECT * FROM images "
                          "WHERE contains_object(komondor)")
        reference = {}
        for row in rows:
            reference[row["location"]] = reference.get(row["location"], 0) + 1
        assert {row["location"]: row["count(*)"]
                for row in results} == reference

    def test_aggregate_result_has_no_image_ids(self, db):
        from repro.db import QueryError

        results = db.execute("SELECT COUNT(*) FROM images")
        with pytest.raises(QueryError):
            results.image_ids

    def test_explain_renders_new_stages(self, db):
        plan = db.explain("SELECT location, COUNT(*) FROM images "
                          "WHERE location = 'detroit' "
                          "OR contains_object(komondor) "
                          "GROUP BY location ORDER BY COUNT(*) DESC LIMIT 3")
        text = str(plan)
        assert "OR" in text
        assert "aggregate count(*) group by location" in text
        assert "order by count(*) DESC" in text
        assert "limit    3" in text
        assert not plan.allow_early_stop


class TestFanoutAggregates:
    @pytest.fixture()
    def multi_db(self, tiny_optimizer, tiny_device):
        # Different sizes and positive rates per shard so per-shard averages
        # differ (an average-of-averages bug would be visible).
        shards = {
            f"cam_{index}": generate_corpus(
                (get_category("komondor"),), n_images=12 + 8 * index,
                image_size=TINY_SIZE, rng=np.random.default_rng(40 + index),
                positive_rate=0.3 + 0.2 * index)
            for index in range(3)
        }
        database = connect(shards, device=tiny_device, scenario=CAMERA,
                           calibrate_target_fps=None,
                           default_constraints=CONSTRAINED)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        database.register_optimizer("komondor2", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        return database

    def test_acceptance_grouped_count_over_fanout(self, multi_db):
        """The ISSUE acceptance query: per-shard partials whose merge equals
        the row-wise reference."""
        results = multi_db.execute(
            "SELECT location, COUNT(*) FROM all_cameras "
            "WHERE contains_object(komondor) OR contains_object(komondor2) "
            "GROUP BY location ORDER BY COUNT(*) DESC LIMIT 3")
        # Row-wise reference through the conjunctive (seed) path: komondor2
        # is the same optimizer, so the disjunction selects exactly the
        # komondor-positive rows of every shard.
        reference: dict[str, int] = {}
        for table in multi_db.tables():
            rows = multi_db.execute(f"SELECT * FROM {table} "
                                    "WHERE contains_object(komondor)")
            for row in rows:
                reference[row["location"]] = reference.get(row["location"],
                                                           0) + 1
        expected = sorted(reference.items(), key=lambda kv: -kv[1])[:3]
        got = [(row["location"], row["count(*)"]) for row in results]
        assert sorted(got, key=lambda kv: (-kv[1], kv[0])) == sorted(
            expected, key=lambda kv: (-kv[1], kv[0]))
        counts = [count for _, count in got]
        assert counts == sorted(counts, reverse=True)
        # Per-shard provenance came along with the merged groups.
        assert set(results.plans) == set(multi_db.tables())
        assert set(results.images_classified) == set(multi_db.tables())

    def test_fanout_avg_is_exact_sum_count_merge(self, multi_db):
        results = multi_db.execute("SELECT AVG(timestamp) FROM all_cameras")
        merged = np.concatenate(
            [multi_db.corpus_for(table).metadata["timestamp"]
             for table in multi_db.tables()])
        assert results.row(0)["avg(timestamp)"] == pytest.approx(
            merged.mean())
        # The wrong merge (average of per-shard averages) differs here.
        shard_means = [multi_db.corpus_for(t).metadata["timestamp"].mean()
                       for t in multi_db.tables()]
        assert np.mean(shard_means) != pytest.approx(merged.mean(), rel=1e-12)

    def test_fanout_min_max_count(self, multi_db):
        results = multi_db.execute(
            "SELECT COUNT(*), MIN(timestamp), MAX(timestamp) "
            "FROM all_cameras")
        merged = np.concatenate(
            [multi_db.corpus_for(table).metadata["timestamp"]
             for table in multi_db.tables()])
        row = results.row(0)
        assert row["count(*)"] == merged.size
        assert row["min(timestamp)"] == pytest.approx(merged.min())
        assert row["max(timestamp)"] == pytest.approx(merged.max())

    def test_fanout_order_by_sorts_merged_rows(self, multi_db):
        results = multi_db.execute(
            "SELECT * FROM all_cameras ORDER BY timestamp DESC LIMIT 5")
        timestamps = [row["timestamp"] for row in results]
        assert len(results) == 5
        assert timestamps == sorted(timestamps, reverse=True)
        merged = np.concatenate(
            [multi_db.corpus_for(table).metadata["timestamp"]
             for table in multi_db.tables()])
        assert timestamps[0] == merged.max()


class TestPersistence:
    def test_save_load_roundtrip_identical_results(self, db, tmp_path):
        before = db.execute(SQL)
        root = db.save(tmp_path / "vdb")

        reloaded = VisualDatabase.load(root)
        assert reloaded.scenario.name == "camera"
        assert reloaded.predicates() == db.predicates()
        assert len(reloaded.corpus) == len(db.corpus)
        after = reloaded.execute(SQL)
        np.testing.assert_array_equal(after.image_ids, before.image_ids)
        assert after.columns == before.columns
        np.testing.assert_array_equal(
            after.to_relation()["contains_komondor"],
            before.to_relation()["contains_komondor"])

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            VisualDatabase.load(tmp_path)

    def test_roundtrip_preserves_constraints_and_resolutions(self, db, tmp_path):
        root = db.save(tmp_path / "vdb")
        reloaded = VisualDatabase.load(root)
        assert reloaded.default_constraints == CONSTRAINED
        assert reloaded.cost_resolution == db.cost_resolution
        assert reloaded.profiler.source_resolution == db.profiler.source_resolution


class TestLifecycle:
    def test_close_is_idempotent(self, db):
        assert db.closed is False
        db.close()
        assert db.closed is True
        db.close()

    def test_queries_after_close_raise(self, db):
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.execute(SQL)
        with pytest.raises(RuntimeError, match="closed"):
            db.explain(SQL)

    def test_mutations_after_close_raise(self, db, corpus, tiny_optimizer):
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.ingest(corpus.images[:2], metadata={
                name: column[:2]
                for name, column in corpus.metadata.items()})
        with pytest.raises(RuntimeError, match="closed"):
            db.attach("late", corpus)
        # Refused before any training: no splits are even looked at.
        with pytest.raises(RuntimeError, match="closed"):
            db.register_predicate("late", splits=None)
        with pytest.raises(RuntimeError, match="closed"):
            db.register_optimizer("late", tiny_optimizer)
        with pytest.raises(RuntimeError, match="closed"):
            db.use_scenario("archive")
        assert db.predicates() == ["komondor"]

    def test_close_detaches_tables_and_clears_store(self, db):
        db.execute(SQL)  # materialize some state first
        db.close()
        assert db.tables() == []
        assert db.catalog.store.total_bytes_stored() == 0

    def test_context_manager_closes(self, corpus):
        with connect(corpus, calibrate_target_fps=None) as database:
            assert database.closed is False
        assert database.closed is True

    def test_entering_closed_database_raises(self, corpus):
        database = connect(corpus, calibrate_target_fps=None)
        database.close()
        with pytest.raises(RuntimeError, match="closed"):
            with database:
                pass


class TestPlanSerialization:
    def test_to_dict_is_json_ready(self, db):
        import json

        plan = db.explain(SQL)
        payload = plan.to_dict()
        json.dumps(payload)
        assert payload["table"] == "images"
        assert payload["scenario"] == "camera"
        tree = payload["predicate_tree"]
        assert tree["op"] == "and"
        assert tree["children"][0] == {
            "op": "filter", "column": "location", "operator": "==",
            "value": "detroit"}
        assert "metadata_steps" not in payload
        step = payload["content_steps"][0]
        assert tree["children"][1] == step
        assert step["category"] == "komondor"
        assert step["depth"] >= 1
        assert step["cost_per_image_s"] > 0

    def test_to_dict_covers_projection_and_aggregates(self, db):
        payload = db.explain("SELECT count(*), avg(timestamp) FROM images "
                             "GROUP BY location ORDER BY location "
                             "LIMIT 3").to_dict()
        assert payload["is_aggregate"] is True
        assert payload["group_by"] == ["location"]
        assert payload["order_by"] == [{"key": "location", "ascending": True}]
        assert payload["limit"] == 3
