"""End-to-end telemetry tests: EXPLAIN ANALYZE, traces, stats and the wire.

One two-camera database (module scope — training is shared via the session
fixtures) backs every test; the server tests run it behind a real socket.
"""

import json
import time

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.costs.scenario import CAMERA
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect as db_connect
import repro.query.sql as sql_module
from repro.query.ast import SqlParseError, tokenize
from repro.query.sql import parse_query, split_explain_analyze
from repro.server import connect, serve
from repro.telemetry.metrics import CATALOG
from tests.conftest import TINY_SIZE

CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
FANOUT_SQL = ("SELECT * FROM all_cameras WHERE location = 'detroit' "
              "AND contains_object(komondor)")
ACTUAL_KEYS = {"rows_in", "rows_out", "rows_classified", "elapsed_s",
               "actual_selectivity"}


def make_corpus(n_images: int, seed: int):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


@pytest.fixture(scope="module")
def db(tiny_optimizer, tiny_device):
    database = db_connect(
        {"cam_a": make_corpus(30, seed=9), "cam_b": make_corpus(24, seed=10)},
        device=tiny_device, scenario=CAMERA, calibrate_target_fps=None,
        default_constraints=CONSTRAINED, plan_cache=True)
    database.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


class TestSplitExplainAnalyze:
    def test_prefix_detected_and_stripped(self):
        analyze, body = split_explain_analyze(
            "EXPLAIN ANALYZE SELECT * FROM images")
        assert analyze is True
        assert body.strip() == "SELECT * FROM images"

    def test_case_insensitive(self):
        analyze, body = split_explain_analyze(
            "explain analyze select count(*) from cam_a")
        assert analyze is True
        assert body.strip() == "select count(*) from cam_a"

    def test_bare_select_passes_through(self):
        analyze, body = split_explain_analyze("SELECT * FROM images")
        assert analyze is False
        assert body == "SELECT * FROM images"

    def test_bare_explain_is_not_analyze(self):
        analyze, _ = split_explain_analyze("EXPLAIN SELECT * FROM images")
        assert analyze is False

    def test_parse_query_rejects_the_prefix(self):
        # The facade strips the prefix; the parser never sees it.
        with pytest.raises(SqlParseError):
            parse_query("EXPLAIN ANALYZE SELECT * FROM images")

    def test_parse_query_tokenizes_once(self, monkeypatch):
        calls = []

        def counting(sql):
            calls.append(sql)
            return tokenize(sql)

        monkeypatch.setattr(sql_module, "tokenize", counting)
        parse_query("SELECT * FROM images WHERE contains_object(komondor)")
        assert len(calls) == 1

    def test_analyze_without_select_rejected(self):
        with pytest.raises(SqlParseError):
            parse_query("EXPLAIN ANALYZE")


class TestExplainAnalyzeSingleTable:
    def test_report_shape(self, db):
        report = db.execute("EXPLAIN ANALYZE SELECT * FROM cam_a "
                            "WHERE contains_object(komondor)")
        assert isinstance(report, dict)
        assert report["sql"] == ("SELECT * FROM cam_a "
                                 "WHERE contains_object(komondor)")
        assert report["trace_id"].startswith("t")
        assert report["wall_time_s"] > 0
        assert report["rows"] == len(db.execute(
            "SELECT * FROM cam_a WHERE contains_object(komondor)"))
        json.dumps(report)  # the whole report must be JSON-safe

    def test_plan_nodes_carry_estimated_and_actual(self, tiny_optimizer,
                                                   tiny_device):
        # A cold database: rows_classified must count *fresh* cascade work,
        # which a warm shard (labels already materialized) reports as 0.
        db = db_connect({"cam_a": make_corpus(30, seed=9)},
                        device=tiny_device, scenario=CAMERA,
                        calibrate_target_fps=None,
                        default_constraints=CONSTRAINED)
        db.register_optimizer("komondor", tiny_optimizer,
                              reference_params=REFERENCE_PARAMS)
        report = db.explain_analyze("SELECT * FROM cam_a "
                                    "WHERE location = 'detroit' "
                                    "AND contains_object(komondor)")
        plan = report["plan"]
        assert "metadata_steps" not in plan
        tree = plan["predicate_tree"]
        assert tree["op"] == "and"
        steps = tree["children"]
        assert [step["op"] for step in steps] == ["filter", "cascade"]
        for step in steps + [tree]:
            assert 0.0 <= step["estimated_selectivity"] <= 1.0
            assert ACTUAL_KEYS <= set(step["actual"])
            assert step["actual"]["rows_in"] > 0
        # The cascade listing carries the same node, same measurements.
        cascade_step = plan["content_steps"][0]
        assert cascade_step == steps[1]
        assert cascade_step["actual"]["rows_classified"] > 0
        actual = cascade_step["actual"]
        assert actual["actual_selectivity"] == pytest.approx(
            actual["rows_out"] / actual["rows_in"])

    def test_metadata_actuals_do_not_depend_on_the_rest_of_the_tree(self, db):
        # Regression: the same top-level filter used to read 30 -> 12 rows
        # beside a bare cascade but 12 -> 12 (selectivity 1.0) beside an OR,
        # whose arm prefiltered without recording and re-counted per chunk.
        n_rows = len(db.execute("SELECT * FROM cam_a"))
        n_detroit = len(db.execute(
            "SELECT * FROM cam_a WHERE location = 'detroit'"))
        assert 0 < n_detroit < n_rows
        for rest in ("contains_object(komondor)",
                     "(contains_object(komondor) OR timestamp > 0)"):
            report = db.explain_analyze(
                f"SELECT * FROM cam_a WHERE location = 'detroit' AND {rest}")
            root = report["plan"]["predicate_tree"]
            assert root["op"] == "and"
            filter_node = root["children"][0]
            assert filter_node["op"] == "filter"
            assert filter_node["actual"]["rows_in"] == n_rows
            assert filter_node["actual"]["rows_out"] == n_detroit
            assert filter_node["actual"]["actual_selectivity"] == \
                pytest.approx(n_detroit / n_rows)
            assert root["actual"]["rows_in"] == n_rows
            assert root["actual"]["rows_out"] == report["rows"]

    def test_free_disjunct_is_consulted_before_the_cascade(self, db):
        # `timestamp > 0` accepts every row, so the OR is decided before the
        # cascade is reached: the filter carries actuals, the cascade none.
        report = db.explain_analyze(
            "SELECT * FROM cam_a "
            "WHERE contains_object(komondor) OR timestamp > 0")
        first, second = report["plan"]["predicate_tree"]["children"]
        assert first["op"] == "filter" and "actual" in first
        assert second["op"] == "cascade" and "actual" not in second

    def test_accepts_prefixed_and_bare_sql(self, db):
        sql = "SELECT count(*) FROM cam_a WHERE contains_object(komondor)"
        bare = db.explain_analyze(sql)
        prefixed = db.explain_analyze(f"EXPLAIN ANALYZE {sql}")
        assert bare["rows"] == prefixed["rows"]
        assert bare["plan"]["table"] == prefixed["plan"]["table"] == "cam_a"

    def test_or_tree_reports_short_circuit_savings(self, db):
        report = db.explain_analyze("SELECT * FROM cam_a "
                                    "WHERE location = 'detroit' "
                                    "OR contains_object(komondor)")
        tree = report["plan"]["predicate_tree"]
        assert tree["op"] == "or"
        assert tree["actual"]["short_circuit_rows_saved"] >= 0
        for child in tree["children"]:
            assert "estimated_selectivity" in child


def _cascade_leaves(node):
    """Every cascade leaf of a serialized predicate tree."""
    if node["op"] == "cascade":
        return [node]
    children = [node["child"]] if node["op"] == "not" else \
        node.get("children", [])
    return [leaf for child in children for leaf in _cascade_leaves(child)]


class TestOneRecordPerClassification:
    """A classification is recorded once, where the content leaf is
    evaluated: the leaves' ``rows_classified``, ``images_classified`` and
    ``repro_query_rows_classified_total`` count the same rows."""

    @pytest.fixture()
    def cold(self, tiny_optimizer, tiny_device):
        database = db_connect({"cam_a": make_corpus(30, seed=9)},
                              device=tiny_device, scenario=CAMERA,
                              calibrate_target_fps=None,
                              default_constraints=CONSTRAINED)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        return database

    @pytest.mark.parametrize("sql", [
        # Classified inside the tree only.
        "SELECT * FROM cam_a WHERE location = 'detroit' "
        "AND contains_object(komondor)",
        # The free disjunct decides every row, so the selected column is
        # classified only after the tree.
        "SELECT image_id, contains_komondor FROM cam_a "
        "WHERE timestamp > 0 OR contains_object(komondor)",
        # Both: the tree classifies the rows the filter left undecided,
        # the fill after it the rows the filter accepted.
        "SELECT contains_komondor FROM cam_a "
        "WHERE location = 'detroit' OR contains_object(komondor)",
    ], ids=["tree", "fill", "tree_and_fill"])
    def test_leaf_counts_equal_images_classified(self, cold, sql):
        report = cold.explain_analyze(sql)
        (shard,) = [child for child in report["spans"]["children"]
                    if child["name"] == "table:cam_a"]
        (execute,) = [child for child in shard["children"]
                      if child["name"] == "execute"]
        classified = execute["attrs"]["images_classified"]
        assert classified["komondor"] > 0
        per_category: dict[str, int] = {}
        for leaf in _cascade_leaves(report["plan"]["predicate_tree"]):
            per_category[leaf["category"]] = (
                per_category.get(leaf["category"], 0)
                + leaf.get("actual", {}).get("rows_classified", 0))
        assert per_category == classified
        assert cold.metrics.value("repro_query_rows_classified_total",
                                  table="cam_a", category="komondor") == \
            classified["komondor"]

    def test_leaf_elapsed_is_timed_by_one_clock(self, cold, monkeypatch):
        # Each classify call sleeps DELAY: a leaf timed by one clock reads
        # one DELAY per call, a tree-branch clock around the leaf's own
        # would count it twice.
        from repro.core.cascade import Cascade

        delay, calls = 0.25, []
        classify = Cascade.classify_with_stats

        def slow(self, *args, **kwargs):
            calls.append(1)
            time.sleep(delay)
            return classify(self, *args, **kwargs)

        monkeypatch.setattr(Cascade, "classify_with_stats", slow)
        report = cold.explain_analyze("SELECT * FROM cam_a "
                                      "WHERE contains_object(komondor)")
        (leaf,) = report["plan"]["content_steps"]
        assert len(calls) == 1 and leaf["actual"]["rows_classified"] > 0
        assert delay <= leaf["actual"]["elapsed_s"] < 2 * delay


class TestExplainAnalyzeFanout:
    def test_per_shard_plans_and_span_parentage(self, db):
        report = db.execute(f"EXPLAIN ANALYZE {FANOUT_SQL}")
        assert sorted(report["plans"]) == ["cam_a", "cam_b"]
        for plan in report["plans"].values():
            step = plan["content_steps"][0]
            assert ACTUAL_KEYS <= set(step["actual"])

        spans = report["spans"]
        assert spans["name"] == "query"
        assert spans["trace_id"] == report["trace_id"]
        children = {child["name"]: child for child in spans["children"]}
        assert {"plan", "table:cam_a", "table:cam_b"} <= set(children)
        for table in ("cam_a", "cam_b"):
            shard = children[f"table:{table}"]
            assert shard["attrs"]["table"] == table
            assert shard["elapsed_s"] is not None
            phases = [child["name"] for child in shard["children"]]
            assert phases[0] == "snapshot-capture"
            assert "execute" in phases
            assert phases[-1] == "merge"
            (execute_span,) = [child for child in shard["children"]
                               if child["name"] == "execute"]
            cascade_spans = [child for child in execute_span["children"]
                             if child["name"].startswith("cascade:")]
            assert cascade_spans, "per-predicate cascade spans missing"
            assert cascade_spans[0]["attrs"]["rows_in"] > 0

    def test_fanout_rows_match_plain_execution(self, db):
        report = db.execute(f"EXPLAIN ANALYZE {FANOUT_SQL}")
        assert report["rows"] == len(db.execute(FANOUT_SQL))


class TestResultSetStats:
    def test_stats_dict(self, db):
        result = db.execute("SELECT * FROM cam_a "
                            "WHERE contains_object(komondor)")
        stats = result.stats()
        assert stats["rows"] == len(result)
        assert stats["wall_time_s"] > 0
        assert stats["trace_id"].startswith("t")
        assert stats["cascades_used"]["komondor"] == \
            result.cascades_used["komondor"].name
        json.dumps(stats)

    def test_fanout_and_aggregate_stats(self, db):
        fanout = db.execute(FANOUT_SQL)
        assert sorted(fanout.stats()["cascades_used"]) == ["cam_a", "cam_b"]
        aggregate = db.execute("SELECT count(*) FROM all_cameras")
        stats = aggregate.stats()
        assert stats["rows"] == 1
        assert stats["trace_id"].startswith("t")
        json.dumps(stats)


class TestTelemetrySnapshot:
    def test_metrics_and_traces(self, db):
        db.execute("SELECT * FROM cam_a WHERE contains_object(komondor)")
        telemetry = db.telemetry()
        json.dumps(telemetry)
        for spec in CATALOG:
            assert spec.name in telemetry["metrics"]
        assert db.metrics.value("repro_query_execute_seconds",
                                table="cam_a") > 0
        assert db.metrics.value("repro_query_plan_seconds",
                                table="cam_a") > 0
        assert db.metrics.value("repro_query_rows_classified_total",
                                table="cam_a", category="komondor") > 0
        traces = telemetry["traces"]
        assert traces and traces[-1]["name"] == "query"

    def test_plan_cache_counters_on_registry(self, db):
        sql = "SELECT * FROM cam_b WHERE contains_object(komondor)"
        db.execute(sql)
        before = db.metrics.value("repro_plan_cache_lookups_total",
                                  outcome="hit")
        db.execute(sql)
        after = db.metrics.value("repro_plan_cache_lookups_total",
                                 outcome="hit")
        assert after == before + 1
        assert db.plan_cache.stats()["hits"] == after

    def test_ingest_traced(self, db):
        corpus = db.corpus_for("cam_b")
        metadata = {name: np.asarray(corpus.metadata[name][:2])
                    for name in corpus.metadata}
        db.ingest(corpus.images[:2], metadata=metadata, table="cam_b")
        ingests = [trace for trace in db.telemetry()["traces"]
                   if trace["name"] == "ingest"]
        assert ingests
        assert ingests[-1]["attrs"] == {"table": "cam_b", "rows": 2}
        assert ingests[-1]["elapsed_s"] is not None


class TestOverTheWire:
    @pytest.fixture(scope="class")
    def server(self, db):
        with serve(db, port=0, max_workers=2, max_queue=8) as running:
            yield running

    @pytest.fixture()
    def conn(self, server):
        with connect(*server.address, timeout=30) as connection:
            yield connection

    def test_explain_analyze_returns_report_not_cursor(self, conn):
        report = conn.execute("EXPLAIN ANALYZE SELECT * FROM cam_a "
                              "WHERE contains_object(komondor)")
        assert isinstance(report, dict)
        assert "plan" in report and "spans" in report
        assert report["rows"] >= 0

    def test_metrics_command_json(self, conn):
        # A request's latency is observed after its response is built, so
        # ping first and look for it in the following snapshot.
        conn.ping()
        snapshot = conn.metrics()
        for spec in CATALOG:
            assert spec.name in snapshot
        request_series = snapshot["repro_server_request_seconds"]["series"]
        assert any(series["labels"]["cmd"] == "ping"
                   for series in request_series)

    def test_metrics_command_text_exposition(self, conn):
        text = conn.metrics(format="text")
        assert isinstance(text, str)
        for spec in CATALOG:
            assert f"# TYPE {spec.name} {spec.kind}" in text

    def test_bad_format_rejected(self, conn):
        from repro.server.protocol import ProtocolError
        with pytest.raises(ProtocolError):
            conn.metrics(format="xml")

    def test_stats_and_metrics_agree(self, conn):
        cursor = conn.execute("SELECT * FROM cam_a LIMIT 1")
        cursor.close()
        stats = conn.stats()
        snapshot = conn.metrics()
        completed = [series["value"] for series in
                     snapshot["repro_admission_queries_total"]["series"]
                     if series["labels"]["event"] == "completed"]
        assert stats["admission"]["completed"] == completed[0] > 0
        lookups = {series["labels"]["outcome"]: series["value"] for series in
                   snapshot["repro_plan_cache_lookups_total"]["series"]}
        assert stats["plan_cache"]["hits"] == lookups.get("hit", 0)
