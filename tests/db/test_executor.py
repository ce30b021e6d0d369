"""Tests for the query executor: shared store, materialization, LIMIT."""

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import executor as executor_module
from repro.db.executor import QueryExecutor
from repro.db.planner import MetadataStep, PlanAnd, QueryPlanner
from repro.query.ast import AndExpr, NotExpr, OrExpr, PredicateExpr
from repro.query.model import Query
from repro.query.predicates import ContainsObject, MetadataPredicate
from tests.conftest import TINY_SIZE
from tests.where import conjunction


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus((get_category("komondor"),), n_images=30,
                           image_size=TINY_SIZE, rng=np.random.default_rng(77),
                           positive_rate=0.9)


@pytest.fixture()
def planner(tiny_optimizer, camera_profiler):
    # The same optimizer registered under two names lets tests issue
    # two-content-predicate queries without training a second model pool.
    return QueryPlanner({"komondor": tiny_optimizer, "komondor2": tiny_optimizer},
                        camera_profiler)


CONSTRAINED = UserConstraints(max_accuracy_loss=0.1)


@pytest.fixture()
def small_chunks(monkeypatch):
    """LIMIT and cancellable queries classify 4-row chunks, not 64-row ones."""
    monkeypatch.setattr(executor_module, "MIN_LIMIT_CHUNK", 4)


class TestSharedRepresentationStore:
    def test_store_persists_across_queries(self, corpus, planner):
        executor = QueryExecutor(corpus)
        assert len(executor.store) == 0
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))
        executor.execute(plan)
        n_after_first = len(executor.store)
        assert n_after_first > 0
        # Re-running after invalidating labels must not add representations:
        # the full-corpus representations are already materialized.
        executor.invalidate()
        executor.execute(plan)
        assert len(executor.store) == n_after_first

    def test_representations_shared_across_predicates(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor"),
                              ContainsObject("komondor2")),
            constraints=CONSTRAINED))
        result = executor.execute(plan)
        # Both predicates use the same cascade, hence the same representations;
        # the store holds one full-corpus copy per representation, not two.
        transforms = {model.transform.name
                      for step in plan.content_steps
                      for model in step.evaluation.cascade.models}
        assert len(executor.store) == len(transforms)
        # Identical optimizers must agree row by row.
        np.testing.assert_array_equal(
            result.relation["contains_komondor"],
            result.relation["contains_komondor2"])

    def test_broad_queries_materialize_full_corpus(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))
        executor.execute(plan)
        assert len(executor.store) > 0
        for spec, array, _ in executor.store.arrays_by_recency():
            assert array.shape[0] == executor.store.rows(spec) == len(corpus)

    def test_narrow_queries_do_not_bloat_the_store(self, corpus, planner,
                                                   transformed_rows):
        # 'detroit' selects roughly a third of the corpus, below
        # FULL_MATERIALIZE_FRACTION: each cascade level transforms just the
        # rows reaching it and no corpus-wide representation is cached.
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(MetadataPredicate("location", "==", "detroit"),
                              ContainsObject("komondor")),
            constraints=CONSTRAINED))
        transformed_rows.clear()
        result = executor.execute(plan)
        assert result.images_classified["komondor"] > 0
        assert len(executor.store) == 0
        cascade = plan.content_steps[0].evaluation.cascade
        evaluated = [
            int(executor.metrics.value("repro_cascade_level_evaluated_total",
                                       cascade=cascade.name, level=str(index)))
            for index in range(cascade.depth)]
        # The fixture's cascade has two levels over distinct specs, and the
        # first decides most (not all) of detroit.
        assert 0 < evaluated[1] < evaluated[0]
        assert evaluated[0] == result.images_classified["komondor"]
        assert transformed_rows == {
            level.model.transform.name: rows
            for level, rows in zip(cascade.levels, evaluated)}
        assert executor.metrics.value("repro_store_misses_total") == 2
        assert executor.metrics.value("repro_store_hits_total") == 0

    def test_narrow_queries_slice_already_stored_representations(
            self, corpus, planner, transformed_rows):
        executor = QueryExecutor(corpus)
        broad = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))
        executor.execute(broad)
        n_stored = len(executor.store)
        assert executor.metrics.value("repro_store_misses_total") == n_stored
        executor.invalidate()
        narrow = planner.plan(Query(
            where=conjunction(MetadataPredicate("location", "==", "detroit"),
                              ContainsObject("komondor")),
            constraints=CONSTRAINED))
        transformed_rows.clear()
        executor.execute(narrow)
        # The warm store was reused: nothing transformed, nothing added.
        assert not transformed_rows
        assert len(executor.store) == n_stored
        assert executor.metrics.value("repro_store_hits_total") == n_stored
        assert executor.metrics.value("repro_store_misses_total") == n_stored


class TestMaterializedColumns:
    def test_rows_never_reclassified(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))
        first = executor.execute(plan)
        second = executor.execute(plan)
        assert first.images_classified["komondor"] == len(corpus)
        assert second.images_classified["komondor"] == 0
        np.testing.assert_array_equal(first.selected_indices,
                                      second.selected_indices)

    def test_invalidate_single_category(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))
        executor.execute(plan)
        executor.invalidate("komondor")
        assert executor.materialized_categories() == []
        assert executor.execute(plan).images_classified["komondor"] == len(corpus)

    def test_second_predicate_sees_shrunken_candidate_set(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor"),
                              ContainsObject("komondor2")),
            constraints=CONSTRAINED))
        result = executor.execute(plan)
        first_cat, second_cat = plan.categories
        assert result.images_classified[first_cat] == len(corpus)
        # The second predicate only classifies rows the first let through.
        assert (result.images_classified[second_cat]
                <= result.images_classified[first_cat])


class TestLimit:
    def test_limit_truncates_selected_rows(self, corpus, planner):
        executor = QueryExecutor(corpus)
        unlimited = executor.execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED)))
        if len(unlimited) < 2:
            pytest.skip("corpus produced too few positives to exercise LIMIT")
        limit = len(unlimited) - 1
        limited = executor.execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED, limit=limit)))
        assert len(limited) == limit
        np.testing.assert_array_equal(limited.selected_indices,
                                      unlimited.selected_indices[:limit])
        assert len(limited.relation) == limit

    def test_limit_larger_than_result_is_noop(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED, limit=10_000))
        assert len(executor.execute(plan)) <= 10_000

    def test_limit_zero_returns_nothing(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(MetadataPredicate("location", "==", "detroit")),
            limit=0))
        assert len(executor.execute(plan)) == 0

    def test_limit_zero_classifies_nothing(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED, limit=0))
        result = executor.execute(plan)
        assert len(result) == 0
        assert result.images_classified["komondor"] == 0

    @pytest.mark.usefixtures("small_chunks")
    def test_limit_early_stop_with_two_content_predicates(self, corpus,
                                                          planner):
        # Regression: chunked early-stop must apply per chunk across *all*
        # content steps — the second predicate only sees survivors of the
        # first, and neither sweeps the corpus once the limit is satisfied.
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor"),
                              ContainsObject("komondor2")),
            constraints=CONSTRAINED, limit=1))
        result = executor.execute(plan)
        first_cat, second_cat = plan.categories
        assert (result.images_classified[second_cat]
                <= result.images_classified[first_cat])
        if len(result) == 1:
            assert result.images_classified[first_cat] < len(corpus)
            unlimited = QueryExecutor(corpus).execute(planner.plan(Query(
                where=conjunction(ContainsObject("komondor"),
                                  ContainsObject("komondor2")),
                constraints=CONSTRAINED)))
            np.testing.assert_array_equal(result.selected_indices,
                                          unlimited.selected_indices[:1])

    def test_limit_zero_with_two_content_predicates(self, corpus, planner):
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor"),
                              ContainsObject("komondor2")),
            constraints=CONSTRAINED, limit=0))
        result = executor.execute(plan)
        assert len(result) == 0
        assert all(count == 0 for count in result.images_classified.values())

    @pytest.mark.usefixtures("small_chunks")
    def test_limit_stops_classifying_early(self, corpus, planner):
        # Small chunks so the 30-image corpus spans several of them: once a
        # chunk yields enough survivors, later chunks are never classified.
        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED, limit=1))
        result = executor.execute(plan)
        if len(result) == 1:
            assert result.images_classified["komondor"] < len(corpus)
        # And the rows returned are the first survivors in corpus order.
        executor_full = QueryExecutor(corpus)
        unlimited = executor_full.execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED)))
        np.testing.assert_array_equal(result.selected_indices,
                                      unlimited.selected_indices[:1])


class TestScenarioSwitchKeying:
    def test_labels_keyed_by_producing_cascade(self, corpus, tiny_optimizer,
                                               camera_profiler,
                                               infer_only_profiler):
        # Regression: materialized labels are keyed by (category, cascade);
        # a scenario/constraint switch that selects a different cascade must
        # re-classify, and switching back must serve the original labels.
        executor = QueryExecutor(corpus)
        planner_a = QueryPlanner({"komondor": tiny_optimizer}, camera_profiler)
        planner_b = QueryPlanner({"komondor": tiny_optimizer},
                                 infer_only_profiler)
        query = Query(where=conjunction(ContainsObject("komondor")),
                      constraints=CONSTRAINED)
        loose = Query(where=conjunction(ContainsObject("komondor")),
                      constraints=UserConstraints())
        plan_a = planner_a.plan(query)
        plan_b = next((plan for plan in (planner_b.plan(query),
                                         planner_a.plan(loose),
                                         planner_b.plan(loose))
                       if (plan.content_steps[0].evaluation.cascade.name
                           != plan_a.content_steps[0].evaluation.cascade.name)),
                      None)
        if plan_b is None:
            pytest.skip("all scenario/constraint combinations selected the "
                        "same cascade")
        first = executor.execute(plan_a)
        assert first.images_classified["komondor"] == len(corpus)
        switched = executor.execute(plan_b)
        assert switched.images_classified["komondor"] == len(corpus)
        back = executor.execute(plan_a)
        assert back.images_classified["komondor"] == 0
        np.testing.assert_array_equal(back.selected_indices,
                                      first.selected_indices)


class TestBareScan:
    def test_no_predicates_returns_all_rows(self, corpus, planner):
        executor = QueryExecutor(corpus)
        result = executor.execute(planner.plan(Query()))
        assert len(result) == len(corpus)
        np.testing.assert_array_equal(result.selected_indices,
                                      np.arange(len(corpus)))

    def test_scan_with_limit(self, corpus, planner):
        executor = QueryExecutor(corpus)
        result = executor.execute(planner.plan(Query(limit=3)))
        np.testing.assert_array_equal(result.selected_indices, [0, 1, 2])


class TestBooleanTrees:
    def _tree_query(self, *, where, **kwargs):
        return Query(where=where, constraints=CONSTRAINED, **kwargs)

    def test_or_classifies_only_undecided_rows(self, corpus, planner):
        executor = QueryExecutor(corpus)
        where = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            PredicateExpr(ContainsObject("komondor"))))
        plan = planner.plan(self._tree_query(where=where))
        assert plan.predicate_tree is not None
        result = executor.execute(plan)
        n_detroit = int((corpus.metadata["location"] == "detroit").sum())
        # The metadata disjunct costs nothing, so it runs first and decides
        # its rows; the cascade touches only the rest.
        assert result.images_classified["komondor"] == len(corpus) - n_detroit

    def test_or_result_matches_row_wise_reference(self, corpus, planner):
        executor = QueryExecutor(corpus)
        conjunctive = planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))
        positive = set(executor.execute(conjunctive).selected_indices)
        where = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            PredicateExpr(ContainsObject("komondor"))))
        result = QueryExecutor(corpus).execute(
            planner.plan(self._tree_query(where=where)))
        expected = [i for i in range(len(corpus))
                    if corpus.metadata["location"][i] == "detroit"
                    or i in positive]
        np.testing.assert_array_equal(np.sort(result.selected_indices),
                                      expected)

    def test_not_complements_selection(self, corpus, planner):
        executor = QueryExecutor(corpus)
        selected = executor.execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED))).selected_indices
        inverted = executor.execute(planner.plan(self._tree_query(
            where=NotExpr(PredicateExpr(ContainsObject("komondor")))))
        ).selected_indices
        assert set(selected) | set(inverted) == set(range(len(corpus)))
        assert not set(selected) & set(inverted)

    def test_and_inside_or_short_circuits(self, corpus, planner):
        executor = QueryExecutor(corpus)
        # (location = detroit AND contains) OR (location = seattle): the
        # cascade only ever sees Detroit rows — seattle rows are decided by
        # the cheap branch and the rest fail both.
        where = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "seattle")),
            AndExpr((
                PredicateExpr(MetadataPredicate("location", "==", "detroit")),
                PredicateExpr(ContainsObject("komondor"))))))
        result = executor.execute(planner.plan(self._tree_query(where=where)))
        n_detroit = int((corpus.metadata["location"] == "detroit").sum())
        assert result.images_classified["komondor"] <= n_detroit

    @pytest.mark.usefixtures("small_chunks")
    def test_tree_limit_early_stop_matches_prefix(self, corpus, planner):
        where = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            PredicateExpr(ContainsObject("komondor"))))
        unlimited = QueryExecutor(corpus).execute(
            planner.plan(self._tree_query(where=where)))
        limited = QueryExecutor(corpus).execute(
            planner.plan(self._tree_query(where=where, limit=2)))
        np.testing.assert_array_equal(limited.selected_indices,
                                      unlimited.selected_indices[:2])

    def test_top_level_and_metadata_prefilters_tree_chunks(self, corpus,
                                                           planner):
        # location = detroit AND NOT contains: non-conjunctive (the NOT),
        # but the top-level metadata child must still prefilter, so the
        # cascade only ever touches Detroit rows.
        where = AndExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            NotExpr(PredicateExpr(ContainsObject("komondor")))))
        result = QueryExecutor(corpus).execute(
            planner.plan(self._tree_query(where=where)))
        n_detroit = int((corpus.metadata["location"] == "detroit").sum())
        assert result.images_classified["komondor"] == n_detroit

    def test_short_circuited_rows_report_unknown_labels(self, corpus,
                                                        planner):
        where = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            PredicateExpr(ContainsObject("komondor"))))
        result = QueryExecutor(corpus).execute(
            planner.plan(self._tree_query(where=where)))
        labels = result.relation["contains_komondor"]
        # Selected rows are either truly classified (0/1) or explicitly
        # unknown (-1) — never a silent placeholder 0.
        assert set(np.unique(labels)) <= {-1, 0, 1}
        selected_positions = result.selected_indices
        unknown = selected_positions[labels == -1]
        # Every unknown row was decided by the cheap disjunct.
        assert all(corpus.metadata["location"][unknown] == "detroit")

    def test_consumed_content_column_forces_classification(self, corpus,
                                                           planner):
        from repro.db.aggregates import compute_partials  # noqa: F401
        from repro.query.ast import Aggregate, OrExpr, PredicateExpr

        # SUM over the contains column must classify every selected row,
        # even the ones the cheap OR disjunct decided.
        where = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            PredicateExpr(ContainsObject("komondor"))))
        query = self._tree_query(
            where=where, select=(Aggregate("sum", "contains_komondor"),))
        result = QueryExecutor(corpus).execute(planner.plan(query))
        # Reference: the true summed labels over the selected rows, from a
        # full classification on a fresh executor.
        full = QueryExecutor(corpus).execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED)))
        reference_labels = np.zeros(len(corpus), dtype=np.int64)
        reference_labels[full.selected_indices] = 1
        expected = int(reference_labels[result.selected_indices].sum())
        total, count = result.partials.groups[()][0]
        assert total == expected
        assert count == len(result)
        # And no -1 leaked into the aggregated column.
        assert set(np.unique(result.relation["contains_komondor"])) <= {0, 1}

    def test_limit_zero_with_order_by_classifies_nothing(self, corpus,
                                                         planner):
        from repro.query.ast import OrderItem

        result = QueryExecutor(corpus).execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED, limit=0,
            order_by=(OrderItem("timestamp"),))))
        assert len(result) == 0
        assert result.images_classified["komondor"] == 0

    def test_type_mismatch_raises_query_error(self, corpus, planner):
        from repro.query.ast import QueryError

        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(where=conjunction(
            MetadataPredicate("location", "==", 5))))
        with pytest.raises(QueryError, match="location"):
            executor.execute(plan)

    def test_type_mismatch_in_membership_raises(self, corpus, planner):
        from repro.query.ast import QueryError

        executor = QueryExecutor(corpus)
        plan = planner.plan(Query(where=conjunction(
            MetadataPredicate("camera_id", "in", ("one", "two")))))
        with pytest.raises(QueryError, match="camera_id"):
            executor.execute(plan)


class TestPrefilterStats:
    @pytest.mark.usefixtures("small_chunks")
    def test_prefilter_measured_once_over_the_whole_snapshot(self, corpus,
                                                             planner):
        # Chunked execution (cancel forces chunking) must not re-count the
        # free metadata conjunct per chunk: it is measured once, over every
        # snapshot row, and the AND root accounts for the same rows.
        plan = planner.plan(Query(
            where=conjunction(MetadataPredicate("location", "==", "detroit"),
                              ContainsObject("komondor")),
            constraints=CONSTRAINED))
        result = QueryExecutor(corpus).execute(
            plan, cancel=lambda: None)
        n_detroit = int((corpus.metadata["location"] == "detroit").sum())
        assert n_detroit > 4, "fixture must span several chunks"
        root = plan.predicate_tree
        assert isinstance(root, PlanAnd)
        filter_step, cascade_step = root.children
        assert isinstance(filter_step, MetadataStep)
        stats = result.node_stats
        assert stats[id(filter_step)]["rows_in"] == len(corpus)
        assert stats[id(filter_step)]["rows_out"] == n_detroit
        assert stats[id(cascade_step)]["rows_in"] == n_detroit
        assert stats[id(root)]["rows_in"] == len(corpus)
        assert stats[id(root)]["rows_out"] == len(result)


_LEAVES = (
    MetadataPredicate("location", "==", "detroit"),
    MetadataPredicate("location", "in", ("seattle", "austin")),
    MetadataPredicate("camera_id", "<", 4),
    MetadataPredicate("timestamp", ">", 43_200.0),
    ContainsObject("komondor"),
    ContainsObject("komondor2"),
)


def _random_tree(rng, depth=0):
    """A random AND/OR/NOT tree over ``_LEAVES`` (at most three levels)."""
    if depth == 3 or rng.random() < 0.25:
        return PredicateExpr(_LEAVES[rng.integers(len(_LEAVES))])
    kind = rng.integers(3)
    if kind == 2:
        return NotExpr(_random_tree(rng, depth + 1))
    children = tuple(_random_tree(rng, depth + 1)
                     for _ in range(rng.integers(2, 4)))
    return AndExpr(children) if kind == 0 else OrExpr(children)


def _brute_force(expr, relation, labels):
    """Row-wise reference: evaluate every leaf over every row, then combine."""
    if isinstance(expr, PredicateExpr):
        if isinstance(expr.predicate, ContainsObject):
            return labels
        return expr.predicate.evaluate(relation)
    if isinstance(expr, NotExpr):
        return ~_brute_force(expr.child, relation, labels)
    masks = [_brute_force(child, relation, labels) for child in expr.children]
    combine = np.logical_and if isinstance(expr, AndExpr) else np.logical_or
    return combine.reduce(masks)


class TestRandomTreesMatchBruteForce:
    @pytest.fixture(scope="class")
    def labels(self, corpus, tiny_optimizer, camera_profiler):
        # komondor and komondor2 share one optimizer, hence one label column.
        planner = QueryPlanner({"komondor": tiny_optimizer}, camera_profiler)
        full = QueryExecutor(corpus).execute(planner.plan(Query(
            where=conjunction(ContainsObject("komondor")),
            constraints=CONSTRAINED)))
        labels = np.zeros(len(corpus), dtype=bool)
        labels[full.selected_indices] = True
        return labels

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.usefixtures("small_chunks")
    def test_selected_ids_equal_brute_force(self, corpus, planner, labels,
                                            seed):
        where = _random_tree(np.random.default_rng(seed))
        expected = np.where(_brute_force(
            where, QueryExecutor(corpus).relation, labels))[0]

        def run(executor, *, limit=None, cancel=None):
            plan = planner.plan(Query(where=where, constraints=CONSTRAINED,
                                      limit=limit))
            return executor.execute(plan, cancel=cancel).selected_indices

        np.testing.assert_array_equal(run(QueryExecutor(corpus)), expected)
        np.testing.assert_array_equal(
            run(QueryExecutor(corpus), limit=2),
            expected[:2])
        np.testing.assert_array_equal(
            run(QueryExecutor(corpus),
                cancel=lambda: None),
            expected)


class TestConstruction:
    def test_empty_corpus_rejected(self):
        from repro.data.corpus import ImageCorpus

        with pytest.raises(ValueError):
            QueryExecutor(ImageCorpus(images=np.zeros((0, 8, 8, 3)), metadata={}))
