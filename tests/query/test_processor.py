"""Tests for the query model and the plan -> execute pipeline behind it.

These began as the tests of the ``QueryProcessor`` shim; the shim is gone and
they now drive :class:`QueryPlanner` + :class:`QueryExecutor` directly (with
the session-scoped tiny optimizer), under their original test ids.
"""

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db.executor import QueryExecutor
from repro.db.planner import (ContentStep, MetadataStep, PlanOr,
                               QueryPlanner)
from repro.query.ast import AndExpr, OrExpr, PredicateExpr
from repro.query.model import Query
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.query.sql import parse_query
from tests.conftest import TINY_SIZE
from tests.where import conjunction, content_leaves, metadata_leaves


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus((get_category("komondor"), get_category("scorpion")),
                           n_images=24, image_size=TINY_SIZE,
                           rng=np.random.default_rng(3), positive_rate=0.8)


class _Pipeline:
    """One planner + one executor over a corpus."""

    def __init__(self, corpus, optimizers, profiler):
        self.planner = QueryPlanner(optimizers, profiler)
        self.executor = QueryExecutor(corpus)

    def execute(self, query):
        return self.executor.execute(self.planner.plan(query))


@pytest.fixture(scope="module")
def processor(corpus, tiny_optimizer, camera_profiler):
    return _Pipeline(corpus, {"komondor": tiny_optimizer}, camera_profiler)


class TestQueryValidation:
    def test_bare_query_is_a_scan(self):
        query = Query()
        assert query.where is None
        assert metadata_leaves(query) == ()

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Query(limit=-1)

    def test_predicates_synthesize_conjunctive_where(self, processor):
        # A conjunctive WHERE parses to one AND tree in syntactic order; the
        # plan runs its metadata leaves before its cascades.
        query = parse_query("SELECT * FROM images WHERE contains_object("
                            "komondor) AND location = 'detroit'")
        assert isinstance(query.where, AndExpr)
        assert [child.predicate for child in query.where.children] == [
            ContainsObject("komondor"),
            MetadataPredicate("location", "==", "detroit")]
        conjuncts = processor.planner.plan(query).conjuncts
        assert [type(step) for step in conjuncts] == [MetadataStep,
                                                      ContentStep]

    def test_where_tree_derives_flat_predicates(self, processor):
        # The tree is the only copy of the WHERE clause: the plan's cascade
        # leaves are derived from it.
        tree = OrExpr((
            PredicateExpr(MetadataPredicate("location", "==", "detroit")),
            PredicateExpr(ContainsObject("komondor"))))
        query = Query(where=tree)
        assert metadata_leaves(query) == (
            MetadataPredicate("location", "==", "detroit"),)
        assert content_leaves(query) == (ContainsObject("komondor"),)
        plan = processor.planner.plan(query)
        assert isinstance(plan.predicate_tree, PlanOr)
        assert plan.categories == ("komondor",)

    def test_second_predicate_copy_rejected(self):
        # A query holds one WHERE clause; a flat tuple beside it could
        # disagree with the tree, so the constructor refuses it.
        with pytest.raises(TypeError):
            Query(where=PredicateExpr(ContainsObject("komondor")),
                  content_predicates=(ContainsObject("scorpion"),))


class TestBareScanExecution:
    def test_scan_returns_every_row(self, processor, corpus):
        result = processor.execute(Query())
        assert len(result) == len(corpus)
        assert result.cascades_used == {}

    def test_scan_with_limit(self, processor):
        result = processor.execute(Query(limit=5))
        assert len(result) == 5


class TestMetadataOnlyQueries:
    def test_metadata_filter(self, processor, corpus):
        query = Query(where=conjunction(
            MetadataPredicate("location", "==", "detroit")))
        result = processor.execute(query)
        expected = int((corpus.metadata["location"] == "detroit").sum())
        assert len(result) == expected
        assert result.cascades_used == {}

    def test_empty_result(self, processor):
        query = Query(where=conjunction(
            MetadataPredicate("location", "==", "nowhere")))
        assert len(processor.execute(query)) == 0


class TestContentQueries:
    def test_contains_object_populates_virtual_column(self, processor):
        query = Query(where=conjunction(ContainsObject("komondor")),
                      constraints=UserConstraints(max_accuracy_loss=0.1))
        result = processor.execute(query)
        assert "contains_komondor" in result.relation
        assert "komondor" in result.cascades_used
        assert result.images_classified["komondor"] > 0

    def test_unknown_category_raises(self, processor):
        query = Query(where=conjunction(ContainsObject("zebra")))
        with pytest.raises(KeyError):
            processor.execute(query)

    def test_metadata_predicate_reduces_classified_images(self, corpus,
                                                          tiny_optimizer,
                                                          camera_profiler):
        processor = _Pipeline(corpus, {"komondor": tiny_optimizer},
                              camera_profiler)
        narrow = Query(
            where=conjunction(MetadataPredicate("location", "==", "detroit"),
                              ContainsObject("komondor")))
        result = processor.execute(narrow)
        n_detroit = int((corpus.metadata["location"] == "detroit").sum())
        assert result.images_classified["komondor"] == n_detroit

    def test_materialized_column_reused_across_queries(self, corpus,
                                                       tiny_optimizer,
                                                       camera_profiler):
        processor = _Pipeline(corpus, {"komondor": tiny_optimizer},
                              camera_profiler)
        query = Query(where=conjunction(ContainsObject("komondor")))
        first = processor.execute(query)
        second = processor.execute(query)
        assert first.images_classified["komondor"] == len(corpus)
        assert second.images_classified["komondor"] == 0
        np.testing.assert_array_equal(first.selected_indices,
                                      second.selected_indices)

    def test_query_finds_mostly_true_positives(self, corpus, tiny_optimizer,
                                               camera_profiler):
        """The selected rows should be enriched in images that truly contain
        the object, compared to the corpus base rate."""
        processor = _Pipeline(corpus, {"komondor": tiny_optimizer},
                              camera_profiler)
        result = processor.execute(
            Query(where=conjunction(ContainsObject("komondor"))))
        truth = corpus.content["komondor"]
        base_rate = truth.mean()
        if len(result) > 0:
            selected_rate = truth[result.selected_indices].mean()
            assert selected_rate >= base_rate


class TestProcessorConstruction:
    def test_empty_corpus_rejected(self, tiny_optimizer, camera_profiler):
        from repro.data.corpus import ImageCorpus

        with pytest.raises(ValueError):
            _Pipeline(ImageCorpus(images=np.zeros((0, 8, 8, 3)), metadata={}),
                      {}, camera_profiler)

    def test_relation_exposes_metadata(self, processor):
        assert "location" in processor.executor.relation
        assert "image_id" in processor.executor.relation
