"""Integration test: the motivating query from the paper's introduction.

"Find images from Detroit containing a komondor" decomposes into a metadata
predicate (location == 'detroit') and a binary content predicate
(contains_object(komondor)); the planner must order the cheap metadata
predicate first and the executor run the selected cascade only on the
survivors.
"""

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db.executor import QueryExecutor
from repro.db.planner import QueryPlanner
from repro.query.model import Query
from repro.query.predicates import ContainsObject, MetadataPredicate
from tests.conftest import TINY_SIZE
from tests.where import conjunction


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus((get_category("komondor"),), n_images=30,
                           image_size=TINY_SIZE, rng=np.random.default_rng(21),
                           positive_rate=0.9)


def test_detroit_komondor_query(corpus, tiny_optimizer, camera_profiler):
    planner = QueryPlanner({"komondor": tiny_optimizer}, camera_profiler)
    executor = QueryExecutor(corpus)
    query = Query(
        where=conjunction(MetadataPredicate("location", "==", "detroit"),
                          ContainsObject("komondor")),
        constraints=UserConstraints(max_accuracy_loss=0.05))
    result = executor.execute(planner.plan(query))

    detroit_mask = corpus.metadata["location"] == "detroit"
    # Only Detroit images were classified.
    assert result.images_classified["komondor"] == int(detroit_mask.sum())
    # Every selected row is from Detroit.
    assert all(result.relation["location"] == "detroit")
    # The virtual column exists and is binary.
    assert set(np.unique(result.relation["contains_komondor"])) <= {0, 1}
    # The chosen cascade honours the 5% relative accuracy budget on the
    # optimizer's own evaluation data.
    frontier = tiny_optimizer.frontier(camera_profiler)
    best = max(e.accuracy for e in frontier)
    assert result.cascades_used["komondor"].accuracy >= best * 0.95 - 1e-9


def test_follow_up_query_reuses_materialized_column(corpus, tiny_optimizer,
                                                    camera_profiler):
    planner = QueryPlanner({"komondor": tiny_optimizer}, camera_profiler)
    executor = QueryExecutor(corpus)
    broad = Query(where=conjunction(ContainsObject("komondor")))
    executor.execute(planner.plan(broad))
    narrow = Query(
        where=conjunction(MetadataPredicate("location", "==", "detroit"),
                          ContainsObject("komondor")))
    result = executor.execute(planner.plan(narrow))
    # Everything needed was already materialized by the broad query.
    assert result.images_classified["komondor"] == 0
