"""Integration test: persist the model repository, reload it in a fresh
optimizer, and answer a SQL-parsed query with it.

This mirrors the deployment the paper envisions: system initialization runs
once per predicate (expensive), its artifacts are stored, and query time only
loads the repository, selects a cascade for the current scenario and runs it.
"""

import numpy as np
import pytest

from repro.core.persistence import load_optimizer, save_optimizer
from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db.executor import QueryExecutor
from repro.db.planner import QueryPlanner
from repro.query.sql import parse_query
from tests.conftest import TINY_SIZE

REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}


@pytest.fixture(scope="module")
def reloaded_optimizer(tmp_path_factory, tiny_optimizer):
    root = tmp_path_factory.mktemp("repo")
    save_optimizer(tiny_optimizer, root, reference_params=REFERENCE_PARAMS)
    return load_optimizer(root)


def test_reloaded_optimizer_answers_sql_query(reloaded_optimizer, camera_profiler):
    corpus = generate_corpus((get_category("komondor"),), n_images=20,
                             image_size=TINY_SIZE, rng=np.random.default_rng(5),
                             positive_rate=0.8)
    planner = QueryPlanner({"komondor": reloaded_optimizer}, camera_profiler)
    query = parse_query(
        "SELECT * FROM images WHERE contains_object(komondor)",
        constraints=UserConstraints(max_accuracy_loss=0.1))
    result = QueryExecutor(corpus).execute(planner.plan(query))

    assert result.images_classified["komondor"] == len(corpus)
    assert "contains_komondor" in result.relation
    assert 0 <= len(result) <= len(corpus)


def test_reloaded_selection_is_equivalent_to_original(reloaded_optimizer,
                                                      tiny_optimizer,
                                                      tiny_splits,
                                                      camera_profiler):
    """Selection quality survives the round trip.

    Ties between equally good cascades may be broken differently after the
    round trip (floating-point last-bit differences in the restored cached
    probabilities), so the check is on the selected operating point, not on
    the cascade's identity.
    """
    constraints = UserConstraints(max_accuracy_loss=0.05)
    original_choice = tiny_optimizer.select(camera_profiler, constraints)
    reloaded_choice = reloaded_optimizer.select(camera_profiler, constraints)
    assert reloaded_choice.accuracy == pytest.approx(original_choice.accuracy)
    assert reloaded_choice.throughput == pytest.approx(original_choice.throughput,
                                                       rel=1e-3)

    # And the same cascade, executed from the reloaded weights, reproduces the
    # original labels exactly.
    images = tiny_splits.eval.images[:12]
    original_labels = tiny_optimizer.query(images, original_choice)
    matching = next(c for c in reloaded_optimizer.cascades
                    if c.name == original_choice.cascade.name)
    reloaded_labels = reloaded_optimizer.query(images, matching)
    np.testing.assert_array_equal(original_labels, reloaded_labels)
