"""Tests for the query planner: selection, selectivity, predicate ordering."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import CascadeEvaluation
from repro.core.selector import UserConstraints
from repro.costs.profiler import CostBreakdown
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect
from repro.db.planner import (DEFAULT_SELECTIVITY, ContentStep, MetadataStep,
                              PlanAnd, PlanOr, QueryPlanner,
                              estimate_selectivity)
from repro.query.ast import AndExpr, OrExpr, PredicateExpr
from repro.query.model import Query
from repro.query.predicates import ContainsObject, MetadataPredicate
from tests.conftest import TINY_SIZE
from tests.where import conjunction

_STUB_PROFILER = SimpleNamespace(scenario=SimpleNamespace(name="stub"))


class _StubOptimizer:
    """Stands in for a TahomaOptimizer: fixed cost and selectivity."""

    def __init__(self, cost_s: float, selectivity: float) -> None:
        self._cost_s = cost_s
        self._selectivity = selectivity
        self.cache = None

    def select(self, profiler, constraints):
        return SimpleNamespace(
            cost=CostBreakdown(infer_s=self._cost_s),
            name=f"stub-cascade-{self._cost_s}",
            accuracy=0.9,
            throughput=1.0 / self._cost_s,
            cascade=SimpleNamespace(name=f"stub-cascade-{self._cost_s}"),
            stub_selectivity=self._selectivity)


@pytest.fixture(autouse=True)
def _stub_selectivity(monkeypatch):
    monkeypatch.setattr("repro.db.planner.estimate_selectivity",
                        lambda evaluation: evaluation.stub_selectivity)


class TestOrdering:
    def test_content_predicates_ordered_by_selectivity_times_cost(self):
        planner = QueryPlanner(
            {"cheap_selective": _StubOptimizer(cost_s=0.001, selectivity=0.1),
             "expensive": _StubOptimizer(cost_s=0.1, selectivity=0.5),
             "middling": _StubOptimizer(cost_s=0.01, selectivity=0.5)},
            _STUB_PROFILER)
        query = Query(where=conjunction(ContainsObject("expensive"),
                                        ContainsObject("cheap_selective"),
                                        ContainsObject("middling")))
        plan = planner.plan(query)
        assert plan.categories == ("cheap_selective", "middling", "expensive")
        ranks = [step.rank for step in plan.content_steps]
        assert ranks == sorted(ranks)

    def test_selective_beats_cheap_when_product_is_lower(self):
        # 0.01 * 0.9 = 0.009 vs 0.02 * 0.1 = 0.002: the slower-but-much-more
        # selective predicate must run first.
        planner = QueryPlanner(
            {"cheap_broad": _StubOptimizer(cost_s=0.01, selectivity=0.9),
             "pricier_narrow": _StubOptimizer(cost_s=0.02, selectivity=0.1)},
            _STUB_PROFILER)
        plan = planner.plan(Query(where=conjunction(
            ContainsObject("cheap_broad"), ContainsObject("pricier_narrow"))))
        assert plan.categories == ("pricier_narrow", "cheap_broad")

    def test_metadata_steps_preserved_and_first_in_describe(self):
        planner = QueryPlanner({"a": _StubOptimizer(0.01, 0.5)}, _STUB_PROFILER)
        query = Query(
            where=conjunction(MetadataPredicate("location", "==", "detroit"),
                              ContainsObject("a")),
            limit=7)
        plan = planner.plan(query)
        text = plan.describe()
        assert text.index("filter") < text.index("cascade")
        assert "limit    7" in text
        assert plan.limit == 7
        assert "scenario=stub" in text

    def test_unknown_category_raises(self):
        planner = QueryPlanner({}, _STUB_PROFILER)
        with pytest.raises(KeyError):
            planner.plan(Query(where=conjunction(ContainsObject("zebra"))))

    def test_free_filter_wins_an_and_rank_tie(self):
        # A cascade observed to reject everything ranks 0.0 x cost = 0, the
        # same as a free metadata filter; the filter must still run first.
        planner = QueryPlanner(
            {"never": _StubOptimizer(cost_s=0.01, selectivity=0.0)},
            _STUB_PROFILER)
        where = AndExpr((PredicateExpr(ContainsObject("never")),
                         PredicateExpr(MetadataPredicate("a", "==", 1))))
        tree = planner.plan(Query(where=where)).predicate_tree
        assert isinstance(tree, PlanAnd)
        assert [type(child) for child in tree.children] == [MetadataStep,
                                                            ContentStep]

    def test_free_filter_wins_an_or_rank_tie(self):
        # Likewise under OR: (1 - 1.0) x cost = 0 for a cascade observed to
        # accept everything.
        planner = QueryPlanner(
            {"always": _StubOptimizer(cost_s=0.01, selectivity=1.0)},
            _STUB_PROFILER)
        where = OrExpr((PredicateExpr(ContainsObject("always")),
                        PredicateExpr(MetadataPredicate("a", "==", 1))))
        tree = planner.plan(Query(where=where)).predicate_tree
        assert isinstance(tree, PlanOr)
        assert [type(child) for child in tree.children] == [MetadataStep,
                                                            ContentStep]


_COSTS = (0.001, 0.01, 0.02, 0.1)
_SELECTIVITIES = (0.0, 0.1, 0.5, 0.5, 1.0)
_N_CATEGORIES = 4

_leaves = st.one_of(
    st.integers(0, 3).map(lambda i: MetadataPredicate(f"m{i}", "==", i)),
    st.integers(0, _N_CATEGORIES - 1).map(lambda i: ContainsObject(f"c{i}")))
# A leaf, or any nesting of ANDs over leaves (tuples become AndExpr nodes).
_conjunctions = st.recursive(
    _leaves,
    lambda children: st.lists(children, min_size=2, max_size=4).map(tuple),
    max_leaves=10)


def _to_expr(node):
    if isinstance(node, tuple):
        return AndExpr(tuple(_to_expr(child) for child in node))
    return PredicateExpr(node)


def _flat_leaves(node):
    if isinstance(node, tuple):
        return [leaf for child in node for leaf in _flat_leaves(child)]
    return [node]


@settings(max_examples=100, deadline=None)
@given(shape=_conjunctions,
       stats=st.lists(st.tuples(st.sampled_from(_COSTS),
                                st.sampled_from(_SELECTIVITIES)),
                      min_size=_N_CATEGORIES, max_size=_N_CATEGORIES))
def test_pure_conjunction_orders_like_the_paper(shape, stats):
    """However a pure conjunction is parenthesized, it executes metadata
    leaves in syntactic order, then cascades by selectivity x cost (cost
    breaking rank ties, syntactic order breaking the rest)."""
    optimizers = {f"c{i}": _StubOptimizer(cost_s=cost, selectivity=selectivity)
                  for i, (cost, selectivity) in enumerate(stats)}
    plan = QueryPlanner(optimizers, _STUB_PROFILER).plan(
        Query(where=_to_expr(shape)))

    leaves = _flat_leaves(shape)
    metadata = [leaf for leaf in leaves
                if isinstance(leaf, MetadataPredicate)]
    content = sorted(
        (leaf for leaf in leaves if isinstance(leaf, ContainsObject)),
        key=lambda leaf: (
            optimizers[leaf.category]._selectivity
            * optimizers[leaf.category]._cost_s,
            optimizers[leaf.category]._cost_s))
    assert [step.predicate for step in plan.conjuncts] == metadata + content
    # content_steps lists each distinct cascade once, ascending rank.
    assert set(plan.categories) == {leaf.category for leaf in content}
    ranks = [step.rank for step in plan.content_steps]
    assert ranks == sorted(ranks)


class TestExpectedCost:
    def test_cost_weighted_by_upstream_selectivity(self):
        planner = QueryPlanner(
            {"first": _StubOptimizer(cost_s=0.001, selectivity=0.25),
             "second": _StubOptimizer(cost_s=0.1, selectivity=0.5)},
            _STUB_PROFILER)
        plan = planner.plan(Query(where=conjunction(ContainsObject("first"),
                                                    ContainsObject("second"))))
        # first runs on everything; second only on the 25% that survive.
        assert plan.expected_cost_per_candidate_s() == pytest.approx(
            0.001 + 0.25 * 0.1)


class TestEstimateSelectivity:
    def test_reads_positive_rate_of_selected_cascade(self, tiny_optimizer,
                                                     camera_profiler):
        evaluation = tiny_optimizer.select(camera_profiler,
                                           UserConstraints(max_accuracy_loss=0.1))
        selectivity = estimate_selectivity(evaluation)
        assert selectivity == evaluation.positive_rate
        # The eval split is balanced and the cascade honours a tight accuracy
        # budget, so its positive rate should be in a broad middle band.
        assert 0.2 <= selectivity <= 0.8

    def test_evaluation_without_positive_rate_falls_back(self, tiny_optimizer,
                                                         camera_profiler):
        # Externally built evaluations (register_optimizer) may carry no
        # positive rate; planning must warn and assume the default, not crash.
        selected = tiny_optimizer.select(camera_profiler)
        bare = CascadeEvaluation(cascade=selected.cascade,
                                 accuracy=selected.accuracy,
                                 cost=selected.cost,
                                 level_fractions=selected.level_fractions)
        with pytest.warns(UserWarning, match="positive_rate"):
            assert estimate_selectivity(bare) == DEFAULT_SELECTIVITY


class TestTreeLowering:
    def _planner(self):
        return QueryPlanner(
            {"cheap": _StubOptimizer(cost_s=0.001, selectivity=0.5),
             "pricey": _StubOptimizer(cost_s=0.1, selectivity=0.5)},
            _STUB_PROFILER)

    def test_conjunctive_query_lowers_to_and_root(self):
        plan = self._planner().plan(Query(
            where=conjunction(MetadataPredicate("a", "==", 1),
                              ContainsObject("cheap"))))
        assert isinstance(plan.predicate_tree, PlanAnd)
        assert plan.conjuncts == plan.predicate_tree.children
        assert [type(step) for step in plan.conjuncts] == [MetadataStep,
                                                           ContentStep]
        assert plan.allow_early_stop

    def test_single_predicate_is_its_own_conjunct(self):
        plan = self._planner().plan(Query(
            where=conjunction(ContainsObject("cheap"))))
        assert plan.conjuncts == (plan.predicate_tree,)
        assert plan.content_steps == (plan.predicate_tree,)

    def test_predicate_free_scan_has_no_tree(self):
        plan = self._planner().plan(Query())
        assert plan.predicate_tree is None
        assert plan.conjuncts == ()
        assert plan.content_steps == ()

    def test_or_query_lowers_to_tree_with_metadata_first(self):
        where = OrExpr((PredicateExpr(ContainsObject("pricey")),
                        PredicateExpr(MetadataPredicate("a", "==", 1))))
        plan = self._planner().plan(Query(where=where))
        assert isinstance(plan.predicate_tree, PlanOr)
        # The free metadata disjunct is ordered before the cascade.
        assert isinstance(plan.predicate_tree.children[0], MetadataStep)

    def test_or_children_ordered_cheap_first(self):
        where = OrExpr((PredicateExpr(ContainsObject("pricey")),
                        PredicateExpr(ContainsObject("cheap"))))
        plan = self._planner().plan(Query(where=where))
        assert isinstance(plan.predicate_tree, PlanOr)
        assert [child.category for child in plan.predicate_tree.children] == [
            "cheap", "pricey"]

    def test_tree_plan_still_lists_content_steps_for_provenance(self):
        where = OrExpr((PredicateExpr(ContainsObject("pricey")),
                        PredicateExpr(ContainsObject("cheap"))))
        plan = self._planner().plan(Query(where=where))
        assert set(plan.categories) == {"cheap", "pricey"}
        ranks = [step.rank for step in plan.content_steps]
        assert ranks == sorted(ranks)

    def test_cascade_selected_once_per_category(self):
        # The same category twice in one tree: one ContentStep, not two.
        where = OrExpr((
            AndExpr((PredicateExpr(MetadataPredicate("a", "==", 1)),
                     PredicateExpr(ContainsObject("cheap")))),
            AndExpr((PredicateExpr(MetadataPredicate("a", "==", 2)),
                     PredicateExpr(ContainsObject("cheap"))))))
        plan = self._planner().plan(Query(where=where))
        assert plan.categories == ("cheap",)


class TestEarlyStopGating:
    def _plan(self, **kwargs):
        planner = QueryPlanner({"a": _StubOptimizer(0.01, 0.5)},
                               _STUB_PROFILER)
        return planner.plan(Query(
            where=conjunction(ContainsObject("a")), **kwargs))

    def test_plain_limit_allows_early_stop(self):
        assert self._plan(limit=5).allow_early_stop

    def test_order_by_disables_early_stop(self):
        from repro.query.ast import OrderItem

        plan = self._plan(limit=5, order_by=(OrderItem("timestamp"),))
        assert not plan.allow_early_stop

    def test_aggregates_disable_early_stop(self):
        from repro.query.ast import Aggregate

        plan = self._plan(limit=5, select=(Aggregate("count", None),))
        assert not plan.allow_early_stop
        assert plan.is_aggregate

    def test_group_by_disables_early_stop(self):
        plan = self._plan(select=("location",), group_by=("location",))
        assert not plan.allow_early_stop


class TestSelectivityHook:
    def test_hook_overrides_estimate(self):
        observed = {"a": 0.125}
        planner = QueryPlanner(
            {"a": _StubOptimizer(cost_s=0.01, selectivity=0.5)},
            _STUB_PROFILER,
            selectivity_hook=lambda category, cascade: observed.get(category))
        plan = planner.plan(Query(where=conjunction(ContainsObject("a"))))
        assert plan.content_steps[0].selectivity == 0.125

    def test_hook_none_falls_back_to_estimate(self):
        planner = QueryPlanner(
            {"a": _StubOptimizer(cost_s=0.01, selectivity=0.5)},
            _STUB_PROFILER,
            selectivity_hook=lambda category, cascade: None)
        plan = planner.plan(Query(where=conjunction(ContainsObject("a"))))
        assert plan.content_steps[0].selectivity == 0.5

    def test_hook_receives_selected_cascade_name(self):
        seen = []

        def hook(category, cascade):
            seen.append((category, cascade))
            return None

        planner = QueryPlanner(
            {"a": _StubOptimizer(cost_s=0.01, selectivity=0.5)},
            _STUB_PROFILER, selectivity_hook=hook)
        planner.plan(Query(where=conjunction(ContainsObject("a"))))
        assert seen == [("a", "stub-cascade-0.01")]


class TestSelectionIsRemembered:
    """Planning asks ``select`` per predicate per plan; the optimizer answers
    from its remembered frontier, so only a new cost profile evaluates."""

    SQL = ("SELECT image_id FROM images WHERE contains_object(komondor) "
           "AND contains_object(komondor_b) AND location = 'detroit'")

    @pytest.fixture()
    def db(self, fresh_optimizer, tiny_device, monkeypatch):
        monkeypatch.setattr("repro.db.planner.estimate_selectivity",
                            estimate_selectivity)  # undo the module's stub
        corpus = generate_corpus((get_category("komondor"),), n_images=8,
                                 image_size=TINY_SIZE,
                                 rng=np.random.default_rng(2))
        database = connect(corpus, device=tiny_device, scenario="archive",
                           calibrate_target_fps=None)  # plan cache off
        database.register_optimizer("komondor", fresh_optimizer())
        database.register_optimizer("komondor_b", fresh_optimizer())
        return database

    def test_ten_plans_evaluate_each_optimizer_once(self, db, evaluate_calls):
        plans = [db.explain(self.SQL) for _ in range(10)]
        for name in ("komondor", "komondor_b"):
            assert evaluate_calls.count(db.optimizer(name).cache) == 1
        assert len({plan.describe() for plan in plans}) == 1

    def test_scenario_round_trip_evaluates_twice(self, db, evaluate_calls):
        for scenario in ("archive", "camera", "archive"):
            db.use_scenario(scenario)
            db.explain(self.SQL)
        for name in ("komondor", "komondor_b"):
            assert evaluate_calls.count(db.optimizer(name).cache) == 2
