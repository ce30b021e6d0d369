"""Query planning: a logical query becomes a cost-ordered physical plan.

The planner performs the query-time half of the paper's predicate
optimization.  For each ``contains_object`` predicate it asks the predicate's
:class:`~repro.core.optimizer.TahomaOptimizer` to select a cascade under the
current deployment scenario and the user's constraints, estimates the
predicate's selectivity from the optimizer's cached evaluation-set
predictions, and orders the content predicates by estimated selectivity x
selected-cascade cost so that cheap, selective predicates shrink the
candidate set before expensive ones run.  Metadata predicates always run
first — they cost microseconds and touch no pixels.  The same rule orders
every level of a boolean WHERE tree, so the paper's conjunctive plan is just
the tree whose root is an AND of leaves.

The resulting :class:`QueryPlan` is a pure description: executing it is the
job of :class:`~repro.db.executor.QueryExecutor`, and ``db.explain(sql)``
returns it directly for inspection.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.evaluator import CascadeEvaluation
from repro.core.optimizer import TahomaOptimizer
from repro.costs.profiler import CostProfiler
from repro.query.ast import (Aggregate, AndExpr, BooleanExpr, NotExpr,
                             OrderItem, OrExpr, PredicateExpr, SelectItem,
                             select_label)
from repro.query.model import Query
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["MetadataStep", "ContentStep", "QueryPlan", "QueryPlanner",
           "PlanAnd", "PlanOr", "PlanNot",
           "estimate_selectivity", "annotate_plan_dict",
           "DEFAULT_SELECTIVITY"]

#: Selectivity assumed when an evaluation carries no positive rate (e.g. an
#: externally built evaluation installed via ``register_optimizer``).
DEFAULT_SELECTIVITY = 0.5


def estimate_selectivity(evaluation: CascadeEvaluation) -> float:
    """Fraction of images the selected cascade is expected to label positive.

    :func:`~repro.core.evaluator.evaluate_cascade` records the cascade's
    positive rate while replaying its decision logic over the cached
    evaluation-set probabilities, so the estimate is free at plan time.
    Evaluations without a recorded positive rate (NaN — possible for
    externally built evaluations) fall back to :data:`DEFAULT_SELECTIVITY`
    with a warning, so planning and ``db.explain()`` keep working.

    Caveat: the evaluation split is typically class-balanced, so this is the
    cascade's positive rate *at a ~50% base rate*, not the predicate's
    frequency in the corpus.  The planner therefore prefers corpus-calibrated
    selectivity observed from materialized labels when a ``selectivity_hook``
    provides one.
    """
    rate = evaluation.positive_rate
    if np.isnan(rate):
        warnings.warn(
            f"evaluation {evaluation.name!r} carries no positive_rate; "
            f"assuming selectivity {DEFAULT_SELECTIVITY}",
            stacklevel=2)
        return DEFAULT_SELECTIVITY
    return float(rate)


@dataclass(frozen=True)
class MetadataStep:
    """One cheap metadata filter in the physical plan."""

    predicate: MetadataPredicate


@dataclass(frozen=True)
class ContentStep:
    """One content predicate with its selected cascade and cost estimates."""

    predicate: ContainsObject
    evaluation: CascadeEvaluation
    selectivity: float
    cost_per_image_s: float

    @property
    def category(self) -> str:
        return self.predicate.category

    @property
    def rank(self) -> float:
        """Ordering key: estimated selectivity x selected-cascade cost."""
        return self.selectivity * self.cost_per_image_s


@dataclass(frozen=True)
class PlanNot:
    """Negation node of a physical predicate tree."""

    child: "PlanExpr"


@dataclass(frozen=True)
class PlanAnd:
    """Conjunction node; children are in execution order (cheap/selective
    first), and each child only sees rows every earlier child accepted."""

    children: tuple["PlanExpr", ...]


@dataclass(frozen=True)
class PlanOr:
    """Disjunction node; children are in execution order (cheap first), and
    each child only evaluates rows every earlier child left undecided."""

    children: tuple["PlanExpr", ...]


#: A physical predicate-tree node: steps at the leaves, boolean combinators
#: above them.
PlanExpr = "MetadataStep | ContentStep | PlanAnd | PlanOr | PlanNot"


def _node_stats(node) -> tuple[float, float]:
    """(estimated selectivity, expected cost per candidate) of one node.

    Metadata filters cost ~0 and, lacking statistics, are assumed to pass
    half their input; content steps carry the planner's estimates.  For AND
    the children run in order on a shrinking candidate set; for OR on a
    shrinking *undecided* set.
    """
    if isinstance(node, MetadataStep):
        return 0.5, 0.0
    if isinstance(node, ContentStep):
        return node.selectivity, node.cost_per_image_s
    if isinstance(node, PlanNot):
        selectivity, cost = _node_stats(node.child)
        return 1.0 - selectivity, cost
    if isinstance(node, PlanAnd):
        surviving, cost = 1.0, 0.0
        for child in node.children:
            child_selectivity, child_cost = _node_stats(child)
            cost += surviving * child_cost
            surviving *= child_selectivity
        return surviving, cost
    if isinstance(node, PlanOr):
        undecided, cost = 1.0, 0.0
        for child in node.children:
            child_selectivity, child_cost = _node_stats(child)
            cost += undecided * child_cost
            undecided *= 1.0 - child_selectivity
        return 1.0 - undecided, cost
    raise TypeError(f"not a plan node: {node!r}")


def _and_key(node) -> tuple[float, float]:
    """AND-child ordering key: selectivity x cost (cheap, selective first).

    Cost breaks rank ties, so a free metadata filter still runs before a
    cascade whose observed selectivity is 0.
    """
    selectivity, cost = _node_stats(node)
    return selectivity * cost, cost


def _or_key(node) -> tuple[float, float]:
    """OR-child ordering key: (1 - selectivity) x cost — a likely-true cheap
    disjunct decides the most rows before any expensive child runs.  Cost
    breaks rank ties (a cascade observed to accept every row)."""
    selectivity, cost = _node_stats(node)
    return (1.0 - selectivity) * cost, cost


def _cascade_leaves(node) -> "Iterator[ContentStep]":
    """Every cascade leaf under ``node`` in execution order (none for a
    metadata leaf or the ``None`` tree of a predicate-free scan)."""
    if isinstance(node, ContentStep):
        yield node
    elif isinstance(node, PlanNot):
        yield from _cascade_leaves(node.child)
    elif isinstance(node, (PlanAnd, PlanOr)):
        for child in node.children:
            yield from _cascade_leaves(child)


def _json_value(value):
    """A JSON-safe copy of one predicate literal (tuples become lists)."""
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _node_dict(node, node_stats: dict | None = None) -> dict:
    """Serialize one predicate-tree node (``EXPLAIN`` over the wire).

    With ``node_stats`` (``EXPLAIN ANALYZE``) every node also carries the
    planner's ``estimated_selectivity`` and, keyed off ``id(plan node)``,
    the executor's measurements as ``"actual"`` (rows in/out, actual
    selectivity, rows classified, elapsed seconds).  Nodes execution never
    reached — e.g. an OR disjunct decided away by short-circuiting — carry
    no ``"actual"`` key, which is itself informative.
    """
    if isinstance(node, MetadataStep):
        rendered = {"op": "filter",
                    "column": node.predicate.column,
                    "operator": node.predicate.operator,
                    "value": _json_value(node.predicate.value)}
    elif isinstance(node, ContentStep):
        rendered = {"op": "cascade",
                    "category": node.category,
                    "cascade": node.evaluation.name,
                    "depth": node.evaluation.depth,
                    "selectivity": float(node.selectivity),
                    "cost_per_image_s": float(node.cost_per_image_s),
                    "expected_accuracy": float(node.evaluation.accuracy),
                    "throughput_fps": float(node.evaluation.throughput)}
    elif isinstance(node, PlanNot):
        rendered = {"op": "not", "child": _node_dict(node.child, node_stats)}
    else:
        rendered = {"op": "and" if isinstance(node, PlanAnd) else "or",
                    "children": [_node_dict(child, node_stats)
                                 for child in node.children]}
    if node_stats is not None:
        rendered["estimated_selectivity"] = float(_node_stats(node)[0])
        actual = node_stats.get(id(node))
        if actual is not None:
            rendered["actual"] = dict(actual)
    return rendered


def _plan_dict(plan: "QueryPlan", node_stats: dict | None = None) -> dict:
    """The one wire shape of a plan: ``EXPLAIN`` without ``node_stats``,
    ``EXPLAIN ANALYZE`` with (see :func:`_node_dict`)."""
    tree = plan.predicate_tree  # None: a predicate-free scan serializes null
    return {
        "scenario": plan.scenario_name,
        "table": plan.table,
        "limit": plan.limit,
        "select": (None if plan.select is None
                   else [select_label(item) for item in plan.select]),
        "group_by": list(plan.group_by),
        "order_by": [{"key": item.label, "ascending": item.ascending}
                     for item in plan.order_by],
        "is_aggregate": plan.is_aggregate,
        "content_steps": [_node_dict(step, node_stats)
                          for step in plan.content_steps],
        "predicate_tree": tree and _node_dict(tree, node_stats),
        "expected_cost_per_candidate_s":
            plan.expected_cost_per_candidate_s(),
    }


def annotate_plan_dict(plan: "QueryPlan", node_stats: dict) -> dict:
    """:meth:`QueryPlan.to_dict` with per-node ``"actual"`` blocks attached.

    The ``EXPLAIN ANALYZE`` serialization: every predicate node carries its
    planner estimate (``estimated_selectivity``) next to the executor's
    measurements (``actual``), keyed off ``node_stats`` as recorded by
    :class:`~repro.db.executor.QueryExecutor` during the run.
    """
    return _plan_dict(plan, node_stats)


def _describe_node(node, indent: str = "") -> str:
    """Render one predicate-tree node for ``QueryPlan.describe()``."""
    if isinstance(node, MetadataStep):
        return f"{indent}filter   {node.predicate}"
    if isinstance(node, ContentStep):
        return (f"{indent}cascade  {node.predicate} "
                f"[{node.evaluation.name}, sel {node.selectivity:.2f}, "
                f"{node.cost_per_image_s * 1e3:.3f} ms/image, "
                f"exp accuracy {node.evaluation.accuracy:.3f}]")
    if isinstance(node, PlanNot):
        return f"{indent}NOT\n{_describe_node(node.child, indent + '  ')}"
    label = "AND" if isinstance(node, PlanAnd) else "OR"
    lines = [f"{indent}{label}"]
    lines.extend(_describe_node(child, indent + "  ")
                 for child in node.children)
    return "\n".join(lines)


@dataclass(frozen=True)
class QueryPlan:
    """The physical plan for one query, lowered from the logical pipeline
    Scan -> Filter -> Aggregate -> OrderBy -> Project -> Limit.

    The filter is the ordered boolean tree in ``predicate_tree`` (``None``
    only for a predicate-free scan): children of every AND/OR are already in
    execution order, so the paper's conjunctive shape is simply an AND root
    whose metadata leaves come first (syntactic order) and whose cascades
    follow in ascending selectivity x cost.  :attr:`conjuncts`,
    :attr:`content_steps` and :attr:`categories` are views derived from the
    tree, never stored beside it.

    ``select``/``group_by``/``order_by`` carry the projection, grouping and
    sort stages; ``db.explain(sql)`` returns this object and ``str(plan)``
    renders the human-readable form.
    """

    predicate_tree: "PlanExpr | None" = None
    limit: int | None = None
    scenario_name: str = ""
    table: str = ""
    select: tuple[SelectItem, ...] | None = None
    group_by: tuple[str, ...] = ()
    order_by: tuple[OrderItem, ...] = ()

    @property
    def conjuncts(self) -> "tuple[PlanExpr, ...]":
        """The top-level conjuncts, in execution order: the children of an
        AND root, the root itself otherwise, nothing for a predicate-free
        scan.  A row is selected iff every conjunct accepts it."""
        tree = self.predicate_tree
        if tree is None:
            return ()
        return tree.children if isinstance(tree, PlanAnd) else (tree,)

    @property
    def content_steps(self) -> tuple[ContentStep, ...]:
        """The tree's distinct cascade leaves (one per category), ascending
        selectivity x cost — the provenance listing behind ``cascades_used``
        / ``images_classified``."""
        distinct = {step.category: step
                    for step in _cascade_leaves(self.predicate_tree)}
        return tuple(sorted(distinct.values(), key=lambda step: step.rank))

    @property
    def aggregates(self) -> tuple[Aggregate, ...]:
        """The aggregate items of the SELECT list, in SELECT order."""
        return tuple(item for item in (self.select or ())
                     if isinstance(item, Aggregate))

    @property
    def is_aggregate(self) -> bool:
        """Whether the plan produces groups (aggregates / GROUP BY)."""
        return bool(self.aggregates) or bool(self.group_by)

    def referenced_columns(self) -> frozenset:
        """Columns the post-filter stages read: SELECT list (including
        aggregate arguments), GROUP BY and ORDER BY keys.

        The executor uses this to force classification of selected rows for
        any content-derived ``contains_*`` column these stages consume — a
        short-circuited OR may select rows without evaluating every cascade,
        and aggregating a placeholder label would corrupt the answer.
        """
        names = set(self.group_by)
        for item in (self.select or ()) + tuple(entry.key
                                                for entry in self.order_by):
            if isinstance(item, Aggregate):
                if item.argument is not None:
                    names.add(item.argument)
            else:
                names.add(item)
        return frozenset(names)

    @property
    def allow_early_stop(self) -> bool:
        """Whether ``LIMIT`` may stop execution early.

        Under aggregates or ORDER BY the limit applies to the *final* groups
        or sorted rows, so the executor must evaluate every candidate first;
        stopping early there would silently drop rows from the answer.
        """
        return not self.is_aggregate and not self.order_by

    @property
    def categories(self) -> tuple[str, ...]:
        """The content-predicate categories, ascending selectivity x cost."""
        return tuple(step.category for step in self.content_steps)

    def expected_cost_per_candidate_s(self) -> float:
        """Expected content cost per candidate image surviving metadata.

        The top-level metadata filters run once over the whole table for
        free; the remaining conjuncts then run in order, each one's cost
        weighted by the selectivity of those before it (and, inside an OR,
        by the share of rows earlier disjuncts left undecided).
        """
        _, cost = _node_stats(PlanAnd(tuple(
            conjunct for conjunct in self.conjuncts
            if not isinstance(conjunct, MetadataStep))))
        return cost

    def describe(self) -> str:
        target = f", table={self.table!r}" if self.table else ""
        header = f"QueryPlan (scenario={self.scenario_name or 'unknown'}{target})"
        # Subtree lines are indented to sit under the "  N. " stage prefix.
        stages = [_describe_node(conjunct, "     ").lstrip()
                  for conjunct in self.conjuncts]
        if self.is_aggregate:
            spec = ", ".join(aggregate.label for aggregate in self.aggregates)
            if self.group_by:
                spec += f"{' ' if spec else ''}group by " + \
                        ", ".join(self.group_by)
            stages.append(f"aggregate {spec}")
        if self.order_by:
            stages.append("order by " +
                          ", ".join(str(item) for item in self.order_by))
        if self.select is not None and not self.is_aggregate:
            stages.append("project  " + ", ".join(
                select_label(item) for item in self.select))
        if self.limit is not None:
            stages.append(f"limit    {self.limit}")
        lines = [header]
        lines.extend(f"  {number}. {stage}"
                     for number, stage in enumerate(stages, start=1))
        if self.content_steps:
            lines.append(f"  expected content cost per candidate: "
                         f"{self.expected_cost_per_candidate_s() * 1e3:.3f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serializable form of the plan (``EXPLAIN`` over the wire).

        Carries the same information as :meth:`describe` — the ordered
        predicate tree, the selected cascades with estimated
        selectivity/cost, projection, grouping, sort and limit stages, and
        the expected content cost per candidate — as plain dicts and lists,
        so clients can inspect plans without the repro package installed.
        """
        return _plan_dict(self)

    def __str__(self) -> str:
        return self.describe()


class QueryPlanner:
    """Turns logical queries into physical plans.

    Parameters
    ----------
    optimizers:
        Mapping from category name to an initialized
        :class:`~repro.core.optimizer.TahomaOptimizer`.
    profiler:
        The cost profiler of the active deployment scenario.  Both attributes
        are plain and mutable, so a long-lived planner can follow scenario
        switches (``db.use_scenario``).
    selectivity_hook:
        Optional ``(category, cascade_name) -> float | None`` callable
        supplying corpus-calibrated selectivity — typically the positive
        rate observed over already-materialized virtual columns
        (:meth:`~repro.db.executor.QueryExecutor.observed_positive_rate`).
        ``None`` (or a ``None`` return) falls back to the evaluation-set
        estimate.
    metrics:
        The registry planning time is recorded on
        (``repro_query_plan_seconds`` by table); a private registry is
        created when omitted.
    """

    def __init__(self, optimizers: dict[str, TahomaOptimizer],
                 profiler: CostProfiler,
                 selectivity_hook: Callable[[str, str], float | None]
                 | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.optimizers = dict(optimizers)
        self.profiler = profiler
        self.selectivity_hook = selectivity_hook
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plan_seconds = self.metrics.histogram(
            "repro_query_plan_seconds")

    def _optimizer_for(self, category: str) -> TahomaOptimizer:
        try:
            return self.optimizers[category]
        except KeyError:
            raise KeyError(f"no optimizer installed for category {category!r}; "
                           f"available: {sorted(self.optimizers)}") from None

    def _content_step(self, predicate: ContainsObject,
                      constraints, cache: dict) -> ContentStep:
        """Select a cascade for one category (once per query, cached)."""
        if predicate.category in cache:
            return cache[predicate.category]
        optimizer = self._optimizer_for(predicate.category)
        evaluation = optimizer.select(self.profiler, constraints)
        selectivity = None
        if self.selectivity_hook is not None:
            selectivity = self.selectivity_hook(predicate.category,
                                                evaluation.cascade.name)
        if selectivity is None:
            selectivity = estimate_selectivity(evaluation)
        step = ContentStep(predicate=predicate, evaluation=evaluation,
                           selectivity=selectivity,
                           cost_per_image_s=evaluation.cost.total_s)
        cache[predicate.category] = step
        return step

    def _lower(self, expr: BooleanExpr, constraints, cache: dict):
        """Lower one AST node into an ordered physical plan node.

        Children of AND are ordered by estimated selectivity x cost (the
        paper's rule, generalized to subtrees); children of OR by
        (1 - selectivity) x cost — a likely-true cheap disjunct decides the
        most rows per unit cost, and every later child only evaluates rows
        the earlier children left undecided.  Metadata filters cost nothing
        and therefore always run before any cascade at the same level, in
        syntactic order (the sort is stable).  Nested AND-of-AND / OR-of-OR
        is flattened first, so a pure conjunction orders globally however
        it was parenthesized.
        """
        if isinstance(expr, PredicateExpr):
            if isinstance(expr.predicate, ContainsObject):
                return self._content_step(expr.predicate, constraints, cache)
            return MetadataStep(expr.predicate)
        if isinstance(expr, NotExpr):
            return PlanNot(self._lower(expr.child, constraints, cache))
        if isinstance(expr, AndExpr):
            node_type, key = PlanAnd, _and_key
        elif isinstance(expr, OrExpr):
            node_type, key = PlanOr, _or_key
        else:
            raise TypeError(f"not a BooleanExpr node: {expr!r}")
        children = []
        for child in expr.children:
            lowered = self._lower(child, constraints, cache)
            if isinstance(lowered, node_type):
                children.extend(lowered.children)
            else:
                children.append(lowered)
        children.sort(key=key)
        return node_type(tuple(children))

    def plan(self, query: Query, table: str | None = None) -> QueryPlan:
        """Select cascades, estimate selectivities and order the predicates.

        The WHERE tree lowers to one ordered :data:`PlanExpr` tree, with
        cascades selected once per category.  For a conjunctive query (the
        paper's shape) that is an AND root: metadata filters first, then
        cascades by estimated selectivity x selected-cascade cost.

        ``table`` overrides the plan's table provenance — a fan-out query
        plans once per shard, and each shard's plan names the shard it was
        priced for (its ``selectivity_hook`` observes that shard's labels),
        not the virtual fan-out table.
        """
        started = time.perf_counter()
        cache: dict[str, ContentStep] = {}
        predicate_tree = None
        if query.where is not None:
            predicate_tree = self._lower(query.where, query.constraints,
                                         cache)
        plan = QueryPlan(predicate_tree=predicate_tree,
                         limit=query.limit,
                         scenario_name=self.profiler.scenario.name,
                         table=table if table is not None else query.table,
                         select=query.select,
                         group_by=query.group_by,
                         order_by=query.order_by)
        self._plan_seconds.observe(time.perf_counter() - started,
                                   table=plan.table or "-")
        return plan
