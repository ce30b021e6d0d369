"""The query model: SELECT ... FROM <table> WHERE <boolean predicate tree>.

:class:`Query` is what the SQL front end (:mod:`repro.query.sql`) parses
into and :class:`~repro.db.planner.QueryPlanner` plans from;
:class:`QueryResult` is what :class:`~repro.db.executor.QueryExecutor`
returns and :mod:`repro.db.results` wraps into result sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.evaluator import CascadeEvaluation
from repro.core.selector import UserConstraints
from repro.query.ast import BooleanExpr, OrderItem, SelectItem
from repro.query.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.db.aggregates import GroupedPartials

__all__ = ["Query", "QueryResult", "DEFAULT_TABLE"]

#: The table an unqualified query targets — what ``connect(corpus)`` names
#: its single corpus.  :mod:`repro.db.catalog` re-exports this; it lives here
#: so the query model and the catalog can share it without an import cycle.
DEFAULT_TABLE = "images"


@dataclass(frozen=True)
class Query:
    """One SELECT query over one table of the catalog.

    The WHERE clause is the :class:`~repro.query.ast.BooleanExpr` tree in
    ``where`` (``None`` for a bare scan); the planner lowers it into one
    cost-ordered plan tree.  ``select`` lists the projected columns and
    aggregates (``None`` means ``*``), ``group_by``/``order_by`` carry the
    grouping and sort keys, and ``limit`` caps the number of returned rows
    (result *groups* for an aggregate query).  ``table`` is the ``FROM``
    target — a catalog table name, or the virtual ``all_cameras`` table
    that fans the query out across every shard.
    """

    constraints: UserConstraints = field(default_factory=UserConstraints)
    limit: int | None = None
    table: str = DEFAULT_TABLE
    where: BooleanExpr | None = None
    select: tuple[SelectItem, ...] | None = None
    group_by: tuple[str, ...] = ()
    order_by: tuple[OrderItem, ...] = ()

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")
        if self.select is not None and not self.select:
            raise ValueError("select must name at least one item (or be None "
                             "for SELECT *)")


@dataclass
class QueryResult:
    """Rows selected by a query plus bookkeeping about how they were produced.

    For an aggregate query the executor additionally attaches ``partials`` —
    the per-shard partial aggregate states
    (:class:`~repro.db.aggregates.GroupedPartials`) a fan-out coordinator
    merges, so a grouped count over N cameras ships group tuples, not rows.
    """

    relation: Relation
    selected_indices: np.ndarray
    cascades_used: dict[str, CascadeEvaluation]
    images_classified: dict[str, int]
    partials: "GroupedPartials | None" = None
    #: Per-plan-node execution measurements keyed by ``id(plan node)`` —
    #: rows in/out, actual selectivity, rows classified, elapsed seconds —
    #: consumed by ``EXPLAIN ANALYZE``
    #: (:func:`repro.db.planner.annotate_plan_dict`).
    node_stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.selected_indices.size)
