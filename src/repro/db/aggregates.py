"""Distributed aggregates: per-shard partial states and their merge.

The paper's workloads are dominated by counting/grouping analytics ("how
many frames per camera contain a bicycle?").  For a fan-out query the
coordinator must not ship every selected row across shards just to count
them — each shard computes a :class:`GroupedPartials` over its own selected
rows and the coordinator merges the *group tuples*:

* COUNT, SUM, MIN and MAX merge associatively;
* AVG is exact because its partial state is ``(sum, count)`` — never a
  per-shard average of averages.

A query without GROUP BY is a single global group (one output row even over
zero selected rows, as in SQL); with GROUP BY, groups appear in key-sorted
order unless the query orders them otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.query.ast import Aggregate, QueryError
from repro.query.relation import Relation, to_python as _to_python

__all__ = ["GroupedPartials", "compute_partials", "merge_partials"]


def _numeric_values(aggregate: Aggregate, values: np.ndarray) -> np.ndarray:
    if values.dtype.kind not in ("b", "i", "u", "f"):
        raise QueryError(
            f"{aggregate.label}: column {aggregate.argument!r} has "
            f"non-numeric dtype {values.dtype}; SUM/AVG need a numeric column")
    return values


def _non_null(values: np.ndarray) -> np.ndarray:
    """Drop NaN entries of float columns — NaN is the relation's NULL.

    Every aggregate skips NULLs the SQL way: COUNT(col) counts the rest,
    SUM/AVG total and average the rest, MIN/MAX ignore them.  Non-float
    dtypes have no null sentinel, so all rows count.
    """
    if values.dtype.kind == "f":
        return values[~np.isnan(values)]
    return values


def _initial_state(aggregate: Aggregate, values: np.ndarray | None,
                   n_rows: int):
    """The partial state of one aggregate over one shard's group rows.

    ``values`` is ``None`` only for ``COUNT(*)``; otherwise it is the
    group's slice of the argument column.  States are chosen so that merging
    is associative and AVG stays exact: ``count`` -> n, ``sum``/``avg`` ->
    (total, n), ``min``/``max`` -> the extremum or ``None`` over no rows.
    """
    func = aggregate.func
    if func == "count":
        if values is None:
            return n_rows
        return int(_non_null(values).shape[0])
    if func in ("sum", "avg"):
        values = _non_null(_numeric_values(aggregate, values))
        total = float(np.sum(values)) if values.size else 0.0
        return (total, int(values.shape[0]))
    # Not np.min/np.max: the minimum/maximum ufuncs have no unicode loop,
    # and MIN/MAX over a string column is well-defined (lexicographic) —
    # one sort covers every comparable dtype.
    values = np.sort(_non_null(values))
    if func == "min":
        return _to_python(values[0]) if values.size else None
    return _to_python(values[-1]) if values.size else None


def _merge_state(func: str, a, b):
    if func == "count":
        return a + b
    if func in ("sum", "avg"):
        return (a[0] + b[0], a[1] + b[1])
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b) if func == "min" else max(a, b)


def _finalize_state(func: str, state):
    if func == "count":
        return state
    if func == "sum":
        total, n = state
        return total if n else float("nan")
    if func == "avg":
        total, n = state
        return total / n if n else float("nan")
    return state if state is not None else float("nan")


@dataclass
class GroupedPartials:
    """Partial aggregate states for every group of one shard (or a merge).

    ``groups`` maps the group key (a tuple of plain-Python group-column
    values; the empty tuple for a global aggregate) to one partial state per
    aggregate, in ``aggregates`` order.
    """

    group_by: tuple[str, ...]
    aggregates: tuple[Aggregate, ...]
    groups: dict[tuple, tuple]

    def finalize(self) -> Relation:
        """The merged groups as a relation: group columns + aggregate labels.

        Groups appear in key-sorted order (deterministic across merges); an
        ORDER BY stage re-sorts downstream.  SUM/AVG/MIN/MAX over zero rows
        finalize to NaN (SQL's NULL); COUNT to 0.
        """
        keys = sorted(self.groups)
        columns: dict[str, np.ndarray] = {}
        for position, name in enumerate(self.group_by):
            columns[name] = np.array([key[position] for key in keys])
        for position, aggregate in enumerate(self.aggregates):
            columns[aggregate.label] = np.array(
                [_finalize_state(aggregate.func, self.groups[key][position])
                 for key in keys])
        if not columns:
            raise QueryError("an aggregate query needs at least one "
                             "aggregate or GROUP BY column")
        return Relation(columns)


def compute_partials(relation: Relation, aggregates: tuple[Aggregate, ...],
                     group_by: tuple[str, ...]) -> GroupedPartials:
    """Partial aggregates over one shard's selected rows.

    Unknown group or argument columns raise :class:`QueryError` naming the
    available columns.
    """
    n = len(relation)
    for aggregate in aggregates:
        if aggregate.argument is not None:
            _require_column(relation, aggregate.argument, aggregate.label)
    for name in group_by:
        _require_column(relation, name, "GROUP BY")

    if group_by:
        group_arrays = [np.asarray(relation[name]) for name in group_by]
        stacked = np.empty(n, dtype=[(f"k{i}", array.dtype)
                                     for i, array in enumerate(group_arrays)])
        for i, array in enumerate(group_arrays):
            stacked[f"k{i}"] = array
        unique_keys, inverse = np.unique(stacked, return_inverse=True)
        # One stable argsort groups the members of every group contiguously
        # (O(n log n)); a per-group `inverse == g` scan would be
        # O(groups x rows) and collapse on high-cardinality keys.
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=len(unique_keys))
        member_lists = np.split(order, np.cumsum(counts)[:-1])
        keys = [tuple(_to_python(unique_keys[g][f"k{i}"])
                      for i in range(len(group_by)))
                for g in range(len(unique_keys))]
    else:
        # A global aggregate is one group — present even over zero rows.
        member_lists = [np.arange(n)]
        keys = [()]

    groups: dict[tuple, tuple] = {}
    for key, members in zip(keys, member_lists):
        states = []
        for aggregate in aggregates:
            values = (None if aggregate.argument is None
                      else np.asarray(relation[aggregate.argument])[members])
            states.append(_initial_state(aggregate, values, int(members.size)))
        groups[key] = tuple(states)
    return GroupedPartials(group_by=group_by, aggregates=aggregates,
                           groups=groups)


def merge_partials(a: GroupedPartials, b: GroupedPartials) -> GroupedPartials:
    """Merge two shards' partials (associative; AVG merges as sum+count)."""
    if a.group_by != b.group_by or a.aggregates != b.aggregates:
        raise ValueError("cannot merge partials of different aggregate specs")
    groups = dict(a.groups)
    for key, states in b.groups.items():
        mine = groups.get(key)
        if mine is None:
            groups[key] = states
        else:
            groups[key] = tuple(
                _merge_state(aggregate.func, left, right)
                for aggregate, left, right in zip(a.aggregates, mine, states))
    return GroupedPartials(group_by=a.group_by, aggregates=a.aggregates,
                           groups=groups)


def _require_column(relation: Relation, name: str, context: str) -> None:
    if name not in relation:
        raise QueryError(f"{context}: unknown column {name!r}; "
                         f"available: {relation.column_names()}")
