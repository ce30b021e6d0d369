"""Result sets: DB-API-flavoured cursors over query results.

``db.execute(sql)`` returns a :class:`ResultSet` rather than a bare relation
so callers can consume results the way they would from a database driver:
``len()``, row iteration, ``fetchone()`` / ``fetchmany(n)`` / ``fetchall()``
with a cursor that advances, and ``to_relation()`` for columnar access.  Rows
are built lazily, one page at a time: each column is sliced once and
converted by :func:`column_values`, and the slices are zipped into
dictionaries, so batched consumers never materialize a million dictionaries
at once and no cell pays a NumPy scalar conversion of its own.
:meth:`ResultSet.fetchmany` with ``columnar=True`` pages the same cursor as
column slices, for consumers (the wire) that never need a row dictionary.

This module is also where the query's tail is applied to executor output.
:func:`build_result_set` is the one dispatch from what the executors
returned (one table's result, or a fan-out's per-shard results) to a result
set, and every kind — one table's rows, merged fan-out rows, finalized
groups — is shaped by one step, :func:`_tail`: sort by ORDER BY, take the
first LIMIT rows, project the SELECT list.

A fan-out query (``SELECT * FROM all_cameras`` or ``execute(sql,
tables=[...])``) returns a :class:`FanoutResultSet`: the same cursor API over
the merged rows, a ``__table__`` provenance column naming the shard each row
came from, and per-shard plans and execution statistics.  A fan-out
*aggregate* never merges rows at all — each shard ships partial aggregates
(group tuples) and :meth:`AggregateResultSet.from_fanout` merges them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.db.aggregates import GroupedPartials, merge_partials
from repro.db.planner import QueryPlan
from repro.query.ast import OrderItem, QueryError, select_label
from repro.query.model import QueryResult
from repro.query.relation import Relation, to_python as _to_python

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.evaluator import CascadeEvaluation

__all__ = ["ResultSet", "FanoutResultSet", "AggregateResultSet",
           "build_result_set", "column_values", "TABLE_COLUMN"]

#: Provenance column added to merged fan-out results: the shard each row
#: came from.
TABLE_COLUMN = "__table__"

#: Rows built per column slice while iterating a result set.
_ITER_PAGE_ROWS = 1024


class ResultSet:
    """Rows selected by one query, plus the plan that produced them."""

    def __init__(self, result: "QueryResult", plan: QueryPlan | None) -> None:
        self._result = result
        self.plan = plan
        self._cursor = 0
        self._query_stats: dict = {}

    # -- shape ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._result)

    @property
    def columns(self) -> list[str]:
        """Column names, including materialized ``contains_*`` columns."""
        return self._result.relation.column_names()

    @property
    def image_ids(self) -> np.ndarray:
        """Stable image ids of the selected images, in corpus order.

        Ids match the relation's ``image_id`` column and survive retention
        passes (they are corpus row positions plus the table's id offset).
        """
        return self._result.selected_indices

    # -- provenance ----------------------------------------------------------
    @property
    def cascades_used(self) -> dict[str, "CascadeEvaluation"]:
        """The cascade selected for each content predicate."""
        return self._result.cascades_used

    @property
    def images_classified(self) -> dict[str, int]:
        """How many rows each content predicate actually classified."""
        return self._result.images_classified

    def attach_stats(self, **stats) -> None:
        """Record query-level execution facts (``wall_time_s``, ``trace_id``).

        Called by :meth:`repro.db.database.VisualDatabase.execute` after the
        query's trace closes; the values surface through :meth:`stats`.
        """
        self._query_stats.update(stats)

    def stats(self) -> dict:
        """A JSON-safe summary of the execution that produced this result.

        Keys: ``rows`` (selected rows, or groups for an aggregate),
        ``images_classified`` (per content predicate — per shard for a
        fan-out), ``cascades_used`` (the *name* of the cascade each content
        predicate ran), plus whatever :meth:`attach_stats` recorded —
        ``wall_time_s`` and ``trace_id`` when the database executed the
        query (both ``None`` for a result set built outside it).
        """
        def names(mapping: dict) -> dict:
            return {key: (names(value) if isinstance(value, dict)
                          else getattr(value, "name", str(value)))
                    for key, value in mapping.items()}

        classified = {
            key: (dict(value) if isinstance(value, dict) else int(value))
            for key, value in self._result.images_classified.items()}
        return {"rows": len(self),
                "images_classified": classified,
                "cascades_used": names(self._result.cascades_used),
                "wall_time_s": self._query_stats.get("wall_time_s"),
                "trace_id": self._query_stats.get("trace_id"),
                **{key: value for key, value in self._query_stats.items()
                   if key not in ("wall_time_s", "trace_id")}}

    # -- row access -----------------------------------------------------------
    def _slices(self, start: int, stop: int) -> list[np.ndarray]:
        """Rows ``start:stop`` as one array slice per column, in
        :attr:`columns` order."""
        relation = self._result.relation
        return [relation.column(name)[start:stop]
                for name in relation.column_names()]

    def _rows(self, start: int, stop: int) -> list[dict]:
        """Rows ``start:stop`` as plain dictionaries, zipped from
        :func:`column_values` of each column slice."""
        columns = [column_values(values)
                   for values in self._slices(start, stop)]
        return [dict(zip(self.columns, row)) for row in zip(*columns)]

    def row(self, index: int) -> dict:
        """The ``index``-th selected row as a plain dictionary."""
        if not 0 <= index < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        return self._rows(index, index + 1)[0]

    def __iter__(self) -> Iterator[dict]:
        """Iterate over all rows lazily (independent of the fetch cursor)."""
        for start in range(0, len(self), _ITER_PAGE_ROWS):
            yield from self._rows(start, start + _ITER_PAGE_ROWS)

    def fetchone(self) -> dict | None:
        """The next row, or ``None`` when the cursor is exhausted."""
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int = 1, *,
                  columnar: bool = False) -> list[dict] | list[np.ndarray]:
        """The next ``size`` rows, advancing the cursor; shorter at the end.

        ``fetchmany(0)`` returns no row without moving the cursor; a
        negative size raises :class:`ValueError`.  With ``columnar=True``
        the same rows come back as one array slice per column, in
        :attr:`columns` order (each empty when no row is taken), so a
        consumer that ships columns never builds a row dictionary;
        :func:`column_values` turns a slice into the values the row
        dictionaries would have held.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        start = self._cursor
        stop = self._cursor = min(start + size, len(self))
        if columnar:
            return self._slices(start, stop)
        return self._rows(start, stop)

    def fetchall(self) -> list[dict]:
        """All remaining rows, advancing the cursor to the end."""
        return self.fetchmany(len(self) - self._cursor)

    @property
    def remaining(self) -> int:
        """Rows the fetch cursor has not yet consumed.

        The serving layer's cursor paging is built on this: a server-side
        cursor reports ``remaining`` after every ``fetch`` so clients know
        when to stop paging without an extra empty round trip.
        """
        return len(self) - self._cursor

    # -- columnar access -----------------------------------------------------
    def to_relation(self) -> Relation:
        """The selected rows as a columnar :class:`Relation`."""
        return self._result.relation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scenario = self.plan.scenario_name if self.plan else "unknown"
        return (f"ResultSet(rows={len(self)}, "
                f"columns={self.columns}, "
                f"scenario={scenario!r})")


def column_values(values: np.ndarray) -> list:
    """One column slice as plain Python values.

    Values and types equal :func:`~repro.query.relation.to_python` per
    cell: ``tolist()`` converts a typed slice the same way, and object
    columns (the ``None`` fill of :func:`_fill_column`, or NumPy scalars)
    are converted cell by cell.
    """
    if values.dtype == object:
        return [_to_python(value) for value in values]
    return values.tolist()


def _sorted_permutation(relation: Relation,
                        order_by: tuple[OrderItem, ...]) -> np.ndarray:
    """Row permutation sorting ``relation`` by the ORDER BY keys.

    Sorts are applied least-significant key first (each pass stable), so
    earlier keys dominate.  Descending order sorts on negated rank codes —
    dtype-agnostic, so string keys descend too.
    """
    permutation = np.arange(len(relation))
    for item in reversed(order_by):
        name = item.label
        if name not in relation:
            raise QueryError(f"ORDER BY: unknown column {name!r}; "
                             f"available: {relation.column_names()}")
        values = relation.column(name)[permutation]
        codes = np.unique(values, return_inverse=True)[1]
        if not item.ascending:
            codes = -codes
        permutation = permutation[np.argsort(codes, kind="stable")]
    return permutation


def _project(relation: Relation, names: list[str]) -> Relation:
    """Project with a query-level error naming the available columns."""
    missing = [name for name in names if name not in relation]
    if missing:
        raise QueryError(f"SELECT: unknown column(s) {missing}; "
                         f"available: {relation.column_names()}")
    # Preserve SELECT-list order while dropping duplicates.
    return relation.project(list(dict.fromkeys(names)))


def _tail(result: "QueryResult", plan: QueryPlan | None,
          keep: tuple[str, ...] = ()) -> "QueryResult":
    """The ORDER BY -> LIMIT -> SELECT tail, over rows or finalized groups.

    Sorts by the ORDER BY keys, takes the first LIMIT rows and projects the
    SELECT list plus ``keep`` (fan-out provenance).  The executor already
    applied LIMIT where early stop was legal; under ORDER BY it deferred the
    limit to here, after the sort.  A result already within LIMIT with no
    ORDER BY and no projection passes through as the same object.
    """
    if plan is None:
        return result
    rows = None
    if plan.order_by:
        rows = _sorted_permutation(result.relation, plan.order_by)[:plan.limit]
    elif plan.limit is not None and plan.limit < len(result.relation):
        rows = np.arange(plan.limit)
    if rows is not None:
        result = replace(result, relation=result.relation.take(rows),
                         selected_indices=result.selected_indices[rows])
    if plan.select is not None:
        names = [select_label(item) for item in plan.select] + list(keep)
        result = replace(result, relation=_project(result.relation, names))
    return result


def _shard_provenance(results: "Mapping[str, QueryResult]") -> dict:
    """A fan-out's provenance: ``cascades_used`` and ``images_classified``,
    each keyed by shard."""
    if not results:
        raise ValueError("a fan-out needs at least one table")
    return {"cascades_used": {table: dict(result.cascades_used)
                              for table, result in results.items()},
            "images_classified": {table: dict(result.images_classified)
                                  for table, result in results.items()}}


def build_result_set(raw: "QueryResult | Mapping[str, QueryResult]",
                     plans: "QueryPlan | Mapping[str, QueryPlan] | None"
                     ) -> "ResultSet":
    """Wrap executor output according to its plan(s): the one dispatch.

    One table's result with its plan becomes an :class:`AggregateResultSet`
    (aggregate plans) or a plain :class:`ResultSet`; a fan-out's
    ``{table: QueryResult}`` with its ``{table: QueryPlan}`` becomes an
    :class:`AggregateResultSet` merged from per-shard partials or a
    :class:`FanoutResultSet`.  Each is shaped by :func:`_tail`.
    """
    if isinstance(plans, Mapping):
        if next(iter(plans.values())).is_aggregate:
            return AggregateResultSet.from_fanout(raw, plans)
        return FanoutResultSet(raw, plans)
    if plans is not None and plans.is_aggregate:
        return AggregateResultSet(raw.partials, plans,
                                  cascades_used=raw.cascades_used,
                                  images_classified=raw.images_classified)
    return ResultSet(_tail(raw, plans), plans)


class AggregateResultSet(ResultSet):
    """Groups produced by an aggregate query (aggregates and/or GROUP BY).

    Rows are *group tuples* — the GROUP BY columns plus one column per
    aggregate, named by its SQL spelling (``count(*)``, ``avg(speed)``).
    The full cursor API of :class:`ResultSet` works over the groups; ORDER
    BY, LIMIT and the SELECT projection have already been applied.  For a
    fan-out query (:meth:`from_fanout`) the groups are the coordinator-side
    merge of every shard's partial aggregates — COUNT/SUM/MIN/MAX merge
    associatively and AVG merges exactly via (sum, count) — and
    ``cascades_used`` / ``images_classified`` / ``plans`` are per shard, as
    on :class:`FanoutResultSet`.
    """

    def __init__(self, partials: GroupedPartials, plan: QueryPlan, *,
                 cascades_used: dict, images_classified: dict,
                 plans: Mapping[str, QueryPlan] | None = None) -> None:
        if partials is None:
            raise ValueError("aggregate plan executed without partials; "
                             "the executor did not aggregate")
        groups = partials.finalize()
        super().__init__(_tail(QueryResult(
            relation=groups, selected_indices=np.arange(len(groups)),
            cascades_used=cascades_used,
            images_classified=images_classified), plan), plan)
        self.partials = partials
        self.plans = dict(plans) if plans is not None else None

    @classmethod
    def from_fanout(cls, results: "Mapping[str, QueryResult]",
                    plans: Mapping[str, QueryPlan]) -> "AggregateResultSet":
        """Merge per-shard partial aggregates at the coordinator.

        Shards ship group tuples, never selected rows; the reference plan
        (they differ only in per-shard cascade choices) supplies the
        ORDER BY / LIMIT / projection tail applied to the merged groups.
        """
        provenance = _shard_provenance(results)
        merged = None
        for result in results.values():
            merged = (result.partials if merged is None
                      else merge_partials(merged, result.partials))
        return cls(merged, next(iter(plans.values())), **provenance,
                   plans=plans)

    @property
    def image_ids(self) -> np.ndarray:
        raise QueryError("aggregate results are groups, not images; "
                         "image ids are not defined")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AggregateResultSet(groups={len(self)}, "
                f"columns={self.columns})")


def _fill_column(dtype: np.dtype, n: int) -> np.ndarray:
    """A typed fill for a column a shard does not carry."""
    if np.issubdtype(dtype, np.floating):
        value = np.nan
    elif np.issubdtype(dtype, np.bool_):
        value = False
    elif np.issubdtype(dtype, np.unsignedinteger):
        value = np.iinfo(dtype).max  # -1 would overflow; max is the sentinel
    elif np.issubdtype(dtype, np.integer):
        value = -1
    elif dtype.kind in ("U", "S"):
        value = ""
    else:
        value = None
    return np.full(n, value, dtype=dtype)


def _merge_relations(results: "Mapping[str, QueryResult]") -> Relation:
    """Concatenate shard relations, tagging rows with :data:`TABLE_COLUMN`.

    Shards may carry different metadata columns (cameras need not share a
    schema); the merge takes the column *union*, padding the shards that
    lack a column with a typed fill value (NaN for floats, -1 for integers,
    False for booleans, "" for strings) so no shard's rows — and no shard's
    columns — are silently dropped or misaligned.
    """
    relations = {table: result.relation for table, result in results.items()}
    union: list[str] = []
    for relation in relations.values():
        union.extend(name for name in relation.column_names()
                     if name not in union)
    columns = {}
    for name in sorted(union):
        present = [relation[name] for relation in relations.values()
                   if name in relation]
        dtype = np.result_type(*(array.dtype for array in present))
        columns[name] = np.concatenate(
            [np.asarray(relation[name], dtype=dtype) if name in relation
             else _fill_column(dtype, len(relation))
             for relation in relations.values()])
    columns[TABLE_COLUMN] = np.concatenate(
        [np.full(len(relation), table)
         for table, relation in relations.items()])
    return Relation(columns)


def _apply_limit(results: "Mapping[str, QueryResult]",
                 limit: int | None) -> "dict[str, QueryResult]":
    """Cap the merged fan-out at ``limit`` rows.

    Each shard's plan carries the limit as a per-shard upper bound (chunked
    early stop), so up to ``limit x shards`` rows arrive here; the merged
    result must still honour ``LIMIT n`` — rows are kept in corpus order
    within a shard and attachment order across shards.  Shards past the cap
    keep their execution statistics but contribute zero rows.
    """
    if limit is None:
        return dict(results)
    capped, remaining = {}, limit
    for table, result in results.items():
        capped[table] = _tail(result, QueryPlan(limit=remaining))
        remaining -= len(capped[table])
    return capped


class FanoutResultSet(ResultSet):
    """Merged rows from one query fanned out across catalog tables.

    Shards are concatenated in fan-out order; every cursor/row/columnar
    operation of :class:`ResultSet` works on the merged rows, which carry a
    ``__table__`` provenance column.  Provenance accessors are *per shard*:
    :attr:`cascades_used` and :attr:`images_classified` map table name →
    per-category mapping (a shard's observed selectivity can select a
    different cascade than its neighbour's), :attr:`plans` maps table name →
    the :class:`~repro.db.planner.QueryPlan` that shard ran, and
    :meth:`per_table` recovers one shard's rows as a plain
    :class:`ResultSet`.  :attr:`image_ids` are per-shard stable ids,
    concatenated in fan-out order: unique only *within* a shard, so pair
    them with the ``__table__`` column (or use :meth:`per_table`).

    A ``LIMIT n`` query caps the *merged* rows at ``n`` (corpus order within
    a shard, attachment order across shards); per-shard statistics still
    report the work each shard actually did, and :meth:`per_table` views are
    consistent with the merged rows.  Under ``ORDER BY`` the merged rows are
    instead sorted *globally* before the limit and projection apply, and
    :meth:`per_table` then exposes each shard's full selected rows as the
    executor produced them — unsorted, unprojected and uncapped — since no
    per-shard subset can reflect a global sort.
    """

    def __init__(self, results: "Mapping[str, QueryResult]",
                 plans: Mapping[str, QueryPlan]) -> None:
        provenance = _shard_provenance(results)
        reference = next(iter(plans.values()))
        if not reference.order_by:
            # Per-shard plans carry LIMIT n as an upper bound (each shard's
            # chunked early stop), so the union can hold up to n x shards
            # rows; the merged result still honours the query's LIMIT.
            results = _apply_limit(results, reference.limit)
        merged = QueryResult(
            relation=_merge_relations(results),
            selected_indices=np.concatenate(
                [result.selected_indices for result in results.values()]),
            **provenance)
        # Under ORDER BY the merged rows are sorted globally before the
        # LIMIT applies (shards could not early-stop), and the projection
        # keeps the provenance column.
        super().__init__(_tail(merged, reference, keep=(TABLE_COLUMN,)),
                         plan=None)
        self._per_table = dict(results)
        self.plans = dict(plans)

    @property
    def tables(self) -> tuple[str, ...]:
        """The shards this result was merged from, in fan-out order."""
        return tuple(self._per_table)

    def per_table(self, table: str) -> ResultSet:
        """One shard's rows as a plain :class:`ResultSet` (fresh cursor)."""
        try:
            return ResultSet(self._per_table[table], self.plans.get(table))
        except KeyError:
            raise KeyError(f"no table {table!r} in this result; "
                           f"tables: {list(self._per_table)}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FanoutResultSet(rows={len(self)}, "
                f"tables={list(self._per_table)})")
