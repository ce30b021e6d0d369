"""Brute-force answers the timed results are checked against.

Every query the workloads issue is declared twice: as SQL text (what the
program sees) and as a NumPy predicate over per-category labels and metadata
columns (what the oracle evaluates).  The oracle classifies *all* rows of a
table with exactly the cascades the result reports in ``cascades_used``
(``Cascade.classify``, no store, no short-circuiting, no materialized
labels), applies the predicate, and then GROUP BY / ORDER BY / LIMIT by
their definitions.  Answers are put in one canonical form so in-process
results, wire rows and oracle output compare with ``==``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = ["FANOUT", "Shape", "answer_of", "answer_of_rows", "cascades_of",
           "expected"]

#: The virtual table that fans a query out across every shard.
FANOUT = "all_cameras"
COUNT = "count(*)"


@dataclass(frozen=True)
class Shape:
    """One query shape: the SQL the program runs and the oracle's predicate.

    ``where(labels, metadata, literal)`` returns the row mask; ``labels[c]``
    is the boolean output of the cascade used for ``contains_object(c)``.
    ``{literal}`` in ``where_sql`` is the rotating literal.
    """

    name: str
    select: str
    table: str
    where_sql: str
    where: Callable[[Mapping, Mapping, str | None], np.ndarray]
    group_by: str | None = None
    order_by_desc: str | None = None
    limit: int | None = None

    @property
    def takes_literal(self) -> bool:
        return "{literal}" in self.where_sql

    def sql(self, literal: str | None = None) -> str:
        text = f"SELECT {self.select} FROM {self.table}"
        if self.where_sql:
            text += " WHERE " + self.where_sql.format(literal=literal)
        if self.group_by:
            text += f" GROUP BY {self.group_by}"
        if self.order_by_desc:
            text += f" ORDER BY {self.order_by_desc} DESC"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


class _Labels(dict):
    """``labels[category]``, classified on first use."""

    def __init__(self, cascades: Mapping, images: np.ndarray) -> None:
        super().__init__()
        self._cascades = cascades
        self._images = images

    def __missing__(self, category: str) -> np.ndarray:
        labels = self._cascades[category].classify(self._images).astype(bool)
        self[category] = labels
        return labels


def cascades_of(result, shape: Shape) -> dict:
    """``{table: {category: Cascade}}`` from a result's ``cascades_used``."""
    used = result.cascades_used
    if shape.table != FANOUT:
        used = {shape.table: used}
    return {table: {category: evaluation.cascade
                    for category, evaluation in per_table.items()}
            for table, per_table in used.items()}


def expected(db, shape: Shape, literal: str | None, cascades: Mapping):
    """The canonical answer ``shape`` must produce on ``db`` right now."""
    tables = db.tables() if shape.table == FANOUT else [shape.table]
    groups: Counter = Counter()
    rows: list[tuple[str, int]] = []
    for table in tables:
        corpus = db.corpus_for(table)
        metadata = corpus.metadata
        labels = _Labels(cascades.get(table, {}), corpus.images)
        mask = (shape.where(labels, metadata, literal) if shape.where_sql
                else np.ones(len(corpus), dtype=bool))
        selected = np.flatnonzero(mask)
        if shape.group_by:
            groups.update(metadata[shape.group_by][selected].tolist())
            continue
        if shape.order_by_desc:
            keys = metadata[shape.order_by_desc][selected]
            selected = selected[np.argsort(-keys, kind="stable")]
        offset = db.executor_for(table).id_offset
        rows.extend((table, int(offset + index)) for index in selected)
    if shape.group_by:
        return tuple(sorted(groups.items()))
    return tuple(rows if shape.limit is None else rows[:shape.limit])


def answer_of(result, shape: Shape):
    """An in-process result set in canonical form (columnar, no row dicts)."""
    relation = result.to_relation()
    if shape.group_by:
        return tuple(sorted(zip(relation[shape.group_by].tolist(),
                                relation[COUNT].tolist())))
    ids = relation["image_id"].tolist()
    tables = (relation["__table__"].tolist() if "__table__" in relation
              else [shape.table] * len(ids))
    return tuple(zip(tables, ids))


def answer_of_rows(rows: list[dict], shape: Shape):
    """Rows fetched over the wire in canonical form."""
    if shape.group_by:
        return tuple(sorted((row[shape.group_by], row[COUNT])
                            for row in rows))
    return tuple((row.get("__table__", shape.table), row["image_id"])
                 for row in rows)
