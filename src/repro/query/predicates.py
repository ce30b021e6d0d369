"""Query predicates: cheap metadata predicates and the contains_object predicate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.query.ast import QueryError
from repro.query.relation import Relation

__all__ = ["MetadataPredicate", "ContainsObject"]

_OPERATORS = {
    "==": lambda col, value: col == value,
    "!=": lambda col, value: col != value,
    "<": lambda col, value: col < value,
    "<=": lambda col, value: col <= value,
    ">": lambda col, value: col > value,
    ">=": lambda col, value: col >= value,
    "in": lambda col, value: np.isin(col, list(value)),
}


def _check_comparable(column: str, dtype: np.dtype, value: Any) -> None:
    """Reject comparisons NumPy would answer nonsensically (or crash on).

    A string column compared to a numeric literal (or vice versa) is a query
    bug; surface it as a :class:`~repro.query.ast.QueryError` naming the
    column and both types instead of a raw NumPy error (or an elementwise
    always-False) deep in the executor.
    """
    is_string_column = dtype.kind in ("U", "S")
    is_numeric_column = dtype.kind in ("b", "i", "u", "f")
    is_numeric_literal = isinstance(value, (int, float)) and not isinstance(
        value, bool)
    if is_string_column and is_numeric_literal:
        raise QueryError(
            f"cannot compare string column {column!r} (dtype {dtype}) to "
            f"numeric literal {value!r} ({type(value).__name__}); "
            "quote the value to compare as text")
    if is_numeric_column and isinstance(value, str):
        raise QueryError(
            f"cannot compare numeric column {column!r} (dtype {dtype}) to "
            f"string literal {value!r}; use an unquoted number")


@dataclass(frozen=True)
class MetadataPredicate:
    """A predicate over a metadata column, e.g. ``location == 'detroit'``.

    Metadata predicates are cheap and are evaluated before any classifier
    runs, shrinking the set of images the expensive ``contains_object``
    operator must touch.
    """

    column: str
    operator: str
    value: Any

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ValueError(f"unknown operator {self.operator!r}; "
                             f"available: {sorted(_OPERATORS)}")

    def evaluate(self, relation: Relation) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate.

        Raises :class:`~repro.query.ast.QueryError` when the literal's type
        cannot be compared against the column's dtype.
        """
        column = relation.column(self.column)
        values = self.value if self.operator == "in" else (self.value,)
        for value in values:
            _check_comparable(self.column, column.dtype, value)
        return np.asarray(_OPERATORS[self.operator](column, self.value), dtype=bool)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.column} {self.operator} {self.value!r}"


@dataclass(frozen=True)
class ContainsObject:
    """The binary content predicate ``contains_object(category)``.

    Evaluating it requires running a classifier (cascade) over image pixels;
    the planner decides which cascade, under which deployment scenario and
    user constraints.
    """

    category: str

    def __post_init__(self) -> None:
        if not self.category:
            raise ValueError("category must be non-empty")

    @property
    def column_name(self) -> str:
        """Name of the virtual column this predicate materializes."""
        return f"contains_{self.category}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"contains_object({self.category})"
