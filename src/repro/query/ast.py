"""Query AST: tokens, boolean predicate trees, select items, errors.

The SQL front end (:mod:`repro.query.sql`) tokenizes query text with
:func:`tokenize` and parses it into the node types defined here; the planner
(:mod:`repro.db.planner`) lowers them into a physical plan.  The AST is the
contract between the two layers:

* a WHERE clause is a :class:`BooleanExpr` tree — :class:`PredicateExpr`
  leaves (wrapping :class:`~repro.query.predicates.MetadataPredicate` or
  :class:`~repro.query.predicates.ContainsObject`) combined with
  :class:`AndExpr` / :class:`OrExpr` / :class:`NotExpr`;
* a SELECT list is a tuple of column names and :class:`Aggregate` items
  (``None`` meaning ``*``);
* ORDER BY is a tuple of :class:`OrderItem` keys.

Everything is a frozen dataclass, so queries stay hashable/comparable and a
plan can embed AST fragments without defensive copying.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.query.predicates import ContainsObject, MetadataPredicate

__all__ = [
    "SqlParseError", "QueryError", "QueryTimeoutError",
    "Token", "tokenize",
    "BooleanExpr", "PredicateExpr", "AndExpr", "OrExpr", "NotExpr",
    "Aggregate", "OrderItem", "AGGREGATE_FUNCTIONS", "select_label",
]


class SqlParseError(ValueError):
    """Raised when a query string does not match the supported dialect.

    Carries *where* parsing failed: ``offset`` is the character position in
    the original query text and ``token`` the offending token text (``None``
    at end of input).  Both are folded into the message.
    """

    def __init__(self, message: str, *, offset: int | None = None,
                 token: str | None = None) -> None:
        self.offset = offset
        self.token = token
        self.message = message
        if offset is not None:
            where = (f"at {token!r} (offset {offset})" if token is not None
                     else f"at end of input (offset {offset})")
            message = f"{message} {where}"
        super().__init__(message)

    def to_dict(self) -> dict:
        """A machine-readable payload (wire protocol / structured logging).

        ``message`` is the bare error text — ``offset``/``token`` carry the
        location separately, so a client can reconstruct the exception
        exactly: ``SqlParseError(d["message"], offset=d["offset"],
        token=d["token"])``.
        """
        return {"type": "SqlParseError", "message": self.message,
                "token": self.token, "offset": self.offset}


class QueryError(ValueError):
    """Raised when a well-formed query cannot be evaluated.

    Parse-time problems raise :class:`SqlParseError`; this is the
    evaluation-time counterpart — an unknown projection column, a
    type-mismatched comparison, an aggregate over a non-numeric column.
    """

    def to_dict(self) -> dict:
        """A machine-readable payload: the concrete error type and message."""
        return {"type": type(self).__name__, "message": str(self)}


class QueryTimeoutError(QueryError):
    """Raised when a query exceeds its deadline and is aborted.

    The executor checks a cancellation hook at chunk boundaries
    (:meth:`~repro.db.executor.QueryExecutor.execute`); a serving layer's
    hook raises this once the per-query deadline passes, so long-running
    classification work stops between chunks instead of hanging a connection.
    """


# -- tokens -------------------------------------------------------------------

#: Token types produced by :func:`tokenize`.
_TOKEN_SPEC = [
    ("WS", r"\s+"),
    ("STRING", r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\""),
    ("NUMBER", r"-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"),
    ("IDENT", r"[A-Za-z_]\w*"),
    ("OP", r"<=|>=|!=|=|<|>"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("STAR", r"\*"),
    ("SEMI", r";"),
    ("DASH", r"-"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})"
                                for name, pattern in _TOKEN_SPEC))


@dataclass(frozen=True)
class Token:
    """One lexical token: its type, raw text and character offset."""

    type: str
    text: str
    offset: int

    @property
    def value(self):
        """The Python value of a STRING (unescaped) or NUMBER token."""
        if self.type == "STRING":
            quote = self.text[0]
            return self.text[1:-1].replace(quote * 2, quote)
        if self.type == "NUMBER":
            try:
                return int(self.text)
            except ValueError:
                return float(self.text)
        return self.text

    def keyword(self) -> str | None:
        """The upper-cased keyword spelling for IDENT tokens, else ``None``."""
        return self.text.upper() if self.type == "IDENT" else None


def tokenize(sql: str) -> list[Token]:
    """Split query text into :class:`Token` objects (whitespace dropped).

    String literals follow the SQL convention: single- or double-quoted, a
    doubled quote inside a literal escaping one quote character.  Keywords
    and parentheses inside string literals are therefore opaque text, never
    structure.  An unterminated literal or a stray character raises
    :class:`SqlParseError` with its offset.
    """
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            if sql[position] in "'\"":
                raise SqlParseError("unterminated string literal",
                                    offset=position, token=sql[position:])
            raise SqlParseError("unexpected character",
                                offset=position, token=sql[position])
        if match.lastgroup != "WS":
            tokens.append(Token(match.lastgroup, match.group(), position))
        position = match.end()
    return tokens


# -- boolean predicate trees --------------------------------------------------

class BooleanExpr:
    """Base class for WHERE-clause expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class PredicateExpr(BooleanExpr):
    """A leaf: one metadata predicate or one ``contains_object`` predicate."""

    predicate: "MetadataPredicate | ContainsObject"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return str(self.predicate)


@dataclass(frozen=True)
class AndExpr(BooleanExpr):
    """A conjunction of two or more child expressions."""

    children: tuple[BooleanExpr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("AND needs at least two children")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " AND ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True)
class OrExpr(BooleanExpr):
    """A disjunction of two or more child expressions."""

    children: tuple[BooleanExpr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("OR needs at least two children")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " OR ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True)
class NotExpr(BooleanExpr):
    """A negated child expression."""

    child: BooleanExpr

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"NOT {self.child}"


# -- SELECT-list items and ORDER BY keys --------------------------------------

#: Aggregate function names the dialect recognises (SQL spelling, lower-case).
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate in the SELECT list: ``COUNT(*)``, ``AVG(speed)``, ...

    ``argument`` is the column name, or ``None`` for ``COUNT(*)`` (the only
    function that accepts ``*``).  NaN in a floating-point column is treated
    as SQL NULL by every aggregate: COUNT(col) counts non-NaN values,
    SUM/AVG total and average the non-NaN values, MIN/MAX ignore NaN.
    Other dtypes have no null sentinel, so COUNT(col) equals COUNT(*) there.
    """

    func: str
    argument: str | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate {self.func!r}; "
                             f"available: {list(AGGREGATE_FUNCTIONS)}")
        if self.argument is None and self.func != "count":
            raise ValueError(f"{self.func.upper()}(*) is not defined; "
                             "only COUNT accepts *")

    @property
    def label(self) -> str:
        """The output column name, e.g. ``count(*)`` or ``avg(speed)``."""
        return f"{self.func}({self.argument if self.argument else '*'})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


#: One SELECT-list item: a plain column name or an aggregate.
SelectItem = Union[str, Aggregate]


def select_label(item: SelectItem) -> str:
    """The output column name of one SELECT-list item."""
    return item.label if isinstance(item, Aggregate) else item


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: a column name or an aggregate, plus direction."""

    key: SelectItem
    ascending: bool = True

    @property
    def label(self) -> str:
        """The column the sort reads (an aggregate's output label)."""
        return select_label(self.key)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label} {'ASC' if self.ascending else 'DESC'}"
