"""The SQL front end: a tokenizer + recursive-descent parser for TAHOMA queries.

The paper frames TAHOMA's workload as queries of the form::

    SELECT * FROM images WHERE location = 'detroit' AND contains_object(bicycle)

This module parses the dialect into a :class:`~repro.query.model.Query`
via the AST node types of :mod:`repro.query.ast`.  Supported grammar
(case-insensitive keywords)::

    query      := SELECT select_list FROM <table>
                  [WHERE expr]
                  [GROUP BY column [, column]*]
                  [ORDER BY order_key [ASC|DESC] [, order_key [ASC|DESC]]*]
                  [LIMIT n] [;]
    select_list := '*' | select_item [, select_item]*
    select_item := column | COUNT '(' ('*' | column) ')'
                 | (SUM|AVG|MIN|MAX) '(' column ')'
    order_key  := column | aggregate
    expr       := and_expr [OR and_expr]*
    and_expr   := not_expr [AND not_expr]*
    not_expr   := NOT not_expr | '(' expr ')' | predicate

where a predicate is one of

* ``contains_object(<category>)`` — a binary content predicate,
* ``<column> <op> <literal>`` with ``op`` one of ``=``, ``!=``, ``<``, ``<=``,
  ``>``, ``>=`` and a literal that is a quoted string (doubled quotes escape
  a quote character, as in ``'rock ''n'' roll'``) or a number, or
* ``<column> [NOT] IN (<literal> [, <literal>]*)`` — a metadata membership
  test.

Boolean structure is preserved as a tree (AND/OR/NOT with parentheses); the
planner orders and short-circuits it at execution time.  A WHERE clause is
optional — ``SELECT * FROM images LIMIT 5`` is a plain scan/preview.  In an
aggregate query every non-aggregate SELECT item must appear in GROUP BY, and
ORDER BY keys must be group columns or aggregates from the SELECT list.

Only :func:`split_explain_analyze` recognises an ``EXPLAIN ANALYZE`` prefix
(:func:`parse_query` rejects it): ``db.execute`` strips it, runs the query
and returns the plan annotated with estimated vs. actual selectivity, rows
classified and time per node (``db.explain_analyze`` is the direct API).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.selector import UserConstraints
from repro.query.ast import (AGGREGATE_FUNCTIONS, Aggregate, AndExpr,
                             BooleanExpr, NotExpr, OrderItem, OrExpr,
                             PredicateExpr, SelectItem, SqlParseError, Token,
                             select_label, tokenize)
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.query.model import Query

__all__ = ["parse_query", "split_explain_analyze", "SqlParseError"]

#: SQL comparison spellings mapped to MetadataPredicate operators.
_OP_MAP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Parser:
    """Recursive-descent parser over the token stream of one query."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._position = 0

    # -- token plumbing -------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token | None:
        index = self._position + ahead
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> Token | None:
        token = self._peek()
        if token is not None:
            self._position += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> SqlParseError:
        token = token if token is not None else self._peek()
        if token is None:
            return SqlParseError(message, offset=len(self._sql), token=None)
        return SqlParseError(message, offset=token.offset, token=token.text)

    def _at_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token is not None and token.keyword() in keywords

    def _accept_keyword(self, *keywords: str) -> Token | None:
        if self._at_keyword(*keywords):
            return self._next()
        return None

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._accept_keyword(keyword)
        if token is None:
            raise self._error(f"expected {keyword}")
        return token

    def _accept(self, token_type: str) -> Token | None:
        token = self._peek()
        if token is not None and token.type == token_type:
            return self._next()
        return None

    def _expect(self, token_type: str, what: str) -> Token:
        token = self._accept(token_type)
        if token is None:
            raise self._error(f"expected {what}")
        return token

    def _expect_ident(self, what: str) -> Token:
        return self._expect("IDENT", what)

    # -- grammar --------------------------------------------------------------
    def parse(self) -> dict:
        self._expect_keyword("SELECT")
        select = self._parse_select_list()
        self._expect_keyword("FROM")
        table = self._expect_ident("a table name").text

        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_or()

        group_by: tuple[str, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._parse_column_list("a GROUP BY column")

        order_by: tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_order_list()

        limit = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_limit()

        self._accept("SEMI")
        trailing = self._peek()
        if trailing is not None:
            raise self._error("unexpected trailing input", trailing)

        self._validate(select, group_by, order_by)
        return {"select": select, "table": table, "where": where,
                "group_by": group_by, "order_by": order_by, "limit": limit}

    def _parse_select_list(self) -> tuple[SelectItem, ...] | None:
        if self._accept("STAR"):
            return None
        items: list[SelectItem] = [self._parse_select_item()]
        while self._accept("COMMA"):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        token = self._expect_ident("a column name or aggregate")
        keyword = token.keyword().lower()
        next_token = self._peek()
        if (keyword in AGGREGATE_FUNCTIONS and next_token is not None
                and next_token.type == "LPAREN"):
            return self._parse_aggregate_call(token)
        return token.text

    def _parse_aggregate_call(self, func_token: Token) -> Aggregate:
        func = func_token.keyword().lower()
        self._expect("LPAREN", "'('")
        if self._accept("STAR"):
            if func != "count":
                raise self._error(f"{func.upper()}(*) is not defined; only "
                                  "COUNT accepts *", func_token)
            argument = None
        else:
            argument = self._expect_ident(
                f"a column name inside {func.upper()}(...)").text
        self._expect("RPAREN", "')'")
        return Aggregate(func, argument)

    def _parse_column_list(self, what: str) -> tuple[str, ...]:
        columns = [self._expect_ident(what).text]
        while self._accept("COMMA"):
            columns.append(self._expect_ident(what).text)
        return tuple(columns)

    def _parse_order_list(self) -> tuple[OrderItem, ...]:
        items = [self._parse_order_item()]
        while self._accept("COMMA"):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> OrderItem:
        key = self._parse_select_item()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return OrderItem(key, ascending)

    def _parse_limit(self) -> int:
        token = self._peek()
        if token is None or token.type != "NUMBER":
            raise self._error("LIMIT must be a non-negative integer")
        try:
            limit = int(token.text)
        except ValueError:
            raise self._error("LIMIT must be a non-negative integer") from None
        if limit < 0:
            raise self._error(f"LIMIT must be non-negative, got {limit}")
        self._next()
        return limit

    # -- WHERE expressions ----------------------------------------------------
    def _parse_or(self) -> BooleanExpr:
        children = [self._parse_and()]
        while self._accept_keyword("OR"):
            children.append(self._parse_and())
        if len(children) == 1:
            return children[0]
        return OrExpr(tuple(self._flatten(children, OrExpr)))

    def _parse_and(self) -> BooleanExpr:
        children = [self._parse_not()]
        while self._accept_keyword("AND"):
            children.append(self._parse_not())
        if len(children) == 1:
            return children[0]
        return AndExpr(tuple(self._flatten(children, AndExpr)))

    @staticmethod
    def _flatten(children: list[BooleanExpr], node_type) -> list[BooleanExpr]:
        """Fold nested same-type nodes: (a AND b) AND c -> AND(a, b, c)."""
        flat: list[BooleanExpr] = []
        for child in children:
            if isinstance(child, node_type):
                flat.extend(child.children)
            else:
                flat.append(child)
        return flat

    def _parse_not(self) -> BooleanExpr:
        if self._accept_keyword("NOT"):
            return NotExpr(self._parse_not())
        if self._accept("LPAREN"):
            expr = self._parse_or()
            self._expect("RPAREN", "')'")
            return expr
        return self._parse_predicate()

    def _parse_predicate(self) -> BooleanExpr:
        token = self._expect_ident("a predicate")
        next_token = self._peek()
        if (token.keyword() == "CONTAINS_OBJECT" and next_token is not None
                and next_token.type == "LPAREN"):
            return PredicateExpr(self._parse_contains(token))
        column = token.text
        if self._at_keyword("IN"):
            self._next()
            return PredicateExpr(self._parse_in(column))
        if self._at_keyword("NOT") and self._peek(1) is not None \
                and self._peek(1).keyword() == "IN":
            self._next()
            self._next()
            return NotExpr(PredicateExpr(self._parse_in(column)))
        operator = self._accept("OP")
        if operator is None:
            raise self._error("expected a comparison operator or IN after "
                              f"column {column!r}")
        value = self._parse_literal()
        return PredicateExpr(
            MetadataPredicate(column, _OP_MAP[operator.text], value))

    def _parse_contains(self, func_token: Token) -> ContainsObject:
        self._expect("LPAREN", "'('")
        if self._peek() is not None and self._peek().type == "STRING":
            category = self._next().value
        else:
            # A bare category is one word of IDENT/NUMBER/DASH tokens with
            # no whitespace between them (``traffic-light``); a gap means a
            # typo, not a longer category.
            parts: list[str] = []
            end = None
            while True:
                token = self._peek()
                if token is None:
                    raise self._error("unterminated contains_object(...)")
                if token.type not in ("IDENT", "NUMBER", "DASH"):
                    break
                if end is not None and token.offset != end:
                    raise self._error(
                        "expected ')' closing contains_object(...)", token)
                parts.append(token.text)
                end = token.offset + len(token.text)
                self._next()
            category = "".join(parts)
        self._expect("RPAREN", "')' closing contains_object(...)")
        if not category:
            raise self._error("contains_object needs a category", func_token)
        return ContainsObject(category)

    def _parse_in(self, column: str) -> MetadataPredicate:
        self._expect("LPAREN", "'(' after IN")
        values = [self._parse_literal()]
        while self._accept("COMMA"):
            values.append(self._parse_literal())
        self._expect("RPAREN", "')' closing the IN list")
        return MetadataPredicate(column, "in", tuple(values))

    def _parse_literal(self):
        token = self._peek()
        if token is not None and token.type in ("STRING", "NUMBER"):
            self._next()
            return token.value
        raise self._error("expected a literal (quote strings)")

    # -- semantic validation --------------------------------------------------
    def _validate(self, select: tuple[SelectItem, ...] | None,
                  group_by: tuple[str, ...],
                  order_by: tuple[OrderItem, ...]) -> None:
        aggregates = tuple(item for item in (select or ())
                           if isinstance(item, Aggregate))
        is_aggregate = bool(aggregates) or bool(group_by)
        if select is None and group_by:
            raise SqlParseError(
                "SELECT * cannot be combined with GROUP BY; name the group "
                "columns and aggregates explicitly")
        if is_aggregate:
            for item in (select or ()):
                if isinstance(item, str) and item not in group_by:
                    raise SqlParseError(
                        f"column {item!r} must appear in GROUP BY to be "
                        "selected alongside aggregates")
            labels = {select_label(item) for item in (select or ())}
            for item in order_by:
                if item.label not in labels and item.label not in group_by:
                    raise SqlParseError(
                        f"ORDER BY key {item.label!r} must be a GROUP BY "
                        "column or an aggregate from the SELECT list")
        else:
            for item in order_by:
                if isinstance(item.key, Aggregate):
                    raise SqlParseError(
                        f"ORDER BY {item.label} requires an aggregate query "
                        "(add it to the SELECT list with GROUP BY)")


def split_explain_analyze(sql: str) -> tuple[bool, str]:
    """``(is_explain_analyze, remaining sql)`` for one statement.

    Token-based, so comments-free weird spacing and case all work; anything
    that fails to tokenize is returned unchanged (the parser will report the
    real error on the full text).  A bare ``EXPLAIN`` (without ``ANALYZE``)
    is *not* stripped — ``db.explain`` is the plan-only API and has no SQL
    spelling.
    """
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return False, sql
    if (len(tokens) >= 2 and tokens[0].keyword() == "EXPLAIN"
            and tokens[1].keyword() == "ANALYZE"):
        return True, sql[tokens[1].offset + len(tokens[1].text):]
    return False, sql


def parse_query(sql: str,
                constraints: UserConstraints | None = None,
                known_tables: "Iterable[str] | None" = None) -> Query:
    """Parse one SELECT statement into a :class:`Query`.

    Parameters
    ----------
    sql:
        The query text (see the module docstring for the grammar).
    constraints:
        Optional accuracy/throughput constraints attached to the query (the
        paper has users supply these alongside the query, in the spirit of
        BlinkDB-style approximation contracts).
    known_tables:
        When given, the ``FROM`` table must be one of these names (a catalog
        passes its table names plus the virtual fan-out table); an unknown
        table raises :class:`SqlParseError` listing the known tables instead
        of silently answering from a default corpus.

    Parse errors report the offending token and its character offset.
    """
    if not sql or not sql.strip():
        raise SqlParseError("empty query")
    parsed = _Parser(sql).parse()

    table = parsed["table"]
    if known_tables is not None:
        known = sorted(known_tables)
        if table not in known:
            raise SqlParseError(
                f"unknown table {table!r}; known tables: {known}")

    return Query(constraints=constraints or UserConstraints(),
                 limit=parsed["limit"],
                 table=table,
                 where=parsed["where"],
                 select=parsed["select"],
                 group_by=parsed["group_by"],
                 order_by=parsed["order_by"])
