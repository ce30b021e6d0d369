"""A small relational query layer over an image corpus.

The paper frames TAHOMA's output as a *virtual column* in a relation over the
corpus and envisions the `contains_object` operator wrapped as an RDBMS UDF.
This package provides that surface:

* :mod:`repro.query.relation` — an in-memory columnar relation,
* :mod:`repro.query.predicates` — metadata predicates and the
  ``contains_object`` binary predicate,
* :mod:`repro.query.model` — the :class:`Query` / :class:`QueryResult`
  model, and
* :mod:`repro.query.sql` — the SQL front end that parses text into it.

Planning and execution (metadata predicates first, the selected cascade
only over the surviving rows, materialized predicate columns reused by later
queries) live in :mod:`repro.db`.
"""

from repro.query.ast import (Aggregate, AndExpr, BooleanExpr, NotExpr,
                             OrderItem, OrExpr, PredicateExpr, QueryError,
                             SqlParseError, tokenize)
from repro.query.model import Query, QueryResult
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.query.relation import Relation
from repro.query.sql import parse_query

__all__ = [
    "Relation",
    "MetadataPredicate",
    "ContainsObject",
    "Query",
    "QueryResult",
    "parse_query",
    "tokenize",
    "SqlParseError",
    "QueryError",
    "BooleanExpr",
    "PredicateExpr",
    "AndExpr",
    "OrExpr",
    "NotExpr",
    "Aggregate",
    "OrderItem",
]
