"""Build and read a query's WHERE tree in tests.

A :class:`~repro.query.model.Query` holds its predicates only as the
``where`` tree.  Tests that think of a query as "these metadata filters AND
these content predicates" build the tree with :func:`conjunction` (leaves in
the order given, metadata first) and read a parsed tree's leaves back, by
kind and in syntactic order, with :func:`metadata_leaves` and
:func:`content_leaves`.
"""

from __future__ import annotations

from repro.query.ast import (AndExpr, BooleanExpr, NotExpr, OrExpr,
                             PredicateExpr)
from repro.query.predicates import ContainsObject, MetadataPredicate

__all__ = ["conjunction", "metadata_leaves", "content_leaves"]


def conjunction(*predicates) -> BooleanExpr | None:
    """``p1 AND p2 AND ...``; the bare leaf for one, ``None`` for none."""
    leaves = tuple(PredicateExpr(predicate) for predicate in predicates)
    if len(leaves) > 1:
        return AndExpr(leaves)
    return leaves[0] if leaves else None


def _leaves(expr: BooleanExpr | None):
    if isinstance(expr, PredicateExpr):
        yield expr.predicate
    elif isinstance(expr, (AndExpr, OrExpr)):
        for child in expr.children:
            yield from _leaves(child)
    elif isinstance(expr, NotExpr):
        yield from _leaves(expr.child)


def metadata_leaves(query) -> tuple[MetadataPredicate, ...]:
    """The metadata predicates of ``query.where``, left to right."""
    return tuple(p for p in _leaves(query.where)
                 if isinstance(p, MetadataPredicate))


def content_leaves(query) -> tuple[ContainsObject, ...]:
    """The ``contains_object`` predicates of ``query.where``, left to right."""
    return tuple(p for p in _leaves(query.where)
                 if isinstance(p, ContainsObject))
