"""A small relational query layer over an image corpus.

The paper frames TAHOMA's output as a *virtual column* in a relation over the
corpus and envisions the `contains_object` operator wrapped as an RDBMS UDF.
This package provides that surface:

* :mod:`repro.query.relation` — an in-memory columnar relation,
* :mod:`repro.query.ast` — tokens, boolean predicate trees, select items
  and the query errors,
* :mod:`repro.query.predicates` — metadata predicates and the
  ``contains_object`` binary predicate,
* :mod:`repro.query.model` — the :class:`Query` / :class:`QueryResult`
  model, and
* :mod:`repro.query.sql` — the SQL front end that parses text into it.

Planning and execution (metadata predicates first, the selected cascade
only over the surviving rows, materialized predicate columns reused by later
queries) live in :mod:`repro.db`.
"""
