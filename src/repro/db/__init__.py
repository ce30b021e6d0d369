"""The database facade: TAHOMA as a visual analytics *database*.

This package is the repository's single public entry point.  It wraps system
initialization (:func:`~repro.db.database.VisualDatabase.register_predicate`),
deployment-cost-aware cascade selection (:mod:`repro.db.planner`), execution
with materialized virtual columns and a shared representation store
(:mod:`repro.db.executor`), DB-API-flavoured result consumption
(:mod:`repro.db.results`) and whole-database persistence
(:mod:`repro.db.persistence`) behind a connection-style API::

    import repro.db

    db = repro.db.connect(corpus)                  # single table: "images"
    db.register_predicate("bicycle", splits=splits, config=config)
    db.use_scenario("archive")
    results = db.execute("SELECT * FROM images "
                         "WHERE location = 'detroit' AND contains_object(bicycle)")

A ``{name: corpus}`` mapping opens a multi-table catalog
(:mod:`repro.db.catalog`): ``SELECT * FROM <table>`` routes to one shard and
the virtual ``all_cameras`` table fans out across all of them::

    db = repro.db.connect({"cam_north": north, "cam_south": south})
    merged = db.execute("SELECT * FROM all_cameras "
                        "WHERE contains_object(bicycle)")
"""

from repro.db.catalog import DEFAULT_TABLE, FANOUT_TABLE, Catalog

from repro.db.database import (
    VisualDatabase,
    connect,
    initialize_predicate,
)
from repro.db.executor import QueryExecutor
from repro.db.planner import (
    ContentStep,
    MetadataStep,
    QueryPlan,
    QueryPlanner,
    estimate_selectivity,
)
from repro.db.aggregates import GroupedPartials, compute_partials, merge_partials
from repro.db.results import (TABLE_COLUMN, AggregateResultSet,
                              FanoutResultSet, ResultSet, build_result_set)
from repro.db.retention import RetentionPolicy
from repro.db.wal import TableWal
from repro.query.ast import QueryError, SqlParseError

__all__ = [
    "VisualDatabase",
    "connect",
    "Catalog",
    "DEFAULT_TABLE",
    "FANOUT_TABLE",
    "initialize_predicate",
    "QueryPlanner",
    "QueryPlan",
    "MetadataStep",
    "ContentStep",
    "estimate_selectivity",
    "QueryExecutor",
    "ResultSet",
    "FanoutResultSet",
    "AggregateResultSet",
    "build_result_set",
    "GroupedPartials",
    "compute_partials",
    "merge_partials",
    "QueryError",
    "SqlParseError",
    "TABLE_COLUMN",
    "RetentionPolicy",
    "TableWal",
]
