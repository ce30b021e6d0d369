"""The database facade: TAHOMA as a visual analytics *database*.

This package is the repository's single public entry point, a
connection-style API::

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

The modules:

* :mod:`repro.db.database` — ``connect()`` and
  :class:`~repro.db.database.VisualDatabase`, the facade;
* :mod:`repro.db.catalog` — named tables behind one representation budget;
* :mod:`repro.db.registry` — what a content predicate is priced with;
* :mod:`repro.db.planner` — a query becomes a cost-ordered physical plan;
* :mod:`repro.db.plan_cache` — plans keyed by normalized query shape
  (literals stripped): an exact repeat skips parse + lowering, and
  hit/miss/rebind outcomes are counted on the :mod:`repro.telemetry`
  registry;
* :mod:`repro.db.executor` — runs a plan over a table's snapshot;
* :mod:`repro.db.aggregates` — per-shard aggregate partials and their merge;
* :mod:`repro.db.results` — result sets over rows and groups;
* :mod:`repro.db.retention` — a table as a sliding window over its feed;
* :mod:`repro.db.wal` — the per-table write-ahead log;
* :mod:`repro.db.persistence` — checkpoints, WAL replay and plain saves.
"""

from repro.db.catalog import FANOUT_TABLE
from repro.db.database import VisualDatabase, connect
from repro.db.planner import QueryPlan
from repro.db.results import FanoutResultSet, ResultSet
from repro.db.retention import RetentionPolicy
from repro.query.ast import QueryError, SqlParseError

__all__ = ["connect", "VisualDatabase", "RetentionPolicy", "ResultSet",
           "FanoutResultSet", "QueryPlan", "QueryError", "SqlParseError",
           "FANOUT_TABLE"]
