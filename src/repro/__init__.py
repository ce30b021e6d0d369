"""Reproduction of TAHOMA (Anderson et al., ICDE 2019).

*Physical Representation-based Predicate Optimization for a Visual Analytics
Database* speeds up ``contains_object`` predicates over image/video corpora by
building classifier cascades from hundreds of small CNNs that vary both their
architecture and their *physical input representation* (resolution, color
channels), and by selecting cascades with awareness of deployment-specific
data-handling costs.

The public entry point is :func:`repro.db.connect`, which opens a
:class:`~repro.db.VisualDatabase` over an image corpus (or a ``{name:
corpus}`` mapping — a multi-camera catalog)::

    db = repro.connect(corpus)
    db.register_predicate("bicycle", splits=splits, config=config)
    db.use_scenario("archive")
    rows = db.execute("SELECT * FROM images "
                      "WHERE location = 'detroit' AND contains_object(bicycle)")

Package map
-----------
``repro.nn``          NumPy CNN substrate (layers, training, FLOP accounting)
``repro.transforms``  physical input representations (the set ``F``)
``repro.data``        synthetic image corpus and video streams
``repro.costs``       deployment scenarios and the analytic cost model
``repro.storage``     storage tiers and the representation store
``repro.core``        the TAHOMA optimizer itself
``repro.baselines``   reference classifier, baseline cascades, NoScope, +DD
``repro.query``       relational layer with the contains_object operator
``repro.db``          the database facade: connect(), the table catalog,
                      planner/executor split, plan cache, result sets and
                      whole-database persistence
``repro.server``      network serving layer: NDJSON wire protocol, sessions
                      with server-side cursors, admission control, and the
                      matching connect() client
``repro.experiments`` harness regenerating every table and figure
"""

from repro.db import (
    FanoutResultSet,
    QueryPlan,
    ResultSet,
    RetentionPolicy,
    VisualDatabase,
    connect,
)
from repro.version import __version__

__all__ = ["__version__", "connect", "VisualDatabase", "ResultSet",
           "FanoutResultSet", "QueryPlan", "RetentionPolicy"]
