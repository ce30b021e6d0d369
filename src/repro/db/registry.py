"""The predicate registry: what TAHOMA prices a content predicate with.

Each predicate's optimizer and reference build parameters, the device
(anchored once to the first reference classifier), the deployment scenario
and the resolutions data handling is priced at (paper Fig. 2), plus building
each table's :class:`~repro.costs.profiler.CostProfiler` and
:class:`~repro.db.planner.QueryPlanner` from them.
"""

from __future__ import annotations

from repro.core.optimizer import TahomaOptimizer
from repro.costs.device import DeviceProfile, calibrate_device
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import Scenario, get_scenario
from repro.db.catalog import Catalog
from repro.db.planner import QueryPlan, QueryPlanner
from repro.query.model import Query

__all__ = ["PredicateRegistry"]

#: ``reference_params`` keys consumed by the network *builder* (and therefore
#: needed again at load time); the rest parameterize training only.
_REFERENCE_BUILD_KEYS = ("base_width", "n_stages", "blocks_per_stage",
                         "dense_units")


class PredicateRegistry:
    """One database's predicates and pricing state; the parameters are
    :class:`~repro.db.database.VisualDatabase`'s."""

    def __init__(self, catalog: Catalog, *,
                 device: DeviceProfile, scenario: Scenario | str,
                 cost_resolution: int, source_resolution: int | None,
                 calibrate_target_fps: float | None) -> None:
        self.catalog = catalog
        self.device = device
        self.device_calibrated = False
        self.cost_resolution = cost_resolution
        self.source_resolution = source_resolution
        self.calibrate_target_fps = calibrate_target_fps
        self.optimizers: dict[str, TahomaOptimizer] = {}
        #: The builder subset of each predicate's ``reference_params``.
        self.reference_params: dict[str, dict] = {}
        self.use_scenario(scenario)

    def register(self, name: str, optimizer: TahomaOptimizer,
                 reference_params: dict | None = None) -> bool:
        """Install ``name``'s optimizer; returns whether the device was just
        anchored to its reference classifier (plans priced before are stale).
        """
        if name in self.optimizers:
            raise ValueError(f"predicate {name!r} already registered")
        params = reference_params or {}
        self.optimizers[name] = optimizer
        self.reference_params[name] = {key: params[key]
                                       for key in _REFERENCE_BUILD_KEYS
                                       if key in params}
        reference = optimizer.reference_model
        if (reference is None or self.device_calibrated
                or self.calibrate_target_fps is None):
            return False
        self.device = calibrate_device(self.device, reference.flops,
                                       target_fps=self.calibrate_target_fps)
        self.device_calibrated = True
        return True

    def use_scenario(self, scenario: Scenario | str) -> None:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        elif not isinstance(scenario, Scenario):
            raise TypeError("scenario must be a Scenario or a scenario name, "
                            f"got {type(scenario).__name__}")
        self.scenario = scenario

    def profiler_for(self, table: str | None = None) -> CostProfiler:
        """The cost profiler pricing one table's plan: at its own corpus
        resolution unless ``source_resolution`` was given (``None`` or an
        unattached table: the default table's, else the first table's)."""
        source = self.source_resolution
        if source is None:
            if table is None or table not in self.catalog:
                table = (self.catalog.default_table()
                         or next(iter(self.catalog), None))
            if table is not None:
                source = self.catalog.executor(table).corpus.image_size
        if source is None:
            raise RuntimeError("cannot price costs without a corpus; register "
                               "one or pass source_resolution=")
        return CostProfiler(self.device, self.scenario,
                            source_resolution=source,
                            cost_resolution=self.cost_resolution)

    def plan(self, query: Query, table: str) -> QueryPlan:
        """Plan ``query`` for one table, ordering predicates by the
        selectivity its materialized columns observed (not the eval set's)."""
        hook = self.catalog.executor(table).observed_positive_rate
        return QueryPlanner(self.optimizers, self.profiler_for(table),
                            selectivity_hook=hook,
                            metrics=self.catalog.metrics
                            ).plan(query, table=table)
