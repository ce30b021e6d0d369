"""Deployment-scenario cost model.

The paper's central observation is that query throughput is governed by

    ``t_classify = t_load + t_transform + t_infer``

and that the three terms depend on *where* the system runs (Section VI).  This
package provides:

* :class:`~repro.costs.device.DeviceProfile` — the compute device (effective
  FLOP rate, per-pixel transform cost, fixed per-inference overhead),
* :class:`~repro.costs.scenario.Scenario` — which cost terms a deployment
  scenario pays and from which storage tier (memory or SSD) the raw,
  uncompressed bytes are loaded, with the paper's four scenarios as presets
  (INFER_ONLY, ARCHIVE, ONGOING, CAMERA), and
* :class:`~repro.costs.profiler.CostProfiler` — turns a model (or a cascade's
  expected execution) into a :class:`~repro.costs.profiler.CostBreakdown`,
  analytically from FLOPs/bytes or measured with wall-clock timing.
"""

from repro.costs.device import (
    DEFAULT_DEVICE,
    SERVER_GPU,
    DeviceProfile,
    calibrate_device,
)
from repro.costs.profiler import CostBreakdown, CostProfiler, measure_inference_time
from repro.costs.scenario import (
    ARCHIVE,
    CAMERA,
    INFER_ONLY,
    ONGOING,
    PAPER_SCENARIOS,
    Scenario,
    get_scenario,
)

__all__ = [
    "DeviceProfile",
    "SERVER_GPU",
    "DEFAULT_DEVICE",
    "calibrate_device",
    "Scenario",
    "INFER_ONLY",
    "ARCHIVE",
    "ONGOING",
    "CAMERA",
    "PAPER_SCENARIOS",
    "get_scenario",
    "CostBreakdown",
    "CostProfiler",
    "measure_inference_time",
]
