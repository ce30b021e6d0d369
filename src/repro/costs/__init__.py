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
