"""Tier-1 rot check for the benchmark: every workload, seconds in total.

Runs at ``SMOKE_SIZES`` on the process-wide SMOKE_SCALE workspace (shared
with the rest of the suite through ``get_workspace``), one traced and one
untraced trial per workload.  It checks that the harness still runs against
the program, still emits exactly what ``BENCHMARK.json`` declares, and that
every layer a workload says it exercises still reads above 0 — not that any
number is good.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.experiments.presets import SMOKE_SCALE  # noqa: E402
from repro.experiments.workspace import get_workspace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC_PATH = ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_what_is_declared(name):
    """One traced pass covers every phase and fills both metric groups."""
    spec_before = SPEC_PATH.read_bytes()
    outcome = harness.run_pass(WORKLOADS[name], 0, 0.0, traced=True,
                               sizes=harness.SMOKE_SIZES,
                               workspace=get_workspace(SMOKE_SCALE))
    assert outcome.failed == 0, "an operation failed or the oracle disagreed"
    assert outcome.attempted >= 1
    for metrics, declared in ((outcome.end_to_end, harness.END_TO_END),
                              (outcome.per_layer, harness.PER_LAYER)):
        assert list(metrics) == list(declared)
        for metric_name, metric in metrics.items():
            assert metric["unit"] == declared[metric_name]["unit"]
            assert math.isfinite(metric["value"]), metric_name
    assert all(metric["value"] > 0 for metric in outcome.end_to_end.values())
    # A layer whose patch point stopped firing would read 0 from here on.
    silent = [layer for layer in WORKLOADS[name].exercises
              if not outcome.per_layer[layer]["value"] > 0]
    assert not silent, f"{name} no longer moves {silent}"
    line = json.loads(outcome.driver_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(harness.PER_LAYER)
    assert SPEC_PATH.read_bytes() == spec_before, "quick mode wrote the spec"


def test_spec_meets_the_driver_contract():
    spec = harness.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(workload["why"]) <= 200 for workload in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(spec["per_layer"]) <= 128 and 1 <= spec["run_seconds"] <= 60
