"""The paper's evidence, gated at both scales.

``benchmarks.paper`` runs every figure/table artifact at SMOKE_SCALE on the
session-cached workspace, and the committed DEFAULT_SCALE results in
``PAPER_RESULTS.json`` are read back; every named check must hold in both.
The remaining tests cover the experiment functions' error paths and the
baseline helpers.
"""

import json

import pytest

from benchmarks import paper
from repro.experiments.ablation import depth_analysis
from repro.experiments.presets import DEFAULT_SCALE, SMOKE_SCALE
from repro.experiments.scenarios import (
    frontier_example,
    reference_only_evaluation,
    scenario_frontiers,
)
from repro.experiments.speedups import baseline_evaluation

CATEGORY = "komondor"

#: Checks that are false at SMOKE_SCALE for a reason of the scale itself.
#: SMOKE renders at 16 px with resolutions (8, 16), so "resizing" has a
#: single reduced size and averages 2,073 fps against color variations'
#: 2,141 under INFER ONLY.
FALSE_AT_SMOKE = {"fig10.resize_dominates"}

#: The committed DEFAULT_SCALE document.  Its check names parametrize the
#: per-check tests; the runner must produce the same names
#: (``test_committed_results_carry_every_check``).
COMMITTED = json.loads(paper.RESULTS_PATH.read_text())
CHECKS = [(key, name) for key, artifact in COMMITTED["artifacts"].items()
          for name in artifact["checks"]]
CHECK_IDS = [name for _, name in CHECKS]


@pytest.fixture(scope="module")
def smoke_results(smoke_workspace):
    return paper.run(SMOKE_SCALE)


@pytest.fixture(scope="module")
def committed_results():
    return COMMITTED


class TestPaperEvidence:
    def test_every_check_holds_at_smoke(self, smoke_results):
        assert smoke_results["scale"] == SMOKE_SCALE.name
        assert set(smoke_results["artifacts"]) == set(paper.ARTIFACTS)
        assert set(paper.failed_checks(smoke_results)) == FALSE_AT_SMOKE

    @pytest.mark.parametrize("key,name", CHECKS, ids=CHECK_IDS)
    def test_check_at_smoke(self, smoke_results, key, name):
        holds = smoke_results["artifacts"][key]["checks"][name]
        assert holds is (name not in FALSE_AT_SMOKE)

    def test_committed_results_hold_at_default(self, committed_results):
        assert set(committed_results["artifacts"]) == set(paper.ARTIFACTS)
        assert committed_results["scale"] == DEFAULT_SCALE.name
        assert paper.failed_checks(committed_results) == []

    @pytest.mark.parametrize("key,name", CHECKS, ids=CHECK_IDS)
    def test_check_at_default(self, committed_results, key, name):
        assert committed_results["artifacts"][key]["checks"][name] is True

    def test_committed_results_carry_every_check(self, smoke_results,
                                                 committed_results):
        """A check added to the runner must be regenerated into the file."""
        for key, artifact in smoke_results["artifacts"].items():
            assert (set(committed_results["artifacts"][key]["checks"])
                    == set(artifact["checks"])), key


class TestFigure4And9:
    def test_scenario_frontiers_cover_requested_categories(self, smoke_workspace):
        comparisons = scenario_frontiers(smoke_workspace,
                                         categories=[CATEGORY, "scorpion"])
        assert [c.category for c in comparisons] == [CATEGORY, "scorpion"]

    def test_unknown_category_raises(self, smoke_workspace):
        with pytest.raises(KeyError):
            frontier_example(smoke_workspace, "zebra")


class TestFigure11:
    def test_invalid_depth(self, smoke_workspace):
        with pytest.raises(ValueError):
            depth_analysis(smoke_workspace, CATEGORY, max_depth=0)


class TestBaselineHelpers:
    def test_reference_only_evaluation(self, smoke_workspace):
        predicate = smoke_workspace.predicates[CATEGORY]
        profiler = smoke_workspace.profiler("infer_only")
        evaluation = reference_only_evaluation(predicate, profiler)
        assert evaluation.cascade.depth == 1
        assert evaluation.cascade.ends_in_reference()

    def test_baseline_evaluation_is_subset_of_design_space(self, smoke_workspace):
        predicate = smoke_workspace.predicates[CATEGORY]
        profiler = smoke_workspace.profiler("camera")
        baseline = baseline_evaluation(predicate, profiler,
                                       smoke_workspace.scale.image_size)
        assert len(baseline) < predicate.optimizer.n_cascades
