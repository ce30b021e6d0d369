"""Tests for the end-to-end TAHOMA optimizer."""

import numpy as np
import pytest

from repro.core.cascade import count_cascades
from repro.core.evaluator import evaluate_cascades
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.persistence import load_optimizer, save_optimizer
from repro.core.selector import UserConstraints, select_cascade
from repro.core.spec import ArchitectureSpec
from repro.costs.device import SERVER_GPU
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import PAPER_SCENARIOS
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE


class TestTahomaConfig:
    def test_defaults_match_paper_design_space(self):
        config = TahomaConfig()
        assert len(config.architectures) == 18
        assert len(config.transforms) == 20
        assert len(config.model_specs()) == 360
        assert config.precision_targets == (0.91, 0.93, 0.95, 0.97, 0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            TahomaConfig(architectures=())
        with pytest.raises(ValueError):
            TahomaConfig(precision_targets=())
        with pytest.raises(ValueError):
            TahomaConfig(max_depth=0)


class TestInitializedOptimizer:
    def test_model_pool_size(self, tiny_optimizer, tiny_config):
        assert tiny_optimizer.n_models == len(tiny_config.model_specs())

    def test_cascade_count_matches_formula(self, tiny_optimizer, tiny_config):
        expected = count_cascades(
            n_models=tiny_optimizer.n_models,
            n_precision_targets=len(tiny_config.precision_targets),
            max_depth=tiny_config.max_depth,
            with_reference_tail=True)
        assert tiny_optimizer.n_cascades == expected

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_reference_tail_follows_the_reference_model(
            self, fresh_optimizer, tiny_config, with_reference):
        optimizer = fresh_optimizer(with_reference=with_reference)
        assert (any(c.ends_in_reference() for c in optimizer.cascades)
                is with_reference)
        assert optimizer.n_cascades == count_cascades(
            n_models=optimizer.n_models,
            n_precision_targets=len(tiny_config.precision_targets),
            max_depth=tiny_config.max_depth,
            with_reference_tail=with_reference)

    def test_thresholds_calibrated_for_every_model(self, tiny_optimizer, tiny_config):
        for model in tiny_optimizer.models:
            calibrations = tiny_optimizer.thresholds[model.name]
            assert len(calibrations) == len(tiny_config.precision_targets)

    def test_reference_model_in_cache(self, tiny_optimizer, tiny_reference):
        assert tiny_reference in tiny_optimizer.cache

    def test_evaluate_returns_all_cascades(self, tiny_optimizer, infer_only_profiler):
        evaluated = tiny_optimizer.evaluate(infer_only_profiler)
        assert len(evaluated) == tiny_optimizer.n_cascades

    def test_frontier_subset_of_evaluations(self, tiny_optimizer, infer_only_profiler):
        frontier = tiny_optimizer.frontier(infer_only_profiler)
        assert 0 < len(frontier) <= tiny_optimizer.n_cascades

    def test_select_respects_accuracy_budget(self, tiny_optimizer, camera_profiler):
        frontier = tiny_optimizer.frontier(camera_profiler)
        best_accuracy = max(e.accuracy for e in frontier)
        chosen = tiny_optimizer.select(camera_profiler,
                                       UserConstraints(max_accuracy_loss=0.1))
        assert chosen.accuracy >= best_accuracy * 0.9 - 1e-12

    def test_select_without_constraints_keeps_best_accuracy(self, tiny_optimizer,
                                                            camera_profiler):
        frontier = tiny_optimizer.frontier(camera_profiler)
        chosen = tiny_optimizer.select(camera_profiler)
        assert chosen.accuracy == max(e.accuracy for e in frontier)

    def test_query_executes_selected_cascade(self, tiny_optimizer, tiny_splits,
                                             infer_only_profiler):
        chosen = tiny_optimizer.select(infer_only_profiler,
                                       UserConstraints(max_accuracy_loss=0.05))
        labels = tiny_optimizer.query(tiny_splits.eval.images[:10], chosen)
        assert labels.shape == (10,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_selected_cascade_is_reasonably_accurate(self, tiny_optimizer,
                                                     tiny_splits,
                                                     infer_only_profiler):
        chosen = tiny_optimizer.select(infer_only_profiler)
        labels = tiny_optimizer.query(tiny_splits.eval.images, chosen)
        accuracy = float((labels == tiny_splits.eval.labels).mean())
        # The simulation-selected accuracy was measured on the same eval set,
        # so actually running the cascade must reproduce it.
        assert accuracy == pytest.approx(chosen.accuracy)


class TestUninitializedOptimizer:
    def test_evaluate_before_initialize_raises(self, infer_only_profiler):
        optimizer = TahomaOptimizer(TahomaConfig(
            architectures=(ArchitectureSpec(1, 4, 8),),
            transforms=(TransformSpec(8, "gray"),)))
        with pytest.raises(RuntimeError):
            optimizer.evaluate(infer_only_profiler)

    def test_initialize_with_models_requires_models(self, tiny_splits):
        optimizer = TahomaOptimizer(TahomaConfig(
            architectures=(ArchitectureSpec(1, 4, 8),),
            transforms=(TransformSpec(8, "gray"),)))
        with pytest.raises(ValueError):
            optimizer.initialize_with_models([], tiny_splits)


class TestInitializeWithModels:
    def test_reuses_existing_pool(self, tiny_optimizer, tiny_splits, tiny_reference,
                                  tiny_config):
        subset = tiny_optimizer.models[:3]
        optimizer = TahomaOptimizer(tiny_config)
        optimizer.initialize_with_models(subset, tiny_splits,
                                         reference_model=tiny_reference)
        assert optimizer.n_models == 3
        assert optimizer.n_cascades > 0


class TestEvaluationMemo:
    """``evaluate`` computes one cascade set per cost profile and keeps it."""

    def test_equal_profilers_share_one_evaluation(self, fresh_optimizer,
                                                  evaluate_calls, tiny_device):
        optimizer = fresh_optimizer()
        for _ in range(3):
            # A new profiler object each time, as the database builds them.
            profiler = CostProfiler(tiny_device, PAPER_SCENARIOS[0],
                                    source_resolution=TINY_SIZE,
                                    cost_resolution=224)
            optimizer.select(profiler)
            optimizer.frontier(profiler)
            optimizer.evaluate(profiler)
        assert evaluate_calls.count(optimizer.cache) == 1

    @pytest.mark.parametrize("change", [
        {"device": SERVER_GPU}, {"scenario": PAPER_SCENARIOS[1]},
        {"source_resolution": 32}, {"cost_resolution": 112}])
    def test_every_pricing_value_is_part_of_the_key(
            self, fresh_optimizer, evaluate_calls, tiny_device, change):
        base = {"device": tiny_device, "scenario": PAPER_SCENARIOS[0],
                "source_resolution": TINY_SIZE, "cost_resolution": 224}
        optimizer = fresh_optimizer()
        optimizer.select(CostProfiler(**base))
        optimizer.select(CostProfiler(**{**base, **change}))
        assert evaluate_calls.count(optimizer.cache) == 2

    def test_frontier_copies_do_not_alias_the_memo(self, fresh_optimizer,
                                                   infer_only_profiler):
        optimizer = fresh_optimizer()
        first = optimizer.frontier(infer_only_profiler)
        expected = list(first)
        first.clear()
        assert optimizer.frontier(infer_only_profiler) == expected

    def test_reinitialisation_starts_empty(self, fresh_optimizer,
                                           evaluate_calls, tiny_splits,
                                           tiny_reference,
                                           infer_only_profiler):
        optimizer = fresh_optimizer()
        optimizer.select(infer_only_profiler)
        # A smaller pool is a different cascade set: the old frontier is void.
        optimizer.initialize_with_models(optimizer.models[:3], tiny_splits,
                                         reference_model=tiny_reference)
        chosen = optimizer.select(infer_only_profiler)
        assert len(evaluate_calls) == 2
        assert chosen.cascade in optimizer.cascades

    def test_loaded_optimizer_starts_empty(self, fresh_optimizer,
                                           evaluate_calls, tmp_path,
                                           infer_only_profiler):
        optimizer = fresh_optimizer(with_reference=False)
        before = optimizer.select(infer_only_profiler)
        loaded = load_optimizer(save_optimizer(optimizer, tmp_path / "repo"))
        after = loaded.select(infer_only_profiler)
        loaded.select(infer_only_profiler)
        assert evaluate_calls.count(loaded.cache) == 1
        assert after.name == before.name
        assert after.cascade in loaded.cascades

    def test_memoised_selection_equals_fresh_selection(self, fresh_optimizer,
                                                       tiny_device):
        optimizer = fresh_optimizer()
        grid = [UserConstraints(max_accuracy_loss=loss, min_throughput=floor)
                for loss in (None, 0.0, 0.02, 0.1, 0.3)
                for floor in (None, 50.0, 1e6)]
        profilers = [CostProfiler(tiny_device, scenario,
                                  source_resolution=TINY_SIZE,
                                  cost_resolution=224)
                     for scenario in PAPER_SCENARIOS]
        for _ in range(2):  # the second pass is served from the memo
            for profiler in profilers:
                fresh = evaluate_cascades(optimizer.cascades, optimizer.cache,
                                          profiler).frontier()
                for constraints in grid:
                    chosen = optimizer.select(profiler, constraints)
                    expected = select_cascade(fresh, constraints)
                    assert (chosen.name, chosen.accuracy,
                            chosen.cost.total_s) == (
                        expected.name, expected.accuracy,
                        expected.cost.total_s)
