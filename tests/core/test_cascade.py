"""Tests for cascades and cascade enumeration."""

import numpy as np
import pytest

from repro.core.cascade import Cascade, CascadeBuilder, CascadeLevel, count_cascades
from repro.core.model import TrainedModel
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.core.thresholds import DecisionThresholds
from repro.transforms.spec import TransformSpec


def make_model(name, resolution=8, mode="gray", kind="specialized", seed=0):
    spec = ModelSpec(ArchitectureSpec(1, 4, 8), TransformSpec(resolution, mode))
    network = spec.build(rng=np.random.default_rng(seed))
    return TrainedModel(name=name, network=network, transform=spec.transform,
                        architecture=spec.architecture, kind=kind)


@pytest.fixture
def models():
    return [make_model("m1", 8, "gray", seed=1),
            make_model("m2", 8, "rgb", seed=2),
            make_model("m3", 16, "gray", seed=3)]


@pytest.fixture
def thresholds(models):
    return {model.name: [DecisionThresholds(0.3, 0.7, 0.95),
                         DecisionThresholds(0.2, 0.8, 0.99)]
            for model in models}


@pytest.fixture
def reference():
    return make_model("reference", 16, "rgb", kind="reference", seed=9)


class TestCascadeStructure:
    def test_depth_and_name(self, models, thresholds):
        cascade = Cascade((
            CascadeLevel(models[0], thresholds["m1"][0]),
            CascadeLevel(models[1], None)))
        assert cascade.depth == 2
        assert "m1" in cascade.name and "m2" in cascade.name

    def test_final_level_must_not_have_thresholds(self, models, thresholds):
        with pytest.raises(ValueError):
            Cascade((CascadeLevel(models[0], thresholds["m1"][0]),))

    def test_intermediate_levels_need_thresholds(self, models):
        with pytest.raises(ValueError):
            Cascade((CascadeLevel(models[0], None), CascadeLevel(models[1], None)))

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            Cascade(())

    def test_ends_in_reference(self, models, thresholds, reference):
        cascade = Cascade((CascadeLevel(models[0], thresholds["m1"][0]),
                           CascadeLevel(reference, None)))
        assert cascade.ends_in_reference()


class TestCascadeExecution:
    def test_classify_returns_binary_labels(self, models, thresholds):
        cascade = Cascade((CascadeLevel(models[0], thresholds["m1"][0]),
                           CascadeLevel(models[2], None)))
        images = np.random.default_rng(0).random((10, 16, 16, 3))
        labels = cascade.classify(images)
        assert labels.shape == (10,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_stats_account_for_every_image(self, models, thresholds):
        cascade = Cascade((CascadeLevel(models[0], thresholds["m1"][0]),
                           CascadeLevel(models[2], None)))
        images = np.random.default_rng(1).random((20, 16, 16, 3))
        _, stats = cascade.classify_with_stats(images)
        assert stats["evaluated"][0] == 20
        assert stats["decided"].sum() == 20
        assert stats["evaluated"][1] == 20 - stats["decided"][0]

    def test_single_level_cascade_decides_everything(self, models):
        cascade = Cascade((CascadeLevel(models[0], None),))
        images = np.random.default_rng(2).random((7, 16, 16, 3))
        _, stats = cascade.classify_with_stats(images)
        assert stats["decided"][0] == 7

    def test_wide_thresholds_send_everything_downstream(self, models):
        all_uncertain = DecisionThresholds(0.0, 1.0, 0.95)
        cascade = Cascade((CascadeLevel(models[0], all_uncertain),
                           CascadeLevel(models[2], None)))
        images = np.random.default_rng(3).random((5, 16, 16, 3))
        probs = models[0].predict_proba(images)
        _, stats = cascade.classify_with_stats(images)
        # Only probabilities exactly 0 or 1 can be decided at level one.
        expected_downstream = int(((probs > 0.0) & (probs < 1.0)).sum())
        assert stats["evaluated"][1] == expected_downstream

    @staticmethod
    def _splitting_cascade(first, second, images):
        """``first -> second``, with ``first`` deciding about half of ``images``."""
        low, high = np.quantile(first.predict_proba(images), [0.25, 0.75])
        thresholds = DecisionThresholds(float(low), float(high), 0.95)
        return Cascade((CascadeLevel(first, thresholds),
                        CascadeLevel(second, None)))

    def test_level_two_transforms_only_the_rows_it_evaluates(
            self, models, transformed_rows):
        # The cost model charges a level's data handling per input reaching
        # it; transform work must match.
        images = np.random.default_rng(4).random((40, 16, 16, 3))
        first, second = models[0], models[2]
        cascade = self._splitting_cascade(first, second, images)
        transformed_rows.clear()
        _, stats = cascade.classify_with_stats(images)
        assert 0 < stats["evaluated"][1] < 40
        assert transformed_rows == {
            first.transform.name: 40,
            second.transform.name: stats["evaluated"][1]}

    def test_levels_sharing_a_spec_transform_it_once(self, transformed_rows):
        first = make_model("a", 8, "gray", seed=1)
        second = make_model("b", 8, "gray", seed=5)
        images = np.random.default_rng(5).random((40, 16, 16, 3))
        cascade = self._splitting_cascade(first, second, images)
        thresholds = cascade.levels[0].thresholds
        transformed_rows.clear()
        labels, stats = cascade.classify_with_stats(images)
        assert 0 < stats["evaluated"][1] < 40
        assert transformed_rows == {"8x8-gray": 40}
        # Level two read the right rows out of level one's transform.
        first_probs = first.predict_proba(images)
        expected = np.where(thresholds.confident_mask(first_probs),
                            thresholds.decide(first_probs),
                            second.predict(images))
        np.testing.assert_array_equal(labels, expected)

    def test_rows_index_stored_representations(self, models,
                                               transformed_rows):
        images = np.random.default_rng(6).random((30, 16, 16, 3))
        first, second = models[0], models[2]
        cascade = self._splitting_cascade(first, second, images)
        whole = cascade.classify(images)
        stored = {first.transform.name: first.transform.apply_batch(images)}
        rows = np.array([3, 4, 11, 20, 29])
        transformed_rows.clear()
        labels, stats = cascade.classify_with_stats(
            images, rows=rows, representations=stored)
        np.testing.assert_array_equal(labels, whole[rows])
        assert stats["evaluated"][0] == rows.size
        # The stored spec is indexed, never transformed; the missing one is
        # transformed for the rows reaching its level only.
        assert first.transform.name not in transformed_rows
        assert (transformed_rows[second.transform.name]
                == stats["evaluated"][1])

    def test_rejects_non_batch_input(self, models):
        cascade = Cascade((CascadeLevel(models[0], None),))
        with pytest.raises(ValueError):
            cascade.classify(np.zeros((16, 16, 3)))


class TestCascadeBuilder:
    def test_build_counts_match_formula(self, models, thresholds, reference):
        builder = CascadeBuilder(thresholds, max_depth=2, reference_model=reference)
        cascades = builder.build(models, include_reference_tail=True)
        expected = count_cascades(n_models=3, n_precision_targets=2, max_depth=2,
                                  with_reference_tail=True)
        assert len(cascades) == expected

    def test_build_without_reference(self, models, thresholds):
        builder = CascadeBuilder(thresholds, max_depth=2)
        cascades = builder.build(models, include_reference_tail=False)
        expected = count_cascades(3, 2, 2, with_reference_tail=False)
        assert len(cascades) == expected
        assert all(not cascade.ends_in_reference() for cascade in cascades)

    def test_depth_one_is_just_models(self, models, thresholds):
        builder = CascadeBuilder(thresholds, max_depth=1)
        cascades = builder.build(models, include_reference_tail=False)
        assert len(cascades) == 3
        assert all(cascade.depth == 1 for cascade in cascades)

    def test_models_never_repeat_within_a_cascade(self, models, thresholds, reference):
        builder = CascadeBuilder(thresholds, max_depth=2, reference_model=reference)
        for cascade in builder.build(models):
            names = [level.model.name for level in cascade.levels]
            assert len(names) == len(set(names))

    def test_missing_thresholds_raise(self, models, reference):
        builder = CascadeBuilder({}, max_depth=2, reference_model=reference)
        with pytest.raises(KeyError):
            builder.build(models)

    def test_empty_model_pool_raises(self, thresholds):
        builder = CascadeBuilder(thresholds, max_depth=1)
        with pytest.raises(ValueError):
            builder.build([])

    def test_count_cascades_validation(self):
        with pytest.raises(ValueError):
            count_cascades(0, 1, 1, False)

    def test_paper_scale_count_is_about_1_3_million(self):
        """Order-of-magnitude check against the paper's 1,301,405 cascades."""
        total = count_cascades(n_models=360, n_precision_targets=5, max_depth=2,
                               with_reference_tail=False)
        assert 6.0e5 < total < 7.0e5  # one- and two-level cascades
