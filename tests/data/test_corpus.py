"""Tests for labeled datasets, splits and the queryable corpus."""

import numpy as np
import pytest

from repro.data.categories import TABLE2_CATEGORIES, get_category
from repro.data.corpus import (
    ImageCorpus,
    LabeledDataset,
    build_predicate_dataset,
    build_predicate_splits,
    generate_corpus,
)


def make_dataset(n=10, size=8, rng=None):
    rng = rng or np.random.default_rng(0)
    return LabeledDataset(rng.random((n, size, size, 3)), rng.integers(0, 2, n))


class TestLabeledDataset:
    def test_length_and_size(self):
        dataset = make_dataset(7, 8)
        assert len(dataset) == 7
        assert dataset.image_size == 8

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 4, 4, 3)), np.zeros(2))

    def test_non_nhwc_raises(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 4, 4)), np.zeros(3))

    def test_subset(self):
        dataset = make_dataset(10)
        sub = dataset.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_allclose(sub.images[1], dataset.images[2])

    def test_shuffled_preserves_pairs(self):
        rng = np.random.default_rng(1)
        dataset = make_dataset(20, rng=rng)
        shuffled = dataset.shuffled(rng)
        # Every (image, label) pair still appears: match via image sums.
        original = sorted(zip(dataset.images.sum(axis=(1, 2, 3)), dataset.labels))
        permuted = sorted(zip(shuffled.images.sum(axis=(1, 2, 3)), shuffled.labels))
        np.testing.assert_allclose(np.array(original), np.array(permuted))

    def test_concat(self):
        a, b = make_dataset(4), make_dataset(6)
        combined = a.concat(b)
        assert len(combined) == 10

    def test_concat_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_dataset(4, size=8).concat(make_dataset(4, size=16))

    def test_split_fractions(self):
        dataset = make_dataset(20)
        parts = dataset.split((0.5, 0.25, 0.25), np.random.default_rng(0))
        assert [len(p) for p in parts] == [10, 5, 5]

    def test_split_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_dataset(10).split((0.5, 0.2), np.random.default_rng(0))


class TestPredicateDatasets:
    def test_build_predicate_dataset_balanced(self):
        rng = np.random.default_rng(2)
        dataset = build_predicate_dataset(get_category("fence"), 6, 6, 16, rng)
        assert len(dataset) == 12
        assert dataset.labels.sum() == 6

    def test_build_predicate_dataset_empty(self):
        dataset = build_predicate_dataset(get_category("fence"), 0, 0, 16,
                                          np.random.default_rng(0))
        assert len(dataset) == 0

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            build_predicate_dataset(get_category("fence"), -1, 2, 16,
                                    np.random.default_rng(0))

    def test_build_splits_sizes(self):
        splits = build_predicate_splits(get_category("wallet"), n_train=10,
                                        n_config=6, n_eval=8, image_size=16,
                                        rng=np.random.default_rng(3))
        assert splits.sizes() == (10, 6, 8)
        assert splits.train.image_size == 16

    def test_splits_are_roughly_balanced(self):
        splits = build_predicate_splits(get_category("wallet"), n_train=20,
                                        n_config=10, n_eval=10, image_size=16,
                                        rng=np.random.default_rng(4))
        assert splits.train.labels.mean() == 0.5


class TestImageCorpus:
    def test_generate_corpus_shapes(self):
        corpus = generate_corpus(TABLE2_CATEGORIES[:3], n_images=12,
                                 image_size=16, rng=np.random.default_rng(5))
        assert len(corpus) == 12
        assert corpus.image_size == 16
        assert set(corpus.content) == {c.name for c in TABLE2_CATEGORIES[:3]}
        assert "location" in corpus.metadata

    def test_corpus_validates_column_lengths(self):
        with pytest.raises(ValueError):
            ImageCorpus(images=np.zeros((3, 8, 8, 3)),
                        metadata={"location": np.array(["a", "b"])})

    def test_generate_corpus_requires_images(self):
        with pytest.raises(ValueError):
            generate_corpus(TABLE2_CATEGORIES[:1], n_images=0, image_size=16)

    def test_generate_corpus_rejects_small_frames(self):
        with pytest.raises(ValueError, match="at least 8 pixels"):
            generate_corpus(TABLE2_CATEGORIES[:1], n_images=4, image_size=4)

    def test_generate_corpus_rejects_positive_rate_above_one(self):
        with pytest.raises(ValueError, match="positive_rate"):
            generate_corpus(TABLE2_CATEGORIES[:1], n_images=4, image_size=16,
                            positive_rate=1.5)

    def test_generate_corpus_rejects_negative_positive_rate(self):
        with pytest.raises(ValueError, match="positive_rate"):
            generate_corpus(TABLE2_CATEGORIES[:1], n_images=4, image_size=16,
                            positive_rate=-0.1)

    def test_timestamps_sorted(self):
        corpus = generate_corpus(TABLE2_CATEGORIES[:2], n_images=10,
                                 image_size=16, rng=np.random.default_rng(6))
        timestamps = corpus.metadata["timestamp"]
        assert np.all(np.diff(timestamps) >= 0)

    def test_list_valued_columns_coerced_to_arrays(self):
        # Regression: __post_init__ validated via np.asarray but stored the
        # original Python lists, breaking persistence and append paths.
        corpus = ImageCorpus(images=np.zeros((2, 8, 8, 3)),
                             metadata={"location": ["a", "b"]},
                             content={"cat": [True, False]})
        assert isinstance(corpus.metadata["location"], np.ndarray)
        assert isinstance(corpus.content["cat"], np.ndarray)


class TestImageCorpusAppend:
    def make(self, n=4):
        return ImageCorpus(
            images=np.zeros((n, 8, 8, 3)),
            metadata={"location": np.array(["a"] * n)},
            content={"cat": np.zeros(n, dtype=bool)})

    def test_append_returns_new_ids_and_grows_in_place(self):
        corpus = self.make(4)
        new_ids = corpus.append(np.ones((2, 8, 8, 3)),
                                metadata={"location": ["b", "c"]},
                                content={"cat": [True, True]})
        np.testing.assert_array_equal(new_ids, [4, 5])
        assert len(corpus) == 6
        assert corpus.metadata["location"][-1] == "c"
        assert corpus.content["cat"][-2:].all()
        assert corpus.images[-1].max() == 1.0

    def test_append_pads_missing_content(self):
        corpus = self.make(3)
        corpus.append(np.zeros((2, 8, 8, 3)), metadata={"location": ["b", "b"]})
        assert corpus.content["cat"].shape == (5,)
        assert not corpus.content["cat"][-2:].any()

    def test_append_rejects_wrong_frame_shape(self):
        corpus = self.make(3)
        with pytest.raises(ValueError):
            corpus.append(np.zeros((2, 16, 16, 3)),
                          metadata={"location": ["b", "b"]})

    def test_append_rejects_metadata_mismatch(self):
        corpus = self.make(3)
        with pytest.raises(ValueError):
            corpus.append(np.zeros((1, 8, 8, 3)), metadata={})
        with pytest.raises(ValueError):
            corpus.append(np.zeros((1, 8, 8, 3)),
                          metadata={"location": ["b"], "extra": [1]})

    def test_append_rejects_unknown_content(self):
        corpus = self.make(3)
        with pytest.raises(ValueError):
            corpus.append(np.zeros((1, 8, 8, 3)), metadata={"location": ["b"]},
                          content={"dog": [True]})

    def test_append_empty_batch_is_noop(self):
        corpus = self.make(3)
        new_ids = corpus.append(np.zeros((0, 8, 8, 3)),
                                metadata={"location": np.array([], dtype=str)})
        assert new_ids.size == 0
        assert len(corpus) == 3
