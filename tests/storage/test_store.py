"""Tests for the representation store."""

import numpy as np
import pytest

from repro.storage.store import RepresentationStore
from repro.transforms.spec import TransformSpec


@pytest.fixture
def images():
    return np.random.default_rng(0).random((6, 16, 16, 3))


def test_materialize_and_get(images):
    store = RepresentationStore()
    specs = [TransformSpec(8, "rgb"), TransformSpec(8, "gray")]
    store.materialize(images, specs)
    assert len(store) == 2
    assert store.get(specs[1]).shape == (6, 8, 8, 1)
    assert specs[0] in store


def test_get_missing_raises(images):
    store = RepresentationStore()
    with pytest.raises(KeyError):
        store.get(TransformSpec(8, "rgb"))


def test_get_or_transform_caches(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "red")
    first = store.get_or_transform(spec, images)
    second = store.get_or_transform(spec, np.zeros_like(images))
    # Second call returns the cached representation, not a re-transform.
    np.testing.assert_allclose(first, second)


def test_add_validates_shape(images):
    store = RepresentationStore()
    with pytest.raises(ValueError):
        store.add(TransformSpec(8, "gray"), np.zeros((3, 8, 8, 3)))


def test_materialize_rejects_single_image():
    store = RepresentationStore()
    with pytest.raises(ValueError):
        store.materialize(np.zeros((16, 16, 3)), [TransformSpec(8)])


def test_bytes_stored_counts_all_images(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "gray")
    store.materialize(images, [spec])
    assert store.bytes_stored() == 6 * 8 * 8
    assert store.bytes_stored(per_image=True) == 8 * 8


def test_specs_listing(images):
    store = RepresentationStore()
    store.materialize(images, [TransformSpec(8, "rgb"), TransformSpec(16, "gray")])
    names = [spec.name for spec in store.specs()]
    assert names == sorted(names)
    assert len(names) == 2


def test_materialize_registers_specs(images):
    store = RepresentationStore()
    specs = [TransformSpec(8, "rgb"), TransformSpec(8, "gray")]
    store.materialize(images, specs)
    assert {spec.name for spec in store.registered_specs()} == \
        {spec.name for spec in specs}


def test_extend_appends_rows(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "gray")
    store.materialize(images, [spec])
    store.append_rows(spec, spec.apply_batch(images[:2]))
    assert store.rows(spec) == 8
    np.testing.assert_array_equal(store.get(spec)[6:],
                                  spec.apply_batch(images[:2]))
    assert store.rows(TransformSpec(16, "rgb")) == 0


def test_extend_missing_or_mismatched_rejected(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "gray")
    with pytest.raises(KeyError):
        store.append_rows(spec, np.zeros((2, 8, 8, 1)))
    store.materialize(images, [spec])
    with pytest.raises(ValueError):
        store.append_rows(spec, np.zeros((2, 8, 8, 3)))
    assert store.rows(spec) == 6  # the rejected rows left the entry intact


def test_clear_keeps_policy(images):
    store = RepresentationStore(byte_budget=10_000)
    store.materialize(images, [TransformSpec(8, "rgb")])
    store.clear()
    assert len(store) == 0
    assert store.bytes_stored() == 0
    assert store.byte_budget == 10_000
    assert [spec.name for spec in store.registered_specs()] == ["8x8-rgb"]


class TestByteBudget:
    # One 6-image representation at 8x8 gray = 384 simulated bytes.
    ONE = 6 * 8 * 8

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            RepresentationStore(byte_budget=0)

    def test_lru_eviction_order(self, images):
        store = RepresentationStore(byte_budget=2 * self.ONE)
        specs = [TransformSpec(8, "gray"), TransformSpec(8, "red"),
                 TransformSpec(8, "green")]
        for spec in specs:
            store.add(spec, spec.apply_batch(images))
        # Oldest (gray) was evicted; the two most recent remain.
        assert {spec.name for spec in store.specs()} == \
            {"8x8-red", "8x8-green"}
        assert store.evictions == 1
        assert store.bytes_stored() <= 2 * self.ONE

    def test_get_refreshes_recency(self, images):
        store = RepresentationStore(byte_budget=2 * self.ONE)
        gray, red, green = (TransformSpec(8, "gray"), TransformSpec(8, "red"),
                            TransformSpec(8, "green"))
        store.add(gray, gray.apply_batch(images))
        store.add(red, red.apply_batch(images))
        store.get(gray)  # gray is now hottest
        store.add(green, green.apply_batch(images))
        assert {spec.name for spec in store.specs()} == \
            {"8x8-gray", "8x8-green"}

    def test_oversized_newcomer_does_not_wipe_warm_entries(self, images):
        # Regression: an entry that alone exceeds the budget must evict only
        # itself — not the smaller entries that did fit.
        store = RepresentationStore(byte_budget=2 * self.ONE)
        gray, red = TransformSpec(8, "gray"), TransformSpec(8, "red")
        store.add(gray, gray.apply_batch(images))
        store.add(red, red.apply_batch(images))
        big = TransformSpec(16, "rgb")  # 6 * 16*16*3 bytes >> budget
        store.add(big, big.apply_batch(images))
        assert {spec.name for spec in store.specs()} == \
            {"8x8-gray", "8x8-red"}
        assert store.evictions == 1

    def test_oversized_array_not_kept_but_returned(self, images):
        store = RepresentationStore(byte_budget=self.ONE // 2)
        spec = TransformSpec(8, "gray")
        array = store.get_or_transform(spec, images)
        assert array.shape == (6, 8, 8, 1)
        assert len(store) == 0
        assert store.bytes_stored() == 0

    def test_budget_enforced_on_extend(self, images):
        store = RepresentationStore(byte_budget=self.ONE)
        spec = TransformSpec(8, "gray")
        store.add(spec, spec.apply_batch(images))
        assert store.rows(spec) == 6
        store.append_rows(spec, spec.apply_batch(images))  # doubles the bytes
        assert store.bytes_stored() <= self.ONE
        assert len(store) == 0  # the doubled array no longer fits

    def test_unbudgeted_store_never_evicts(self, images):
        store = RepresentationStore()
        for spec in (TransformSpec(8, mode) for mode in
                     ("rgb", "gray", "red", "green", "blue")):
            store.add(spec, spec.apply_batch(images))
        assert len(store) == 5
        assert store.evictions == 0
