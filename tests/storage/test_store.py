"""Tests for the representation store."""

import numpy as np
import pytest

from repro.storage.store import RepresentationStore
from repro.transforms.spec import TransformSpec


@pytest.fixture
def images():
    return np.random.default_rng(0).random((6, 16, 16, 3))


def materialize(store, images, specs):
    """What a materializing query's merge does per spec: store its array."""
    for spec in specs:
        store.add(spec, spec.apply_batch(images))


def stored(store):
    """``{spec name: array}`` as the executor's snapshot capture reads it."""
    return {spec.name: array for spec, array, _ in store.arrays_by_recency()}


def test_materialize_and_get(images):
    store = RepresentationStore()
    specs = [TransformSpec(8, "rgb"), TransformSpec(8, "gray")]
    materialize(store, images, specs)
    assert len(store) == 2
    assert stored(store)["8x8-gray"].shape == (6, 8, 8, 1)
    assert specs[0] in store


def test_missing_spec_reads_as_absent(images):
    store = RepresentationStore()
    missing = TransformSpec(8, "rgb")
    assert missing not in store
    assert store.rows(missing) == 0
    assert store.arrays_by_recency() == []


def test_add_validates_shape(images):
    store = RepresentationStore()
    with pytest.raises(ValueError):
        store.add(TransformSpec(8, "gray"), np.zeros((3, 8, 8, 3)))


def test_add_rejects_single_image():
    store = RepresentationStore()
    with pytest.raises(ValueError):
        store.add(TransformSpec(8), np.zeros((8, 8, 3)))


def test_bytes_stored_counts_all_images(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "gray")
    materialize(store, images, [spec])
    assert store.bytes_stored() == 6 * 8 * 8


def test_specs_listing(images):
    store = RepresentationStore()
    materialize(store, images, [TransformSpec(8, "rgb"), TransformSpec(16, "gray")])
    names = [spec.name for spec in store.specs()]
    assert names == sorted(names)
    assert len(names) == 2


def test_stored_entries_are_the_specs_ingest_extends(images):
    store = RepresentationStore()
    specs = [TransformSpec(8, "rgb"), TransformSpec(8, "gray")]
    materialize(store, images, specs)
    assert all(spec in store for spec in specs)
    assert store.specs() == sorted(specs, key=lambda spec: spec.name)
    assert TransformSpec(16, "gray") not in store


def test_extend_appends_rows(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "gray")
    materialize(store, images, [spec])
    store.append_rows(spec, spec.apply_batch(images[:2]))
    assert store.rows(spec) == 8
    np.testing.assert_array_equal(stored(store)[spec.name][6:],
                                  spec.apply_batch(images[:2]))
    assert store.rows(TransformSpec(16, "rgb")) == 0


def test_extend_missing_or_mismatched_rejected(images):
    store = RepresentationStore()
    spec = TransformSpec(8, "gray")
    with pytest.raises(KeyError):
        store.append_rows(spec, np.zeros((2, 8, 8, 1)))
    materialize(store, images, [spec])
    with pytest.raises(ValueError):
        store.append_rows(spec, np.zeros((2, 8, 8, 3)))
    assert store.rows(spec) == 6  # the rejected rows left the entry intact


def test_clear_keeps_budget(images):
    store = RepresentationStore(byte_budget=10_000)
    spec = TransformSpec(8, "rgb")
    materialize(store, images, [spec])
    store.clear()
    assert len(store) == 0
    assert store.bytes_stored() == 0
    assert store.specs() == [] and spec not in store
    assert store.byte_budget == 10_000
    materialize(store, images, [spec])  # the budget still admits it
    assert store.specs() == [spec]


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
        store.add(spec, spec.apply_batch(images))
        assert len(store) == 0
        assert store.bytes_stored() == 0
        assert store.evictions == 1

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


def test_eviction_order_is_last_write_inserting_namespace_first():
    """The order ``ongoing_ingest`` runs on, pinned move by move.

    Two shards share a budget that holds exactly four 4-row 8x8
    single-channel arrays (64 simulated bytes per row).  Every assertion
    below holds at the commit that introduced this test and at its parent: a
    change to who pays for an insertion has to change this script.
    """
    def rows(spec, n):
        return np.zeros((n, *spec.shape))

    def names(view):
        return [item[0].name for item in view.arrays_by_recency()]

    def kept(view):
        return [spec.name for spec in view.specs()]

    root = RepresentationStore(byte_budget=4 * 4 * 64)
    north, south = root.scoped("north"), root.scoped("south")
    gray, red, green, blue, rgb = (
        TransformSpec(8, mode)
        for mode in ("gray", "red", "green", "blue", "rgb"))
    north.add(gray, rows(gray, 4))
    south.add(gray, rows(gray, 4))
    north.add(red, rows(red, 4))
    south.add(red, rows(red, 4))
    assert root.total_bytes_stored() == root.byte_budget
    assert root.evictions == 0

    # Reads list a shard's arrays newest write first, as often as asked,
    # and leave the order alone.
    for _ in range(3):
        assert names(north) == ["8x8-red", "8x8-gray"]
        assert names(south) == ["8x8-red", "8x8-gray"]

    # The inserting shard pays first: north's gray is the oldest write in
    # the store (and was just read), yet south's append evicts south's gray.
    south.append_rows(red, rows(red, 2))
    assert root.evictions == 1
    assert kept(north) == ["8x8-gray", "8x8-red"]
    assert kept(south) == ["8x8-red"]
    assert south.rows(red) == 6

    # Reads never change who is evicted: north's arrays are read again
    # (newest first -- a read that refreshed recency would leave gray
    # hottest), and north's next insertion still evicts gray, its oldest
    # write.
    assert names(north) == ["8x8-red", "8x8-gray"]
    north.add(green, rows(green, 4))
    assert root.evictions == 2
    assert kept(north) == ["8x8-green", "8x8-red"]
    assert names(north) == ["8x8-green", "8x8-red"]

    # Rows retention drops are credited at once: with four of south's six
    # rows gone, north's next array fits without an eviction.
    south.drop_oldest_rows(4)
    assert south.rows(red) == 2
    north.add(blue, rows(blue, 4))
    assert root.evictions == 2
    assert names(north) == ["8x8-blue", "8x8-green", "8x8-red"]

    # An insertion its own shard cannot pay for drains that shard, then the
    # store's oldest writes whoever owns them: south's red, then north's
    # red and green -- blue, the newest write before the insertion, stays.
    # (rgb is 192 bytes per row: three quarters of the budget.)
    south.add(rgb, rows(rgb, 4))
    assert root.evictions == 5
    assert kept(north) == ["8x8-blue"]
    assert kept(south) == ["8x8-rgb"]
    assert root.total_bytes_stored() == root.byte_budget
