"""Self-tests for the runtime concurrency sanitizer.

Deliberately inverted lock orders and deliberately unguarded writes must be
detected (with the offending stack attached); disciplined code must stay
clean.  The fixture is careful to compose with a suite-level ``--sanitize``
run: it restores the previous enabled state and drains the violations the
tests provoke on purpose, so the conftest's autouse check never sees them.
"""

import threading

import numpy as np
import pytest

from repro import locking
from repro.analysis import sanitizer
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db.executor import QueryExecutor
from repro.db.wal import TableWal
from repro.storage.store import RepresentationStore
from repro.telemetry.metrics import Gauge, MetricsRegistry
from tests.conftest import TINY_SIZE


@pytest.fixture()
def sanitized():
    """Sanitizer on, with clean state, leaving no trace for the next test."""
    was_enabled = sanitizer.enabled()
    sanitizer.reset()
    sanitizer.enable()
    yield
    sanitizer.take_violations()  # drain the violations provoked on purpose
    sanitizer.reset()
    if not was_enabled:
        sanitizer.disable()


def make_corpus():
    return generate_corpus((get_category("komondor"),), n_images=8,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(5), positive_rate=0.9)


class TestLockOrder:
    def test_inversion_detected_with_both_stacks(self, sanitized):
        alpha = locking.make_rlock("fixture:alpha")
        beta = locking.make_rlock("fixture:beta")
        with alpha:
            with beta:
                pass
        # The opposite order: even though this run cannot deadlock (it is
        # single-threaded), the edge graph proves two threads doing these
        # two sequences concurrently could.
        with beta:
            with alpha:
                pass
        violations = sanitizer.take_violations()
        assert len(violations) == 1
        (violation,) = violations
        assert violation.kind == "lock-order"
        assert "fixture:alpha" in violation.message
        assert "fixture:beta" in violation.message
        assert "test_sanitizer" in violation.stack
        assert "test_sanitizer" in violation.other_stack

    def test_transitive_inversion_detected(self, sanitized):
        a = locking.make_lock("fixture:a")
        b = locking.make_lock("fixture:b")
        c = locking.make_lock("fixture:c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:  # closes the cycle a -> b -> c -> a
                pass
        violations = sanitizer.take_violations()
        assert [v.kind for v in violations] == ["lock-order"]
        assert "fixture:a" in violations[0].message

    def test_consistent_order_is_clean(self, sanitized):
        outer = locking.make_rlock("fixture:outer")
        inner = locking.make_rlock("fixture:inner")
        for _ in range(3):
            with outer:
                with inner:
                    pass
        assert sanitizer.take_violations() == []

    def test_reentrant_reacquisition_adds_no_edge(self, sanitized):
        outer = locking.make_rlock("fixture:outer")
        inner = locking.make_rlock("fixture:inner")
        with outer:
            with inner:
                with outer:  # re-entry, not a new ordering fact
                    pass
        # If re-entry had added the edge inner -> outer, this consistent
        # second use would flag a bogus inversion.
        with outer:
            with inner:
                pass
        assert sanitizer.take_violations() == []

    def test_detection_works_across_threads(self, sanitized):
        first = locking.make_lock("fixture:first")
        second = locking.make_lock("fixture:second")

        def ordered():
            with first:
                with second:
                    pass

        thread = threading.Thread(target=ordered, name="sanitizer-fixture")
        thread.start()
        thread.join()
        with second:
            with first:
                pass
        assert [v.kind for v in sanitizer.take_violations()] == ["lock-order"]


class TestGuardedWrite:
    def test_unguarded_write_detected_with_stack(self, sanitized):
        executor = QueryExecutor(make_corpus())
        executor._epoch = 99  # the deliberate violation
        violations = sanitizer.take_violations()
        assert [v.kind for v in violations] == ["guarded-write"]
        (violation,) = violations
        assert "QueryExecutor._epoch" in violation.message
        assert "test_sanitizer" in violation.stack

    def test_locked_write_is_clean(self, sanitized):
        executor = QueryExecutor(make_corpus())
        with executor._lock:
            executor._epoch = 99
        assert sanitizer.take_violations() == []

    def test_construction_is_clean(self, sanitized):
        # __init__ takes the lock before binding guarded attributes; the
        # pre-lock writes (plain attributes) must not trip the assertion.
        QueryExecutor(make_corpus())
        assert sanitizer.take_violations() == []

    def test_plain_lock_instances_are_skipped(self, sanitized):
        # Objects built while the sanitizer was off carry plain locks; the
        # patched __setattr__ must not flag them (it cannot know).
        sanitizer.disable()
        executor = QueryExecutor(make_corpus())
        sanitizer.enable()
        executor._epoch = 99
        assert sanitizer.take_violations() == []

    def test_every_guarded_attribute_is_checked(self, sanitized, tmp_path):
        # TableWal binds its guarded state in __init__ without the lock
        # (exempt: the object is unpublished); a later unlocked rebind is not.
        wal = TableWal(tmp_path, "t")
        assert sanitizer.take_violations() == []
        wal._closed = False  # the deliberate violation
        wal.close()
        violations = sanitizer.take_violations()
        assert [v.kind for v in violations] == ["guarded-write"]
        assert "TableWal._closed" in violations[0].message

    def test_inherited_attribute_is_checked_once(self, sanitized):
        counter = MetricsRegistry().counter("repro_store_hits_total")
        counter._series = {}  # declared on _Metric, rebound on a Counter
        violations = sanitizer.take_violations()
        assert [v.kind for v in violations] == ["guarded-write"]
        assert "Counter._series" in violations[0].message


class TestLockHeld:
    def test_helper_called_without_its_lock(self, sanitized):
        executor = QueryExecutor(make_corpus())
        executor._drop_rows(1)  # the deliberate violation
        violations = sanitizer.take_violations()
        # One lock-held on entry; the helper's unlocked rebind of
        # _id_offset then trips the guarded-write check as well.
        assert [v.kind for v in violations] == ["lock-held", "guarded-write"]
        assert "QueryExecutor._drop_rows" in violations[0].message
        assert "test_sanitizer" in violations[0].stack
        assert "QueryExecutor._id_offset" in violations[1].message

    def test_state_object_helper_called_without_its_lock(self, sanitized):
        store = RepresentationStore()
        store._own_keys()  # the deliberate violation
        violations = sanitizer.take_violations()
        assert [v.kind for v in violations] == ["lock-held"]
        assert "RepresentationStore._own_keys" in violations[0].message
        assert "'store'" in violations[0].message

    def test_helper_called_with_its_lock_is_clean(self, sanitized):
        executor = QueryExecutor(make_corpus())
        with executor._lock:
            executor._drop_rows(1)
        executor.drop_oldest(1)
        assert sanitizer.take_violations() == []

    def test_disable_restores_the_helpers(self, sanitized):
        wrapped = QueryExecutor.__dict__["_drop_rows"]
        sanitizer.disable()
        try:
            assert QueryExecutor.__dict__["_drop_rows"] is not wrapped
            assert "__setattr__" not in QueryExecutor.__dict__
            assert "__setattr__" not in Gauge.__dict__
        finally:
            sanitizer.enable()
