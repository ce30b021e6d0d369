"""Admission control: counting gate, instant backpressure, drain, timeouts."""

import sys
import threading
import time

import pytest

from repro.query.ast import QueryTimeoutError
from repro.server.admission import AdmissionController
from repro.server.protocol import BackpressureError


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return False


class Caller(threading.Thread):
    """One connection thread's worth of ``admission.run(fn)``: keeps what
    came back (or what was raised) for the test to read after ``join``."""

    def __init__(self, admission, fn):
        super().__init__(daemon=True)
        self.admission, self.fn = admission, fn
        self.result = self.error = None
        self.start()

    def run(self):
        try:
            self.result = self.admission.run(self.fn)
        except BaseException as exc:  # noqa: BLE001 - recorded for the assert
            self.error = exc

    def outcome(self, timeout=5.0):
        self.join(timeout)
        assert not self.is_alive()
        if self.error is not None:
            raise self.error
        return self.result


@pytest.fixture()
def controller():
    admission = AdmissionController(max_workers=2, max_queue=4)
    yield admission
    admission.shutdown()


class TestSubmit:
    """``run`` admits (counted ``submitted``) and runs on the caller."""

    def test_result_round_trip(self, controller):
        assert controller.run(lambda: 21 * 2) == 42

    def test_runs_on_the_calling_thread_and_starts_none(self):
        before = threading.active_count()
        admission = AdmissionController(max_workers=3, max_queue=1)
        assert threading.active_count() == before
        assert admission.run(threading.current_thread) is \
            threading.current_thread()
        admission.shutdown()

    def test_exceptions_forwarded(self, controller):
        with pytest.raises(ZeroDivisionError):
            controller.run(lambda: 1 / 0)
        stats = controller.stats()
        assert stats["failed"] == 1 and stats["completed"] == 0

    def test_raising_fn_frees_its_slot(self):
        admission = AdmissionController(max_workers=1, max_queue=1)
        with pytest.raises(ZeroDivisionError):
            admission.run(lambda: 1 / 0)
        assert admission.stats()["in_flight"] == 0
        # With one slot, the next call only runs if the failed one let go.
        assert Caller(admission, lambda: "next").outcome() == "next"
        admission.shutdown()

    def test_many_tasks_all_complete(self):
        """More callers than cores, fast switching: never more than
        ``max_workers`` inside, and every counter adds up afterwards."""
        admission = AdmissionController(max_workers=2, max_queue=32)
        state_lock = threading.Lock()
        inside = peak = 0

        def task(i):
            nonlocal inside, peak
            with state_lock:
                inside += 1
                peak = max(peak, inside)
            time.sleep(0.001)
            with state_lock:
                inside -= 1
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [Caller(admission, lambda i=i: task(i))
                       for i in range(20)]
            assert [c.outcome() for c in callers] == \
                [i * i for i in range(20)]
        finally:
            sys.setswitchinterval(interval)
            admission.shutdown()
        assert peak <= 2
        stats = admission.stats()
        assert stats["submitted"] == stats["completed"] == 20
        assert stats["in_flight"] == stats["queue_depth"] == 0


class TestBackpressure:
    def test_full_queue_rejects_immediately(self):
        admission = AdmissionController(max_workers=1, max_queue=1)
        release = threading.Event()
        try:
            blocker = Caller(admission, release.wait)
            assert wait_until(
                lambda: admission.stats()["in_flight"] == 1)
            queued = Caller(admission, lambda: "queued")
            assert wait_until(
                lambda: admission.stats()["queue_depth"] == 1)
            started = time.monotonic()
            with pytest.raises(BackpressureError) as info:
                admission.run(lambda: "rejected")
            # The rejection must not have waited on the running query.
            assert time.monotonic() - started < 1.0
            assert info.value.max_queue == 1
            assert info.value.to_dict()["type"] == "BackpressureError"
            release.set()
            assert queued.outcome() == "queued"
            assert blocker.outcome() is True
            assert admission.stats()["rejected"] == 1
        finally:
            release.set()
            admission.shutdown()

    def test_rejected_after_shutdown(self, controller):
        controller.shutdown()
        with pytest.raises(BackpressureError):
            controller.run(lambda: None)


class TestShutdown:
    def test_drain_completes_queued_work(self):
        admission = AdmissionController(max_workers=1, max_queue=8)
        gate = threading.Event()
        first = Caller(admission, gate.wait)
        assert wait_until(lambda: admission.stats()["in_flight"] == 1)
        others = [Caller(admission, lambda i=i: i) for i in range(4)]
        assert wait_until(lambda: admission.stats()["queue_depth"] == 4)
        closer = threading.Thread(target=admission.shutdown)
        closer.start()
        assert wait_until(lambda: admission.stats()["closing"])
        gate.set()
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert first.outcome(timeout=1) is True
        assert [c.outcome(timeout=1) for c in others] == list(range(4))

    def test_idempotent(self, controller):
        controller.shutdown()
        controller.shutdown()


def outcomes(admission):
    stats = admission.stats()
    return {event: stats[event] for event in
            ("submitted", "completed", "failed", "timeouts", "rejected")}


class TestOneTerminalEventPerRun:
    """Every ``run`` call ends in exactly one of ``completed``, ``failed``,
    ``timeouts`` or ``rejected``: the gate is the server's one count of
    query outcomes."""

    def test_timeout_failure_and_shutdown_rejection(self):
        admission = AdmissionController(max_workers=1, max_queue=1)

        def timed_out():
            raise QueryTimeoutError("deadline passed")

        def broken():
            raise ValueError("bad query")

        with pytest.raises(QueryTimeoutError):
            admission.run(timed_out)
        with pytest.raises(ValueError):
            admission.run(broken)
        assert admission.run(lambda: 1) == 1
        admission.shutdown()
        with pytest.raises(BackpressureError, match="shutting down"):
            admission.run(lambda: 1)
        assert outcomes(admission) == {"submitted": 3, "completed": 1,
                                       "failed": 1, "timeouts": 1,
                                       "rejected": 1}

class TestCancelFor:
    def test_none_timeout_means_no_hook(self, controller):
        assert controller.cancel_for(None) is None

    def test_hook_raises_past_deadline(self, controller):
        cancel = controller.cancel_for(1e-6)
        time.sleep(0.01)
        with pytest.raises(QueryTimeoutError):
            cancel()

    def test_hook_silent_before_deadline(self, controller):
        cancel = controller.cancel_for(60.0)
        cancel()

    def test_clock_starts_at_submission(self, controller):
        cancel = controller.cancel_for(0.05, started=time.monotonic() - 1.0)
        with pytest.raises(QueryTimeoutError):
            cancel()


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"max_workers": 0}, {"max_queue": 0}])
    def test_positive_sizes_required(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)
