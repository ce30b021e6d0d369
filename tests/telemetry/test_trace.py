"""Unit tests for per-query trace spans and the tracer ring buffer."""

import threading
import time

import pytest

from repro.telemetry import trace as trace_module
from repro.telemetry.trace import NO_SPAN, Tracer


class TestSpan:
    def test_parentage_and_elapsed(self):
        trace = Tracer().trace("query", sql="SELECT 1")
        with trace.root as root:
            assert root.elapsed_s is None
            with root.child("plan"):
                pass
            with root.child("table", table="cam_a") as shard:
                shard.annotate(rows=3)
        tree = trace.to_dict()
        assert tree["trace_id"] == "t000001"
        assert tree["name"] == "query"
        assert tree["attrs"] == {"sql": "SELECT 1"}
        assert tree["elapsed_s"] > 0
        assert [child["name"] for child in tree["children"]] == \
            ["plan", "table"]
        shard_node = tree["children"][1]
        assert shard_node["attrs"] == {"table": "cam_a", "rows": 3}
        assert shard_node["elapsed_s"] is not None

    def test_clock_starts_when_a_span_is_entered(self):
        """A span made ahead of its work (a fan-out shard queued for a pool
        thread) does not count the wait."""
        trace = Tracer().trace("query")
        with trace.root as root:
            queued = root.child("table", table="cam_a")
            time.sleep(0.05)
            with queued:
                pass
        assert trace.to_dict()["children"][0]["elapsed_s"] < 0.05

    def test_error_recorded_on_exit(self):
        trace = Tracer().trace("query")
        with pytest.raises(RuntimeError):
            with trace.root:
                raise RuntimeError("boom")
        assert trace.to_dict()["error"] == "RuntimeError: boom"

    def test_to_dict_is_a_deep_copy(self):
        trace = Tracer().trace("query")
        with trace.root as root:
            root.child("plan")
        tree = trace.to_dict()
        tree["children"].clear()
        assert len(trace.to_dict()["children"]) == 1

    def test_children_from_worker_threads(self):
        trace = Tracer().trace("query")
        with trace.root as root:
            def shard(name: str) -> None:
                with root.child(name) as span:
                    span.annotate(done=True)
            threads = [threading.Thread(target=shard, args=(f"t{i}",))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        tree = trace.to_dict()
        assert sorted(child["name"] for child in tree["children"]) == \
            ["t0", "t1", "t2", "t3"]
        assert all(child["elapsed_s"] is not None
                   for child in tree["children"])


class TestNoSpan:
    def test_child_returns_self_and_everything_is_noop(self):
        assert NO_SPAN.child("anything", rows=1) is NO_SPAN
        NO_SPAN.annotate(rows=2)
        with NO_SPAN.child("nested") as span:
            assert span is NO_SPAN
        assert NO_SPAN.elapsed_s is None
        assert NO_SPAN.to_dict()["name"] == "noop"


class TestTracer:
    def test_ids_are_process_ordered(self):
        tracer = Tracer()
        assert [tracer.trace("q").trace_id for _ in range(3)] == \
            ["t000001", "t000002", "t000003"]

    def test_ring_buffer_keeps_last_n(self, monkeypatch):
        monkeypatch.setattr(trace_module, "KEEP", 2)
        tracer = Tracer()
        for _ in range(5):
            with tracer.trace("q").root:
                pass
        recent = tracer.recent()
        assert [trace["trace_id"] for trace in recent] == \
            ["t000004", "t000005"]

    def test_default_keeps_last_keep_traces(self):
        tracer = Tracer()
        for _ in range(trace_module.KEEP + 1):
            tracer.trace("q")
        recent = tracer.recent()
        assert len(recent) == trace_module.KEEP == 32
        assert recent[0]["trace_id"] == "t000002"

    def test_concurrent_traces(self):
        tracer = Tracer()

        def query(index: int) -> None:
            trace = tracer.trace("q", index=index)
            with trace.root as root:
                with root.child("plan"):
                    pass

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        recent = tracer.recent()
        assert len(recent) == 8
        assert len({trace["trace_id"] for trace in recent}) == 8
