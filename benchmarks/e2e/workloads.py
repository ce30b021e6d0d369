"""The four workloads.  ``README.md`` holds the reasoning, ``BENCHMARK.json``
the one-line ``why`` of each.

Row pool layout (``sizes.chunk_rows`` = C rows per chunk, positive rates
0.2 / 0.3 / 0.4 / 0.5): chunk k is rows ``[k*C, (k+1)*C)``.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

from repro.db import RetentionPolicy
from repro.query.ast import QueryError
from repro.server import ServerError, connect, serve

from benchmarks.e2e.clock import IngestClock
from benchmarks.e2e.harness import CATEGORIES, Workload, open_database
from benchmarks.e2e.oracle import FANOUT, Shape, answer_of_rows

__all__ = ["WORKLOADS"]


def contains(category: str) -> str:
    return f"contains_object({category})"


class ArchiveScan(Workload):
    name = "archive_scan"
    scenario = "archive"
    exercises = (
        "query.sql.parse_us", "db.planner.plan_ms", "core.optimizer.select_ms",
        "core.optimizer.cascades_evaluated", "db.executor.execute_s",
        "db.executor.rows_classified", "core.cascade.classify_s",
        "core.cascade.rows_evaluated", "transforms.apply_batch_s",
        "storage.store.rows_materialized", "nn.infer_s", "nn.flops_per_row",
        "nn.reference_us_per_row", "db.results.rows_returned",
        "db.wal.append_ms_mean", "db.wal.records", "db.wal.fsync_ms_mean",
        "db.wal.fsyncs_per_krow", "db.ingest.wall_rows_per_s",
        "db.persistence.checkpoint_s", "recovery_s", "data.corpus.generate_s",
        "bench.layer_coverage_share", "bench.host_factor")
    shapes = (
        Shape("and", "*", "images",
              f"{contains('komondor')} AND {contains('scorpion')}",
              lambda labels, meta, _: labels["komondor"] & labels["scorpion"]),
        Shape("or_not", "*", "images",
              f"{contains('komondor')} OR (location = 'detroit' "
              f"AND NOT {contains('scorpion')})",
              lambda labels, meta, _: labels["komondor"]
              | ((meta["location"] == "detroit") & ~labels["scorpion"])),
        Shape("metadata_first", "*", "images",
              f"location = '{{literal}}' AND {contains('scorpion')}",
              lambda labels, meta, literal: (meta["location"] == literal)
              & labels["scorpion"]),
    )

    def prepare(self) -> None:
        # One table of two chunks, bulk-loaded in 256-row batches.
        rows = 2 * self.sizes.chunk_rows
        self.deploy({"images": (0, rows)}, seed_rows=min(256, rows // 2),
                    batch_rows=256)

    def trial(self, record: bool) -> None:
        self.load_scratch(record)
        self.db.executor_for("images").clear_cache()
        walls: list[float] = []
        returned = sum(
            len(self.timed_query(shape, self.literal(shape, self.trials_run),
                                 walls))
            for shape in self.shapes)
        if record:
            rows = len(self.shapes) * self.table_rows("images")
            self.record_trial(rows / sum(walls), returned, walls)

    def before_crash(self) -> None:
        # An archive checkpoints once loaded: recovery reads the image (with
        # the warm representations), replays nothing.
        self.timed_checkpoint()


class CameraFanout(Workload):
    name = "camera_fanout"
    scenario = "camera"
    exercises = (
        "server.plan_cache.hit_rate", "db.executor.execute_s",
        "db.executor.snapshot_capture_ms", "db.executor.merge_ms",
        "db.executor.fanout_speedup", "db.executor.shard_wall_spread",
        "core.cascade.classify_s", "transforms.apply_batch_s", "nn.infer_s",
        "db.aggregates.partials_ms", "db.aggregates.merge_ms",
        "db.wal.append_ms_mean", "db.wal.fsync_ms_mean",
        "db.persistence.replay_records", "recovery_s", "bench.host_factor")
    shapes = (
        Shape("select", "*", FANOUT, contains("komondor"),
              lambda labels, meta, _: labels["komondor"]),
        Shape("group_count", "location, count(*)", FANOUT,
              contains("scorpion"),
              lambda labels, meta, _: labels["scorpion"],
              group_by="location"),
    )

    def prepare(self) -> None:
        # Four shards, one chunk each (so four selectivities), fed
        # round-robin in 64-row batches like four live cameras.
        chunk = self.sizes.chunk_rows
        self.deploy({f"cam_{index}": (index * chunk, (index + 1) * chunk)
                     for index in range(4)},
                    seed_rows=64, batch_rows=64, plan_cache=True)
        for shape in self.shapes:
            self.db.execute(shape.sql())

    def clear_caches(self) -> None:
        for table in self.db.tables():
            self.db.executor_for(table).clear_cache()

    def trial(self, record: bool) -> None:
        self.load_scratch(record)
        self.clear_caches()
        walls: list[float] = []
        returned = sum(len(self.timed_query(shape, None, walls))
                       for shape in self.shapes)
        if record:
            rows = len(self.shapes) * self.table_rows(FANOUT)
            self.record_trial(rows / sum(walls), returned, walls)

    # No checkpoint before the crash: recovery is the initial image plus a
    # replay of every shard's whole log.

    def probe(self) -> None:
        """``fanout_speedup``: the shards one after another / all at once,
        both cold, both from cached plans."""
        shape = self.shapes[0]
        singles = [replace(shape, table=table).sql()
                   for table in self.db.tables()]
        for sql in singles:
            self.db.execute(sql)
        speedups = []
        for _ in range(3):
            self.clear_caches()
            started = time.perf_counter()
            self.db.execute(shape.sql())
            together = time.perf_counter() - started
            self.clear_caches()
            started = time.perf_counter()
            for sql in singles:
                self.db.execute(sql)
            speedups.append((time.perf_counter() - started) / together)
        self.layer_facts["db.executor.fanout_speedup"] = statistics.median(
            speedups)
        super().probe()


class DashboardWire(Workload):
    name = "dashboard_wire"
    scenario = "archive"
    clients = 2
    exercises = (
        "query.sql.parse_us", "server.plan_cache.hit_rate",
        "server.plan_cache.rebinds", "db.aggregates.partials_ms",
        "db.results.fetchall_ms", "db.results.rows_returned",
        "db.persistence.checkpoint_s", "recovery_s", "server.ping_ms",
        "server.wire_p99_ms", "wire_req_per_s", "server.p50_ms.content_hit",
        "server.p50_ms.rebind", "server.p50_ms.aggregate",
        "server.p50_ms.order_limit", "server.p50_ms.fanout",
        "server.p50_ms.big_fetch", "db.wal.fsync_ms_mean", "bench.host_factor")
    shapes = (
        Shape("content_hit", "*", "cam_0", contains("komondor"),
              lambda labels, meta, _: labels["komondor"], limit=50),
        Shape("rebind", "image_id, location", "cam_1",
              f"location = '{{literal}}' AND {contains('scorpion')}",
              lambda labels, meta, literal: (meta["location"] == literal)
              & labels["scorpion"], limit=50),
        Shape("aggregate", "location, count(*)", "cam_0",
              contains("scorpion"),
              lambda labels, meta, _: labels["scorpion"],
              group_by="location"),
        Shape("order_limit", "image_id, timestamp", "cam_1",
              contains("komondor"),
              lambda labels, meta, _: labels["komondor"],
              order_by_desc="timestamp", limit=20),
        Shape("fanout", "*", FANOUT, contains("komondor"),
              lambda labels, meta, _: labels["komondor"], limit=100),
        Shape("big_fetch", "*", FANOUT, "location = 'detroit'",
              lambda labels, meta, _: meta["location"] == "detroit"),
    )

    def prepare(self) -> None:
        # Two shards, everything warm and the store unbounded: the
        # fits-in-store twin of ongoing_ingest.
        chunk = self.sizes.chunk_rows
        self.deploy({"cam_0": (0, chunk), "cam_1": (chunk, 2 * chunk)},
                    seed_rows=64, batch_rows=64)
        self.server = serve(self.db, max_workers=self.clients)
        for table in self.db.tables():
            for category in CATEGORIES:
                self.db.execute(f"SELECT image_id FROM {table} "
                                f"WHERE {contains(category)}")
        # The clients live as long as the workload and run one window per
        # trial: the gate opens a window, and closes it once both are back.
        self.gate = threading.Barrier(self.clients + 1, timeout=60)
        self.deadline: float | None = 0.0
        self.logs: list[list] = [[] for _ in range(self.clients)]
        self.by_class: dict[str, list[float]] = defaultdict(list)
        self.threads = [threading.Thread(target=self.client, args=(index,),
                                         name=f"client-{index}", daemon=True)
                        for index in range(self.clients)]
        for thread in self.threads:
            thread.start()

    def client(self, index: int) -> None:
        """A closed loop: the next request leaves when the last one is back."""
        log = self.logs[index]
        step = index * len(self.shapes) // self.clients
        with connect(*self.server.address, timeout=60) as conn:
            while True:
                self.gate.wait()
                if self.deadline is None:
                    return
                while time.perf_counter() < self.deadline:
                    cycle, position = divmod(step, len(self.shapes))
                    step += 1
                    shape = self.shapes[position]
                    literal = self.literal(shape, cycle + index)
                    started = time.perf_counter()
                    try:
                        # One request: execute + fetch everything + close.
                        with conn.execute(shape.sql(literal)) as cursor:
                            rows = cursor.fetchall()
                    except (ServerError, QueryError, OSError) as exc:
                        log.append((None, shape, literal, repr(exc)))
                        continue
                    log.append((time.perf_counter() - started, shape, literal,
                                answer_of_rows(rows, shape)))
                self.gate.wait()

    def trial(self, record: bool) -> float:
        """One window of both clients; returns seconds per request."""
        self.load_scratch(record)
        for log in self.logs:
            log.clear()
        self.deadline = time.perf_counter() + self.sizes.wire_window_s
        self.gate.wait()
        started = time.perf_counter()
        self.gate.wait()
        elapsed = time.perf_counter() - started
        rows, returned, walls = 0, 0, []
        for wall, shape, literal, answer in (entry for log in self.logs
                                             for entry in log):
            self.attempted += 1
            if wall is None:
                self.failed += 1
                print(f"[{self.name}] FAILED {shape.name}: {answer}",
                      file=sys.stderr)
                continue
            self.observed[shape, literal].add(answer)
            self.by_class[shape.name].append(wall)
            walls.append(wall)
            rows += self.table_rows(shape.table)
            returned += len(answer)
        if record:
            self.record_trial(rows / elapsed, returned, walls)
            self.samples["req_per_s"].append(len(walls) / elapsed)
        return elapsed / len(walls)

    def before_crash(self) -> None:
        self.timed_checkpoint()

    def probe(self) -> None:
        """The wire's floor (ping) and its cost over in-process calls."""
        facts = self.layer_facts
        walls = sorted(wall for walls in self.by_class.values()
                       for wall in walls)
        facts["server.wire_p99_ms"] = walls[int(0.99 * (len(walls) - 1))] * 1e3
        facts["wire_req_per_s"] = statistics.median(self.samples["req_per_s"])
        facts["server.admission.rejected"] = float(
            self.server.admission.stats()["rejected"])
        with connect(*self.server.address, timeout=60) as conn:
            pings = []
            for _ in range(50):
                started = time.perf_counter()
                conn.ping()
                pings.append(time.perf_counter() - started)
        facts["server.ping_ms"] = statistics.median(pings) * 1e3
        for shape in self.shapes:
            local = []
            for step in range(20):
                sql = shape.sql(self.literal(shape, step))
                started = time.perf_counter()
                self.db.execute(sql).fetchall()
                local.append(time.perf_counter() - started)
            wire = statistics.median(self.by_class[shape.name]) * 1e3
            facts[f"server.p50_ms.{shape.name}"] = wire
            facts[f"server.overhead_ms.{shape.name}"] = (
                wire - statistics.median(local) * 1e3)
        super().probe()

    def close(self) -> None:
        if getattr(self, "threads", None):
            # Clients wait at the gate between windows; after a failure
            # mid-window the gate is broken instead and they exit on that.
            self.deadline = None
            try:
                self.gate.wait()
            except threading.BrokenBarrierError:
                pass
            for thread in self.threads:
                thread.join(timeout=60)
        if getattr(self, "server", None) is not None:
            self.server.close()
        super().close()


class OngoingIngest(Workload):
    name = "ongoing_ingest"
    scenario = "ongoing"
    tables = ("cam_0", "cam_1")
    batch_rows = 64
    exercises = (
        "server.plan_cache.hit_rate", "db.executor.execute_s",
        "core.cascade.classify_s", "nn.infer_s", "transforms.ingest_apply_ms",
        "storage.store.evictions", "db.wal.append_ms_mean", "db.wal.records",
        "db.wal.off_rows_per_s", "db.retention.rows_dropped",
        "db.wal.fsync_ms_mean", "db.wal.fsyncs_per_krow",
        "db.ingest.wall_rows_per_s", "db.persistence.checkpoint_s",
        "db.persistence.checkpoint_bytes", "db.persistence.replay_records",
        "recovery_s", "bench.host_factor")
    shapes = (
        Shape("window_scan", "*", FANOUT,
              f"{contains('komondor')} AND {contains('scorpion')}",
              lambda labels, meta, _: labels["komondor"] & labels["scorpion"]),
    )

    def open(self, root, store_budget: int | None):
        """Seed both tables from chunk 0 and run the query once, so its
        representations are registered for ingest-time materialization.
        ``root=None`` leaves the WAL off."""
        seed_rows = self.sizes.chunk_rows // 4
        pool = self.bench.pool
        db = open_database(
            self.bench, self.scenario,
            {table: pool.corpus(index * seed_rows, (index + 1) * seed_rows)
             for index, table in enumerate(self.tables)},
            store_budget=store_budget,
            retention=RetentionPolicy(max_rows=self.sizes.chunk_rows // 2),
            plan_cache=True)
        if root is not None:
            db.enable_wal(root)
        db.execute(self.shapes[0].sql())
        return db

    def store_budget(self) -> int:
        """Half the bytes the registered representations take once both
        retention windows are full, so the working set cannot fit and the
        store must evict and recompute.  Measured on an unbudgeted twin over
        the seed rows (half a window per table) — hence no factor of two."""
        twin = self.open(None, None)
        try:
            return twin.catalog.store.total_bytes_stored()
        finally:
            twin.close()

    def prepare(self) -> None:
        self.budget = self.store_budget()
        self.db = self.open(self.root, self.budget)
        # The feed is chunks 1-2 in an order the seed picks.
        chunk = self.sizes.chunk_rows
        self.feed = chunk + np.random.default_rng(
            self.bench.seed).permutation(2 * chunk)
        # Four queries per replay of the feed (every 8 batches at full size).
        self.query_every = max(1, len(self.feed) // self.batch_rows // 4)

    def replay(self, db, batches: int, record: bool) -> float:
        """Feed ``batches`` 64-row batches, alternating tables, a fan-out
        query every ``query_every``; returns rows per second of ingest wall."""
        pool = self.bench.pool
        shape = self.shapes[0]
        clock = IngestClock(self.bench.sync)
        query_rows, returned = 0, 0
        walls: list[float] = []
        for index in range(batches):
            table = self.tables[index % len(self.tables)]
            batch = pool.rows(index * self.batch_rows,
                              (index + 1) * self.batch_rows, order=self.feed)
            clock.ingest(db, batch, table)
            self.attempted += 1
            if (index + 1) % self.query_every == 0:
                started = time.perf_counter()
                result = db.execute(shape.sql())
                walls.append(time.perf_counter() - started)
                query_rows += sum(len(db.corpus_for(name))
                                  for name in db.tables())
                returned += len(result)
                self.check_ids(db, result)
        if record:
            self.record_ingest(clock)
            self.record_trial(query_rows / sum(walls), returned, walls)
        return clock.wall_rows_per_s()

    def check_ids(self, db, result) -> None:
        """Cheap per-query check while the tables move: ids are unique and
        inside each shard's live id range (the full oracle runs at the end)."""
        ok = True
        for table in db.tables():
            ids = result.per_table(table).image_ids.tolist()
            offset = db.executor_for(table).id_offset
            ok &= len(set(ids)) == len(ids) and all(
                offset <= image_id < offset + len(db.corpus_for(table))
                for image_id in ids)
        self.verify(ok, "window_scan ids outside the live window")

    def trial(self, record: bool) -> None:
        # A long-lived ingest node checkpoints on a timer; doing it at the
        # top of every trial keeps the log, and so the trial, the same size
        # however many trials fit in the window.
        self.db.checkpoint()
        self.replay(self.db, len(self.feed) // self.batch_rows, record)

    def before_crash(self) -> None:
        # Checkpoint, then a fixed tail: recovery = image + tail replay, and
        # the disk footprint does not depend on how many trials fitted.
        self.timed_checkpoint()
        self.replay(self.db, self.sizes.tail_batches, record=False)

    def check(self) -> None:
        # The tables moved under every timed query, so the oracle checks the
        # final state: live db vs oracle, recovered db vs live db.
        self.observed[self.shapes[0], None] = set()
        super().check()

    def probe(self) -> None:
        """One feed replay into a WAL-off twin: the ceiling for group commit."""
        twin = self.open(None, self.budget)
        try:
            self.layer_facts["db.wal.off_rows_per_s"] = self.replay(
                twin, len(self.feed) // self.batch_rows, record=False)
        finally:
            twin.close()
        super().probe()


WORKLOADS = {cls.name: cls for cls in (ArchiveScan, CameraFanout,
                                       DashboardWire, OngoingIngest)}
