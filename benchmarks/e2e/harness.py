"""Set-up, the workload base class and the run loop shared by every workload.

Every workload is one durable deployment taken through the same life cycle —
**load** its tables through ``db.ingest`` with the write-ahead log on,
**serve** queries for the measured window, then **crash and recover** — so
every end-to-end metric in ``BENCHMARK.json`` is defined on every workload.
What differs is what the deployment looks like (scenario, shards, batch
size, plan cache, store budget, in-process or over the wire, read/write
mix); ``README.md`` says why each one exists.

End-to-end timings are on the reference clock of :mod:`benchmarks.e2e.clock`
(wall time over the host factor measured around each set-up and each trial);
per-layer times are plain wall time.

``BENCHMARK.json`` at the repository root is the one place metric names,
units and bounds live; this module reads it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e needs the program under {ROOT / 'src'}; "
             "run it from a full checkout")
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from repro.core.selector import UserConstraints  # noqa: E402
from repro.data.categories import get_category  # noqa: E402
from repro.data.corpus import ImageCorpus, generate_corpus  # noqa: E402
from repro.db import RetentionPolicy, VisualDatabase  # noqa: E402
from repro.experiments.presets import (SMOKE_SCALE,  # noqa: E402
                                       simulation_scenarios)
from repro.experiments.workspace import (ExperimentWorkspace,  # noqa: E402
                                         build_workspace)

from benchmarks.e2e.clock import (IngestClock, ReferenceKernel,  # noqa: E402
                                  SyncMeter)
from benchmarks.e2e.layers import Edge, layer_metrics  # noqa: E402
from benchmarks.e2e.oracle import (FANOUT, Shape, answer_of,  # noqa: E402
                                   cascades_of, expected)
from benchmarks.e2e.spans import (Recorder, SpanView,  # noqa: E402
                                  instrument, span)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
#: The samples a trial converts to the reference clock, and the power of the
#: host factor each is multiplied by (a time shrinks on a slow host's clock,
#: a rate grows).  ``disk_bytes_per_user_byte`` is not a timing.
ON_REFERENCE_CLOCK = {"query_rows_per_s": 1, "query_p50_ms": -1,
                      "ingest_rows_per_s": 1}

#: The model pool: SMOKE_SCALE's grid (8 models per predicate over
#: {8,16}px x {rgb,gray}, 16px frames) with a 2-epoch reference classifier.
#: The training seed is fixed, so every ``--seed`` selects the same cascades.
#: It is this small because the driver repeats set-up inside every one of
#: its ~90 runs; DEFAULT_SCALE would spend the whole budget training.
BENCH_SCALE = replace(SMOKE_SCALE, name="bench", reference_epochs=2)
CONSTRAINTS = UserConstraints(max_accuracy_loss=0.05)
CATEGORIES = ("komondor", "scorpion")
LOCATIONS = ("detroit", "seattle", "austin")
#: Positive rate of each of the four row-pool chunks.
CHUNK_RATES = (0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class Sizes:
    """Every count the workloads derive their shape from."""

    chunk_rows: int = 1024
    setup_repeats: int = 3
    warmups: int = 2
    recoveries: int = 5
    tail_batches: int = 16
    reference_rows: int = 256
    wire_window_s: float = 1.0


#: The tier-1 rot check: same code paths, seconds in total.
SMOKE_SIZES = Sizes(chunk_rows=128, setup_repeats=1, warmups=0, recoveries=1,
                    tail_batches=2, reference_rows=32, wire_window_s=0.1)


@dataclass
class RowPool:
    """The generated rows every workload slices (four chunks, in order)."""

    images: np.ndarray
    metadata: dict[str, np.ndarray]
    content: dict[str, np.ndarray]

    def rows(self, lo: int, hi: int, order: np.ndarray | None = None):
        index = slice(lo, hi) if order is None else order[lo:hi]
        return (self.images[index],
                {key: values[index] for key, values in self.metadata.items()},
                {key: values[index] for key, values in self.content.items()})

    def corpus(self, lo: int, hi: int) -> ImageCorpus:
        images, metadata, content = self.rows(lo, hi)
        return ImageCorpus(images=images, metadata=metadata, content=content)


@dataclass
class Bench:
    """What one run hands its workload."""

    workspace: ExperimentWorkspace
    pool: RowPool
    seed: int
    sizes: Sizes
    tmp: Path
    kernel: ReferenceKernel
    sync: SyncMeter
    recorder: Recorder | None = None
    setup_spans: SpanView | None = None


def setup(seed: int, sizes: Sizes, *,
          workspace: ExperimentWorkspace | None = None,
          recorder: Recorder | None = None
          ) -> tuple[ExperimentWorkspace, RowPool, float]:
    """Build the model pool and generate the row pool; returns the wall too.

    Nothing is cached on disk, so work a later change moves into
    initialization shows up in ``setup_s``.  ``workspace`` lets the tier-1
    smoke test reuse the process-wide SMOKE_SCALE pool.
    """
    started = time.perf_counter()
    with instrument(recorder), span(recorder, "setup"):
        if workspace is None:
            workspace = build_workspace(BENCH_SCALE)
        categories = tuple(get_category(name) for name in CATEGORIES)
        with span(recorder, "data.corpus.generate"):
            chunks = [generate_corpus(categories, sizes.chunk_rows,
                                      workspace.scale.image_size,
                                      rng=np.random.default_rng(seed + index),
                                      locations=LOCATIONS, positive_rate=rate)
                      for index, rate in enumerate(CHUNK_RATES)]
    pool = RowPool(
        images=np.concatenate([chunk.images for chunk in chunks]),
        metadata={key: np.concatenate([chunk.metadata[key]
                                       for chunk in chunks])
                  for key in chunks[0].metadata},
        content={key: np.concatenate([chunk.content[key] for chunk in chunks])
                 for key in chunks[0].content})
    return workspace, pool, time.perf_counter() - started


def open_database(bench: Bench, scenario: str,
                  corpora: dict[str, ImageCorpus], *,
                  store_budget: int | None = None,
                  retention: RetentionPolicy | None = None,
                  plan_cache: bool = False) -> VisualDatabase:
    """``ExperimentWorkspace.database`` plus the knobs it does not forward."""
    workspace = bench.workspace
    scale = workspace.scale
    db = VisualDatabase(corpora, device=workspace.device,
                        scenario=simulation_scenarios()[scenario],
                        cost_resolution=scale.cost_resolution,
                        source_resolution=scale.image_size,
                        calibrate_target_fps=None,
                        default_constraints=CONSTRAINTS,
                        store_budget=store_budget, retention=retention,
                        plan_cache=plan_cache)
    reference_params = {"base_width": scale.reference_width,
                        "n_stages": scale.reference_stages,
                        "blocks_per_stage": scale.reference_blocks}
    for name, predicate in workspace.predicates.items():
        db.register_optimizer(name, predicate.optimizer,
                              reference_params=reference_params)
    return db


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def summarize(values: list[float], wall: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples; ``wall`` holds
    the same samples before the reference clock (empty if not a timing)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    summary = {"value": statistics.median(values), "q1": q1, "q3": q3,
               "n": len(values), "samples": list(values)}
    if wall:
        summary["wall"] = statistics.median(wall)
    return summary


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


class Loader:
    """Loads one deployment's tables through ``db.ingest`` with the WAL on.

    The serving database is loaded once (:meth:`load`, then :meth:`release`).
    A scratch copy of the same deployment is loaded again, from its seed rows
    to full, at the top of every trial: that is where ``ingest_rows_per_s``
    comes from (``db.ingest`` wall outside ``os.fsync``; see
    :class:`IngestClock`).  Every sample is the same work, the whole load, so
    none depends on how far an earlier one got; one load per trial spreads
    the samples over the window, and the serving tables stay untouched so
    every timed answer can be checked exactly.
    """

    def __init__(self, workload: "Workload", name: str,
                 layout: dict[str, tuple[int, int]], *, seed_rows: int,
                 batch_rows: int, **db_kwargs) -> None:
        self.workload = workload
        self.name = name
        self.layout = layout
        self.seed_rows = seed_rows
        self.db_kwargs = db_kwargs
        self.db: VisualDatabase | None = None
        self.root: Path | None = None
        # Batches in feed order: round-robin across tables.
        cursors = {table: lo + seed_rows for table, (lo, _) in layout.items()}
        self.batches: list[tuple[str, int, int]] = []
        while any(cursors[table] < hi for table, (_, hi) in layout.items()):
            for table, (_, hi) in layout.items():
                if cursors[table] < hi:
                    stop = min(cursors[table] + batch_rows, hi)
                    self.batches.append((table, cursors[table], stop))
                    cursors[table] = stop
        self.serial = 0

    def load(self) -> IngestClock:
        """Open the deployment on its seed rows and ingest the rest, on the
        clock; the previous load, if any, is thrown away first."""
        self.close()
        workload = self.workload
        pool = workload.bench.pool
        self.root = workload.tmp / f"{self.name}-{self.serial}"
        self.serial += 1
        self.db = open_database(
            workload.bench, workload.scenario,
            {table: pool.corpus(lo, lo + self.seed_rows)
             for table, (lo, _) in self.layout.items()}, **self.db_kwargs)
        self.db.enable_wal(self.root)
        clock = IngestClock(workload.bench.sync)
        for table, start, stop in self.batches:
            clock.ingest(self.db, pool.rows(start, stop), table)
            workload.attempted += 1
        return clock

    def release(self) -> tuple[VisualDatabase, Path]:
        """Hand the loaded database and its directory over."""
        db, self.db = self.db, None
        return db, self.root

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
            shutil.rmtree(self.root)


class Workload:
    """One deployment: load, serve, crash, recover, check.

    Subclasses set ``name``/``scenario``/``shapes`` and implement
    :meth:`prepare` and :meth:`trial`; :meth:`before_crash` and
    :meth:`probe` are optional hooks.
    """

    name = ""
    scenario = ""
    shapes: tuple[Shape, ...] = ()
    #: Per-layer metrics this workload must move (read > 0 after a traced
    #: pass, even at ``SMOKE_SIZES``); ``test_harness.py`` checks them.
    exercises: tuple[str, ...] = ()

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.sizes = bench.sizes
        # Everything this pass puts on disk, removed by close().
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                         dir=bench.tmp))
        self.root = self.tmp / "db"
        self.db: VisualDatabase | None = None
        self.recovered: VisualDatabase | None = None
        self.scratch: Loader | None = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.observed: dict[tuple[Shape, str | None], set] = defaultdict(set)
        self.layer_facts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.trials_run = 0
        # The reference clock (see lap()): the last kernel sample, where the
        # open region's samples start, and the wall the kernel itself took.
        self.lap_factor = 0.0
        self.lap_marks: dict[str, int] = {}
        self.kernel_wall = 0.0

    # -- bookkeeping -----------------------------------------------------------
    def verify(self, ok: bool, what: str) -> None:
        """Count one checked operation; a disagreement is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[{self.name}] MISMATCH {what}", file=sys.stderr)

    def literal(self, shape: Shape, step: int) -> str | None:
        """The rotating literal for ``shape`` at ``step`` (seed-shifted)."""
        if not shape.takes_literal:
            return None
        return LOCATIONS[(self.bench.seed + step) % len(LOCATIONS)]

    def table_rows(self, table: str) -> int:
        tables = self.db.tables() if table == FANOUT else [table]
        return sum(len(self.db.corpus_for(name)) for name in tables)

    # -- load --------------------------------------------------------------------
    def deploy(self, layout: dict[str, tuple[int, int]], **kwargs) -> None:
        """Load the serving database and stand up the scratch load beside it
        (``layout`` maps table -> row-pool range; see :class:`Loader`)."""
        serving = Loader(self, "db", layout, **kwargs)
        serving.load()
        self.db, self.root = serving.release()
        self.scratch = Loader(self, "scratch", layout, **kwargs)

    def load_scratch(self, record: bool) -> None:
        """Load the scratch copy of the deployment once more; the load is a
        timed region of its own on the reference clock."""
        clock = self.scratch.load()
        if record:
            self.record_ingest(clock)
            self.lap()

    def record_ingest(self, clock: IngestClock) -> None:
        self.samples["ingest_rows_per_s"].append(clock.rows_per_s())
        self.samples["ingest_wall_rows_per_s"].append(clock.wall_rows_per_s())
        self.samples["fsync_ms"].append(clock.synced / clock.syncs * 1e3)
        self.samples["fsyncs_per_krow"].append(clock.syncs / clock.rows * 1e3)

    # -- serve -------------------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def trial(self, record: bool) -> float | None:
        """One trial.  May return the cost that traced and untraced trials
        are compared on; ``None`` means the trial's wall."""
        raise NotImplementedError

    def timed_query(self, shape: Shape, literal: str | None,
                    walls: list[float]):
        """One ``db.execute`` on the clock; its answer is kept for the oracle."""
        sql = shape.sql(literal)
        started = time.perf_counter()
        result = self.db.execute(sql)
        walls.append(time.perf_counter() - started)
        self.attempted += 1
        self.observed[shape, literal].add(answer_of(result, shape))
        return result

    def record_trial(self, rows_per_s: float, returned: int,
                     walls: list[float]) -> None:
        self.samples["query_rows_per_s"].append(rows_per_s)
        self.samples["query_p50_ms"].append(statistics.median(walls) * 1e3)
        self.samples["rows_returned"].append(returned)

    def warm_up(self) -> None:
        for _ in range(self.sizes.warmups):
            self.trial(record=False)

    def measure(self, seconds: float,
                recorder: Recorder | None = None) -> None:
        """Timed trials until ``seconds`` have passed.

        With a ``recorder`` every other trial runs with the layer boundaries
        wrapped, so traced and untraced trials see the same drift and their
        walls compare (``trial_wall_s`` vs ``traced_wall_s``).

        The reference kernel runs after every trial (and inside it, after
        the scratch load): see :meth:`lap`.
        """
        started = time.perf_counter()
        self.lap_factor = self.bench.kernel.host_factor()
        self.lap_marks = {name: len(self.samples[name])
                          for name in ON_REFERENCE_CLOCK}
        while True:
            traced = recorder is not None and self.trials_run % 2 == 1
            gc.collect()
            if traced:
                recorder.trial = self.trials_run
            with instrument(recorder if traced else None):
                kernel_wall = self.kernel_wall
                trial_started = time.perf_counter()
                cost = self.trial(record=True)
                wall = (time.perf_counter() - trial_started
                        - (self.kernel_wall - kernel_wall))
            self.samples["traced_wall_s" if traced else "trial_wall_s"].append(
                wall if cost is None else cost)
            self.lap()
            self.trials_run += 1
            if (time.perf_counter() - started >= seconds
                    and (recorder is None or self.trials_run % 2 == 0)):
                return

    def lap(self) -> None:
        """Close the timed region open since the last lap: run the reference
        kernel, and put what the region recorded on the reference clock of
        the host factor measured on either side of it.  The wall values stay
        under ``<name>.wall``."""
        started = time.perf_counter()
        after = self.bench.kernel.host_factor()
        self.kernel_wall += time.perf_counter() - started
        host_factor = (self.lap_factor + after) / 2
        self.lap_factor = after
        self.samples["host_factor"].append(host_factor)
        for name, power in ON_REFERENCE_CLOCK.items():
            values = self.samples[name]
            for index in range(self.lap_marks[name], len(values)):
                self.samples[f"{name}.wall"].append(values[index])
                values[index] *= host_factor ** power
            self.lap_marks[name] = len(values)

    # -- crash and recover -----------------------------------------------------
    def before_crash(self) -> None:
        """Last mutations before the simulated crash (checkpoint, tail)."""

    def timed_checkpoint(self) -> None:
        started = time.perf_counter()
        self.db.checkpoint()
        self.layer_facts["db.persistence.checkpoint_s"] = (
            time.perf_counter() - started)
        self.layer_facts["db.persistence.checkpoint_bytes"] = float(
            dir_bytes(self.root) - dir_bytes(self.root / "wal"))

    def finish(self) -> None:
        """Measure the disk footprint, then recover ``sizes.recoveries``
        times from the directory as the un-closed database left it.

        ``VisualDatabase.load`` and ``close`` leave the directory byte for
        byte as they found it, so every recovery reads the same crash image
        and none has to be copied (copies would put ~200 MB of writeback in
        the way of the next run's timings).
        """
        self.before_crash()
        user_bytes = sum(self.db.corpus_for(table).images.nbytes
                         for table in self.db.tables())
        self.samples["disk_bytes_per_user_byte"].append(
            dir_bytes(self.root) / user_bytes)
        for _ in range(self.sizes.recoveries):
            if self.recovered is not None:
                self.recovered.close()
            started = time.perf_counter()
            self.recovered = VisualDatabase.load(self.root)
            self.samples["recovery_s"].append(time.perf_counter() - started)
            self.attempted += 1

    # -- check -------------------------------------------------------------------
    def check(self) -> None:
        """Oracle checks, outside every timed region."""
        for (shape, literal), answers in self.observed.items():
            result = self.db.execute(shape.sql(literal))
            answers = answers | {answer_of(result, shape)}
            want = expected(self.db, shape, literal,
                            cascades_of(result, shape))
            self.verify(answers == {want}, f"{shape.name}[{literal}]: "
                        f"{len(answers)} distinct answers vs the oracle's")
            if shape.table == FANOUT and shape.limit is None:
                self.verify(self.union_of_shards(shape, literal) == want,
                            f"{shape.name}[{literal}]: fan-out vs shards")
        shape = self.shapes[0]
        literal = self.literal(shape, 0)
        live = answer_of(self.db.execute(shape.sql(literal)), shape)
        recovered = self.recovered
        self.verify(recovered.tables() == self.db.tables(), "recovered tables")
        for table in self.db.tables():
            self.verify(
                (len(recovered.corpus_for(table)),
                 recovered.executor_for(table).id_offset)
                == (len(self.db.corpus_for(table)),
                    self.db.executor_for(table).id_offset),
                f"recovered {table}: rows / id range")
        self.verify(answer_of(recovered.execute(shape.sql(literal)), shape)
                    == live, f"recovered {shape.name}")

    def union_of_shards(self, shape: Shape, literal: str | None):
        """The fan-out answer rebuilt from per-shard single-table queries."""
        parts = []
        for table in self.db.tables():
            single = replace(shape, table=table)
            parts.append(answer_of(self.db.execute(single.sql(literal)),
                                   single))
        if shape.group_by:
            merged: dict = defaultdict(int)
            for part in parts:
                for group, count in part:
                    merged[group] += count
            return tuple(sorted(merged.items()))
        return tuple(row for part in parts for row in part)

    # -- traced extras -----------------------------------------------------------
    def probe(self) -> None:
        """Extra per-layer facts (traced pass only): the reference
        classifier alone, and the selected cascades against ground truth."""
        workspace = self.bench.workspace
        images = self.bench.pool.images[:self.sizes.reference_rows]
        reference = workspace.predicates[CATEGORIES[0]].reference_model
        walls = []
        for _ in range(5):
            started = time.perf_counter()
            reference.predict(images)
            walls.append(time.perf_counter() - started)
        per_row = statistics.median(walls) / len(images)
        corpus = self.db.corpus_for(self.db.tables()[0])
        profiler = workspace.profiler(self.scenario)
        gaps = []
        for category, predicate in workspace.predicates.items():
            evaluation = predicate.optimizer.select(profiler, CONSTRAINTS)
            measured = np.mean(evaluation.cascade.classify(corpus.images)
                               == corpus.content[category])
            gaps.append(float(measured) - evaluation.accuracy)
        self.layer_facts.update({
            "nn.reference_us_per_row": per_row * 1e6,
            "reference_rows_per_s": 1 / per_row,
            "core.selector.speedup_vs_reference": statistics.median(
                self.samples["query_rows_per_s.wall"]) * per_row,
            "core.selector.accuracy_gap": statistics.fmean(gaps),
        })

    def close(self) -> None:
        for db in (self.recovered, self.db, self.scratch):
            if db is not None:
                db.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


@dataclass
class Outcome:
    """One workload's pass: correctness counts plus summarized metrics.

    ``per_layer`` and ``trace`` are ``None`` for an untraced pass.  A traced
    pass fills ``end_to_end`` too, but half its trials carried the tracing
    shims, so only an untraced pass's end-to-end numbers are reported.
    """

    workload: str
    attempted: int
    failed: int
    end_to_end: dict[str, dict]
    per_layer: dict[str, dict] | None = None
    trace: Recorder | None = None

    def wall_clock_line(self) -> str:
        """The timings before the reference clock, for a person to read."""
        return f"[{self.workload}] wall clock: " + " ".join(
            f"{name}={metric['wall']:.6g}"
            for name, metric in self.end_to_end.items() if "wall" in metric)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def driver_line(self) -> str:
        metrics = self.end_to_end if self.per_layer is None else self.per_layer
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metric["value"],
                               "unit": metric["unit"]}
                        for name, metric in metrics.items()}})


def run_workload(cls, bench: Bench, seconds: float,
                 setup_walls: list[float], setup_s: list[float]) -> Outcome:
    """Take one workload through its life cycle; traced if ``bench.recorder``.

    The untraced pass reports the end-to-end metrics.  The traced pass
    alternates untraced trials with trials that have every layer boundary
    wrapped, so the per-layer numbers and the cost of collecting them
    (``bench.trace_overhead_share``) come from one process.
    """
    workload = cls(bench)
    recorder = bench.recorder
    per_layer = None
    try:
        if recorder is None:
            workload.prepare()
            workload.warm_up()
            workload.measure(seconds)
            workload.finish()
            workload.check()
        else:
            recorder.workload = workload.name
            since = recorder.mark()
            with instrument(recorder):
                workload.prepare()
            workload.warm_up()
            before = Edge.of(workload, recorder.mark())
            workload.measure(seconds, recorder)
            after = Edge.of(workload, recorder.mark())
            with instrument(recorder):
                workload.finish()
                workload.probe()
            workload.check()
            layers = layer_metrics(workload, recorder, since,
                                   bench.setup_spans, before, after)
            layers["recovery_s"] = statistics.median(
                workload.samples["recovery_s"])
            layers["process.peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            layers["failed_share"] = workload.failed / workload.attempted
            if set(layers) != set(PER_LAYER):
                raise RuntimeError(
                    "per-layer metrics differ from BENCHMARK.json: "
                    f"{sorted(set(layers) ^ set(PER_LAYER))}")
            per_layer = {name: {"value": float(layers[name]),
                                "unit": PER_LAYER[name]["unit"]}
                         for name in PER_LAYER}
        values = {**workload.samples, "setup_s": setup_s,
                  "setup_s.wall": setup_walls}
        end_to_end = {name: {**summarize(values[name],
                                         values.get(f"{name}.wall", [])),
                             "unit": END_TO_END[name]["unit"]}
                      for name in END_TO_END}
    finally:
        workload.close()
    return Outcome(workload.name, workload.attempted, workload.failed,
                   end_to_end, per_layer, recorder)


def run_pass(cls, seed: int, seconds: float, traced: bool, *,
             sizes: Sizes = Sizes(),
             workspace: ExperimentWorkspace | None = None) -> Outcome:
    """One workload, one pass, from nothing: set up, run, clean up.

    An untraced pass sets up ``sizes.setup_repeats`` times (``setup_s`` is
    their median, each on the reference clock); a traced pass sets up once,
    under the recorder, for the set-up layers.  ``sizes`` and ``workspace``
    are for the tier-1 smoke test.
    """
    recorder = Recorder() if traced else None
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        kernel = ReferenceKernel()
        walls, on_reference_clock = [], []
        before = kernel.host_factor()
        for _ in range(1 if traced else sizes.setup_repeats):
            built, pool, wall = setup(seed, sizes, workspace=workspace,
                                      recorder=recorder)
            after = kernel.host_factor()
            walls.append(wall)
            on_reference_clock.append(wall / ((before + after) / 2))
            before = after
        with SyncMeter() as sync:
            bench = Bench(built, pool, seed, sizes, tmp, kernel, sync,
                          recorder, recorder.view() if traced else None)
            return run_workload(cls, bench, seconds, walls,
                                on_reference_clock)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
