"""Whole-database persistence: checkpoints, WAL replay, and plain saves.

Built on :mod:`repro.core.persistence` (the per-predicate model repository),
plus a database-level manifest carrying the deployment scenario, device
profile and the table catalog.  Layout (format version 10)::

    <root>/
      database.json            # manifest: scenario, device, predicates,
                               # store budget, per-table entries, WAL state
      predicates/<name>/ckpt-<k>/  # the predicate's model repository,
        repository.json            # version k (manifest-referenced)
        weights.npz
      tables/<table>/ckpt-<k>/ # table image version k (manifest-referenced)
        table.npz              # one archive: images, metadata/<k> and
                               # content/<k> (the corpus), materialized/
                               # mask_<i> and labels_<i> (virtual columns),
                               # store/rep_<i> (representation arrays,
                               # size-capped)
      wal/<table>/             # write-ahead log (WAL-enabled databases only)
        log-<g>.wal            # generation g of the table's journal: one
                               # checksummed frame per record, arrays inline

A trained database therefore round-trips without retraining: all optimizers,
the active scenario, every table's corpus (including rows added by
``db.ingest``), the store's byte budget and materialized virtual columns
come back — a reloaded database answers the same queries with identical
results and without re-classifying rows classified before the save.
Representation arrays are persisted per table (newest write first, up to a
byte cap), so a reload *warm-starts*: queries load representation bytes
instead of re-transforming the corpus, and a reloaded ONGOING deployment
keeps extending at ingest exactly the arrays it got back.  Arrays that were
evicted or fell over the cap are simply recomputed on demand — results are
unaffected.  Which arrays a save holds is decided when the table is
captured (:meth:`~repro.db.executor.QueryExecutor.capture_image` leaves a
native array out), so a load stores every array it reads.

Durability: every save is durable.  :func:`save_database` captures each
table — corpus, labels, id offset *and* representation arrays — in one hold
of its shard lock (a save taken under live server traffic is internally
consistent, row for row), and a save into a WAL-enabled database's own root
is a **checkpoint** — each table's journal is rotated to a fresh generation
*before* any file is written, the manifest records the new generation, and
only then are the absorbed generations pruned.  :func:`load_database` of a
WAL-enabled save restores the checkpoint image and **replays** each table's
log tail (segments ingested, explicit retention sweeps, policy changes,
tables attached or detached since the checkpoint) through the live mutation
methods, then re-arms journaling — so a process killed at an arbitrary byte
of the log recovers to exactly the state its last complete frame had made
durable, with stable ids and materialized labels intact.
Saves never overwrite the previous image: each save writes its table
archive into a fresh ``tables/<table>/ckpt-<k>/`` directory, fsynced before
the manifest moves, the manifest — itself written atomically (temp file,
fsync, ``os.replace``, directory fsync) — references that version, and only
once the new manifest is durably in place are the superseded image
directories (and, for a checkpoint, absorbed WAL generations) deleted.
Predicate repositories follow the same protocol in
``predicates/<name>/ckpt-<k>/``, with one difference: a checkpoint writes a
repository only when the predicate's registration changed since the last
checkpoint under that root (or the load that read it) made one durable, and
otherwise names that directory again — trained weights never change, so a
steady-state checkpoint touches nothing under ``predicates/``.  A crash at any point mid-checkpoint therefore
leaves the previous manifest pointing at its own intact image files and
repositories and at a generation floor whose logs are still on disk.

Exactly one format is read: the one written.  :func:`load_database`
raises ``ValueError("unsupported database format …")`` for any other
``format_version``, naming the version it found and the last commit whose
checkout still reads it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.persistence import (fsync_path, load_optimizer,
                                    save_optimizer, transform_from_dict,
                                    transform_to_dict)
from repro.core.selector import UserConstraints
from repro.costs.device import DeviceProfile
from repro.costs.scenario import Scenario
from repro.data.corpus import CorpusSegment, ImageCorpus
from repro.db.catalog import Catalog
from repro.db.retention import RetentionPolicy
from repro.db.wal import TableWal, fsync_dir, wal_dir, wal_tables
from repro.storage.tiers import StorageTier

if TYPE_CHECKING:
    from repro.db.database import VisualDatabase

__all__ = ["save_database", "load_database", "Durability",
           "DEFAULT_STORE_BYTES_CAP"]

_FORMAT_VERSION = 10

_MANIFEST_FILE = "database.json"
_PREDICATES_DIR = "predicates"
_TABLES_DIR = "tables"
_TABLE_FILE = "table.npz"
_IMAGE_DIR_RE = re.compile(r"^ckpt-(\d+)$")

#: On-disk byte cap for persisted representation arrays, shared by the
#: whole catalog.  Arrays beyond the cap (oldest writes first) are skipped and
#: recomputed lazily after a load.
DEFAULT_STORE_BYTES_CAP = 256 * 2 ** 20


# -- component (de)serialization ------------------------------------------------
def _scenario_from_dict(data: dict) -> Scenario:
    data = dict(data)
    data["load_tier"] = StorageTier(**data["load_tier"])
    return Scenario(**data)


# -- per-table state -------------------------------------------------------------
def _materialized_arrays(materialized: dict) -> tuple[list[dict], dict]:
    """One table's materialized virtual columns, as manifest entries and
    ``materialized/*`` archive arrays.

    ``materialized`` is the executor's ``(category, cascade) -> (mask,
    labels)`` mapping, captured under the shard lock.  The entries
    ([{category, cascade}] in array order) let a reload serve the labels a
    query materialized before the save unchanged, so ingested-then-queried
    rows are never re-classified.
    """
    entries, arrays = [], {}
    for index, ((category, cascade), (mask, labels)) in \
            enumerate(sorted(materialized.items())):
        entries.append({"category": category, "cascade": cascade})
        arrays[f"materialized/mask_{index}"] = mask
        arrays[f"materialized/labels_{index}"] = labels
    return entries, arrays


def _corrupt(path: Path, rows: int, n: int) -> ValueError:
    return ValueError(f"corrupt save: {path} holds {rows} rows for a "
                      f"{n}-row corpus")


def _load_materialized(executor, archive, path: Path,
                       entries: list[dict]) -> None:
    if not entries:
        return
    n = len(executor.corpus)
    columns = {}
    for index, entry in enumerate(entries):
        mask = archive[f"materialized/mask_{index}"].astype(bool)
        labels = archive[f"materialized/labels_{index}"].astype(np.int64)
        if mask.shape[0] != n or labels.shape[0] != n:
            raise _corrupt(path, mask.shape[0], n)
        columns[entry["category"], entry["cascade"]] = (mask, labels)
    executor.restore_materialized(columns)


def _select_store_arrays(images: dict) -> dict[str, list]:
    """Pick the representation arrays to persist, globally newest write first.

    ``images`` maps each table to its captured
    :class:`~repro.db.executor.TableImage`.  :data:`DEFAULT_STORE_BYTES_CAP`
    is spent across the whole catalog in shared-store write order (not per
    table in attachment order), so a reload warm-starts the arrays written
    most recently.  Arrays over the cap are skipped — the executor
    recomputes them on demand after a load, so the cap trades disk for
    warm-start coverage, never correctness.
    """
    candidates = [(rank, table, spec, array)
                  for table, image in images.items()
                  for spec, array, rank in image.store_arrays]
    candidates.sort(key=lambda item: item[0], reverse=True)

    selected: dict[str, list] = {table: [] for table in images}
    used = 0
    for _, table, spec, array in candidates:
        if used + array.nbytes > DEFAULT_STORE_BYTES_CAP:
            continue
        selected[table].append((spec, array))
        used += array.nbytes
    return selected


def _store_arrays(selected: list) -> tuple[list[dict], dict]:
    """One table's selected (spec, array) pairs, as manifest entries and
    ``store/*`` archive arrays."""
    entries, arrays = [], {}
    for spec, array in selected:
        arrays[f"store/rep_{len(entries)}"] = array
        entries.append({"spec": transform_to_dict(spec)})
    return entries, arrays


def _load_store_arrays(executor, archive, path: Path,
                       entries: list[dict]) -> None:
    n = len(executor.corpus)
    # Oldest write first, so the store's write order (and with it the
    # byte-budget eviction order) after the load mirrors the save's.
    for index in reversed(range(len(entries))):
        spec = transform_from_dict(entries[index]["spec"])
        array = archive[f"store/rep_{index}"]
        if array.shape[0] > n:  # shorter is a stale array: topped up lazily
            raise _corrupt(path, array.shape[0], n)
        executor.store.add(spec, array)


# -- versioned table images ------------------------------------------------------
def _next_image_version(root: Path) -> int:
    """First unused ``ckpt-<k>`` version number across every table and
    predicate dir.

    Table archives and repositories are never overwritten in place: a save
    writes a *new* ``tables/<table>/ckpt-<k>/`` (or ``predicates/<name>/
    ckpt-<k>/``) directory and the still-live previous manifest keeps
    pointing at its own, untouched files until the new manifest is durably
    in place.  One shared counter for the whole root keeps a save's
    directories aligned.
    """
    version = 0
    for kind in (_TABLES_DIR, _PREDICATES_DIR):
        parent = root / kind
        if not parent.is_dir():
            continue
        for owner_dir in parent.iterdir():
            if not owner_dir.is_dir():
                continue
            for child in owner_dir.iterdir():
                match = _IMAGE_DIR_RE.match(child.name)
                if match:
                    version = max(version, int(match.group(1)) + 1)
    return version


def _fsync_image_dir(directory: Path) -> None:
    """Make one table's freshly written archive durable: a manifest must
    never reference files the page cache could still lose."""
    fsync_path(directory / _TABLE_FILE)
    fsync_dir(directory)
    fsync_dir(directory.parent)


def _prune_stale_images(parent: Path, referenced: dict[str, str]) -> None:
    """Delete the ``ckpt-<k>`` directories under ``parent`` (``tables/`` or
    ``predicates/``) the just-written manifest no longer references.

    ``referenced`` maps each owner (table or predicate) to the relative
    directory the manifest names for it.  Called only *after* the new
    manifest is durably in place: superseded versions and the directories of
    owners absent from the manifest (detached tables) all go.
    """
    keep = {name: Path(relative).name for name, relative in referenced.items()}
    if not parent.is_dir():
        return
    for owner_dir in parent.iterdir():
        if not owner_dir.is_dir():
            continue
        kept = keep.get(owner_dir.name)
        if kept is None:
            shutil.rmtree(owner_dir, ignore_errors=True)
            continue
        for child in owner_dir.iterdir():
            if (child.is_dir() and _IMAGE_DIR_RE.match(child.name)
                    and child.name != kept):
                shutil.rmtree(child, ignore_errors=True)


# -- database save / load --------------------------------------------------------
def save_database(db: VisualDatabase, root: str | Path) -> Path:
    """Persist ``db`` under ``root`` (created if needed).

    Each table's state — corpus, materialized labels, retention window, id
    offset and representation arrays — is captured in one hold of that
    shard's lock (:meth:`~repro.db.executor.QueryExecutor.capture_image`),
    so a save taken while ``ingest()``/``retain()`` run on other threads is
    internally consistent, row for row; serialization itself happens outside
    the locks.

    When ``db`` has a write-ahead log and ``root`` *is* its WAL root, the
    save is a **checkpoint**: each table's journal rotates to a fresh
    generation at capture time (mutations racing the save land in the new
    generation), the manifest records the generation floor, and the absorbed
    generations are pruned once the manifest is durably in place.  Table
    archives and predicate repositories always land in a fresh ``ckpt-<k>``
    directory, fsynced before the manifest is replaced (every save, not
    only a checkpoint), never over the previous save's files — a crash at
    any point leaves the old manifest's image, repositories and logs
    untouched, so the database stays recoverable.  A checkpoint rewrites no repository whose
    registration is unchanged since the last durable one under ``root``.

    :data:`DEFAULT_STORE_BYTES_CAP` bounds the on-disk bytes spent on
    representation arrays across all tables; materialized labels and corpora
    are always saved in full.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    durability, registry = db.durability, db.registry
    checkpointing = (durability.root is not None
                     and durability.root.resolve() == root.resolve())

    image_version = _next_image_version(root)
    repositories = {}
    for name in db.predicates():
        # A registration never changes once made, so a repository a
        # checkpoint made durable under this root serves every later one.
        if checkpointing and name in durability.repositories:
            repositories[name] = durability.repositories[name]
            continue
        relative_dir = f"{_PREDICATES_DIR}/{name}/ckpt-{image_version}"
        save_optimizer(registry.optimizers[name], root / relative_dir,
                       reference_params=registry.reference_params[name])
        repositories[name] = relative_dir

    # The arrays are immutable by convention, so everything after the
    # captures — cap selection, serialization — happens lock-free.
    images = {}
    for table in db.tables():
        images[table] = db.executor_for(table).capture_image(
            checkpoint=checkpointing)
    selected_arrays = _select_store_arrays(images)
    tables = []
    for table, image in images.items():
        # A fresh image directory per save: the previous manifest's files
        # stay intact until the new manifest supersedes them.
        relative_dir = f"{_TABLES_DIR}/{table}/ckpt-{image_version}"
        table_dir = root / relative_dir
        table_dir.mkdir(parents=True, exist_ok=True)
        materialized_entries, materialized_arrays = _materialized_arrays(
            image.materialized)
        store_entries, store_arrays = _store_arrays(selected_arrays[table])
        np.savez_compressed(
            table_dir / _TABLE_FILE,
            **CorpusSegment(image.images, image.metadata,
                            image.content).to_arrays(),
            **materialized_arrays, **store_arrays)
        _fsync_image_dir(table_dir)
        entry = {
            "name": table,
            "materialized": materialized_entries,
            "store_arrays": store_entries,
            # The retention window and the stable-id offset (rows ever
            # dropped), so a reloaded sliding window keeps its ids.
            "retention": (image.retention.to_dict()
                          if image.retention is not None else None),
            "id_offset": image.id_offset,
        }
        if image.wal_generation is not None:
            # Recovery replays this table's generations >= this.
            entry["wal_generation"] = image.wal_generation
        # After the optional key: the order every writer has emitted.
        entry["table_dir"] = relative_dir
        tables.append(entry)

    manifest = {
        "format_version": _FORMAT_VERSION,
        "scenario": asdict(registry.scenario),
        "device": asdict(registry.device),
        "device_calibrated": registry.device_calibrated,
        "cost_resolution": registry.cost_resolution,
        "source_resolution": registry.source_resolution,
        "calibrate_target_fps": registry.calibrate_target_fps,
        "default_constraints": asdict(db.default_constraints),
        "predicates": [{"name": name,
                        "reference_params": registry.reference_params[name],
                        "repository": relative_dir}
                       for name, relative_dir in repositories.items()],
        "store": {"byte_budget": db.store_budget},
        "tables": tables,
        "wal": {"enabled": checkpointing},
    }
    # Atomic manifest: a crash mid-save leaves the previous manifest (whose
    # image files and generation-floor logs are still on disk) intact.  The
    # manifest is fsynced through the rename, so nothing below runs before
    # the new image is actually durable.
    tmp_manifest = root / f".{_MANIFEST_FILE}.tmp"
    tmp_manifest.write_text(json.dumps(manifest))
    fsync_path(tmp_manifest)
    os.replace(tmp_manifest, root / _MANIFEST_FILE)
    fsync_dir(root)

    # Only after the manifest is in place: drop whatever it superseded —
    # previous image and repository versions, absorbed WAL generations, and
    # the files of tables since detached.
    _prune_stale_images(root / _TABLES_DIR, {entry["name"]: entry["table_dir"]
                                             for entry in tables})
    _prune_stale_images(root / _PREDICATES_DIR, repositories)
    if checkpointing:
        durability.checkpoints += 1
        durability.repositories = repositories
        for table, image in images.items():
            wal = db.executor_for(table).wal
            if wal is not None and image.wal_generation is not None:
                wal.prune(image.wal_generation)
        live = set(db.tables())
        for name in wal_tables(root):
            if name not in live:
                shutil.rmtree(wal_dir(root, name), ignore_errors=True)
    return root


def load_database(root: str | Path) -> VisualDatabase:
    """Restore a database saved with :func:`save_database` (no retraining).

    For a WAL-enabled save (a checkpoint), the checkpoint image is restored
    first and each table's journal tail is then replayed — segments ingested
    after the checkpoint, retention drops and policy changes, and tables
    attached/detached since — after which journaling is re-armed, so the
    loaded database keeps appending to the same logs.

    Only the format :func:`save_database` writes is read; any other
    ``format_version`` raises :class:`ValueError`.  A table archive whose
    label or representation arrays hold more rows than its corpus is a
    corrupt save and raises :class:`ValueError` naming the file.
    """
    root = Path(root)
    manifest_path = root / _MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {_MANIFEST_FILE} under {root}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported database format {version!r}: only format "
            f"{_FORMAT_VERSION} is read; to keep an older directory, open "
            f"it from a checkout of commit 996fcce, the last one that reads "
            f"format 9 (888284b for format 8, 765ede0 for format 7, 576884f "
            f"for format 6, 9334799 for format 5, 2c4153f for format 4, "
            f"f60db2e for formats 1-3)")

    from repro.db.database import VisualDatabase

    db = VisualDatabase(
        device=DeviceProfile(**manifest["device"]),
        scenario=_scenario_from_dict(manifest["scenario"]),
        cost_resolution=manifest["cost_resolution"],
        source_resolution=manifest["source_resolution"],
        calibrate_target_fps=manifest["calibrate_target_fps"],
        default_constraints=UserConstraints(**manifest["default_constraints"]),
        store_budget=manifest["store"]["byte_budget"])
    # The stored device already carries any calibration that happened before
    # the save; don't re-anchor it against reloaded reference models.
    db.registry.device_calibrated = bool(manifest["device_calibrated"])

    for entry in manifest["predicates"]:
        db.register_optimizer(
            entry["name"], load_optimizer(root / entry["repository"]),
            reference_params=entry["reference_params"])

    for entry in manifest["tables"]:
        table = entry["name"]
        path = root / entry["table_dir"] / _TABLE_FILE
        with np.load(path, allow_pickle=False) as archive:
            segment = CorpusSegment.from_arrays(archive)
            db.attach(table, ImageCorpus(segment.images, segment.metadata,
                                         segment.content))
            executor = db.executor_for(table)
            if entry["retention"] is not None:
                # Through the setter so the shard lock is held; the WAL is
                # not armed yet, so nothing is journaled.
                executor.set_retention(
                    RetentionPolicy.from_dict(entry["retention"]))
            executor.id_offset = int(entry["id_offset"])
            _load_materialized(executor, archive, path, entry["materialized"])
            _load_store_arrays(executor, archive, path, entry["store_arrays"])

    if manifest["wal"]["enabled"]:
        db.durability.recover(db, root, manifest)
    return db


# -- WAL lifecycle ----------------------------------------------------------------
class Durability:
    """One database's write-ahead-log lifecycle: ``root`` holds the journals
    and checkpoints (``None`` = durability off), ``checkpoints`` counts those
    taken, ``repositories`` maps each predicate to the directory (under
    ``root``) of its durable repository, which the next checkpoint names
    again instead of rewriting, and each table's
    :class:`~repro.db.wal.TableWal` is armed and released here as tables
    come and go."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.root: Path | None = None
        self.checkpoints = 0
        self.repositories: dict[str, str] = {}

    def stats(self) -> dict:
        return {"wal_enabled": self.root is not None,
                "wal_root": str(self.root) if self.root is not None else None,
                "checkpoints": self.checkpoints}

    def enable(self, db: VisualDatabase, root: str | Path) -> Path:
        """Journal every table under ``root`` and take the first checkpoint."""
        if self.root is not None:
            raise RuntimeError(f"write-ahead log already enabled under "
                               f"{self.root}")
        self.root = Path(root)
        try:
            for name in self.catalog.tables():
                # No baseline records: the initial checkpoint below captures
                # the current corpora; the log only carries what follows.
                self.arm(name, baseline=False)
            return save_database(db, self.root)
        except BaseException:
            for name in self.catalog.tables():
                self.release(name, tombstone=False)
            self.root = None
            self.repositories = {}
            raise

    def checkpoint(self, db: VisualDatabase) -> Path:
        if self.root is None:
            raise RuntimeError("no write-ahead log; call enable_wal(root) "
                               "before checkpoint()")
        return save_database(db, self.root)

    def arm(self, name: str, *, baseline: bool) -> None:
        """Open ``name``'s journal on its executor (no-op while off);
        ``baseline`` first journals the current corpus as an ``attach``
        record — a table attached between checkpoints exists only in the
        log — while :meth:`enable`'s initial checkpoint carries the corpora."""
        if self.root is None:
            return
        executor = self.catalog.executor(name)
        wal = TableWal(self.root, name, metrics=self.catalog.metrics)
        if baseline:
            corpus = executor.corpus
            wal.log_attach(
                CorpusSegment.build(corpus.images, corpus.metadata,
                                    corpus.content),
                id_offset=executor.id_offset)
            if executor.retention is not None:
                wal.log_retention(executor.retention.to_dict())
        executor.set_wal(wal)

    def release(self, name: str, *, tombstone: bool) -> None:
        """Take ``name``'s journal (if any) off its executor and close it;
        ``tombstone`` journals a ``detach`` record first so recovery drops
        the table too — without it the table comes back at the next load."""
        if name not in self.catalog:
            return
        executor = self.catalog.executor(name)
        wal = executor.wal
        if wal is None:
            return
        executor.set_wal(None)
        if tombstone:
            wal.log_detach()
        wal.close()

    def recover(self, db: VisualDatabase, root: Path, manifest: dict) -> None:
        """Replay every table's journal tail over the checkpoint image, each
        from its manifest generation floor (journals are per shard and
        self-contained).  An ``attach`` record brings back a table attached
        after the checkpoint, a ``detach`` tombstone drops one again; the
        journals are armed only after replay, so replay never re-journals.
        The repositories the manifest names are durable: the next checkpoint
        names them again."""
        self.repositories = {entry["name"]: entry["repository"]
                             for entry in manifest["predicates"]}
        generation_floor = {entry["name"]: int(entry.get("wal_generation", 0))
                            for entry in manifest["tables"]}
        for table in wal_tables(root):
            wal = TableWal(root, table)  # truncates any torn tail
            floor = generation_floor.get(table, 0)
            _replay_table(db, table, wal.records(from_generation=floor))
            if table in self.catalog:
                wal.prune(floor)
                self.catalog.executor(table).set_wal(wal)
            else:
                wal.close()
        self.root = root


def _replay_table(db: VisualDatabase, table: str,
                  records: Iterable[dict]) -> None:
    """Apply one table's journal records, in log order.

    ``records`` may be (and during recovery is) a lazy stream: each record
    is applied before the next one is read, so replay holds one segment's
    arrays at a time, not the whole log tail.
    """
    for record in records:
        kind = record["type"]
        if kind == "attach":
            segment = record["segment"]
            baseline = ImageCorpus(images=segment.images,
                                   metadata=segment.metadata,
                                   content=segment.content)
            if table in db.catalog:
                db.register_corpus(baseline, name=table)  # a replace()
            else:
                db.attach(table, baseline)
            db.executor_for(table).id_offset = int(record.get("id_offset", 0))
        elif kind == "detach":
            if table in db.catalog:
                db.detach(table)
        elif table in db.catalog:
            db.executor_for(table).replay_wal([record])
