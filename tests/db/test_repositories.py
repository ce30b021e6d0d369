"""Predicate repositories and table archives under a save: written into a
fresh ``ckpt-<k>/`` the manifest names, fsynced before the manifest moves
(a plain save as much as a checkpoint), and a repository only when the
predicate's registration changed since the last durable one under that
root — so a crash inside any checkpoint leaves the previous one loadable,
and a steady-state checkpoint touches nothing under ``predicates/``."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro.db.persistence as persistence
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import VisualDatabase, connect
from tests.conftest import TINY_SIZE

REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
SQL = "SELECT * FROM images WHERE contains_object(komondor)"


class Killed(BaseException):
    """The process dying mid-write (not an error anything may catch)."""


def make_corpus(n_images, seed):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


def files_under(directory: Path) -> dict:
    """Every file below ``directory`` with what a rewrite would change."""
    return {path.relative_to(directory): (path.stat().st_ino,
                                          path.stat().st_mtime_ns,
                                          path.read_bytes())
            for path in sorted(directory.rglob("*")) if path.is_file()}


def kill_inside(monkeypatch, module, name, call):
    """Make the ``call``-th ``module.name(path, ...)`` leave half a file on
    disk and kill the process."""
    real = getattr(module, name)
    calls = [0]

    def torn(target, *args, **kwargs):
        result = real(target, *args, **kwargs)
        calls[0] += 1
        if calls[0] == call:
            path = Path(target)
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
            raise Killed
        return result

    monkeypatch.setattr(module, name, torn)


@pytest.fixture()
def db(fresh_optimizer, tiny_device, tmp_path):
    database = connect(make_corpus(24, seed=77), device=tiny_device,
                       scenario="archive", calibrate_target_fps=None)
    database.register_optimizer("komondor", fresh_optimizer(),
                                reference_params=REFERENCE_PARAMS)
    database.enable_wal(tmp_path / "vdb")
    yield database
    database.close()


def ingest(database, seed):
    batch = make_corpus(8, seed=seed)
    database.ingest(batch.images, metadata=batch.metadata)


def assert_recovers(root, rows, predicates, expected_ids):
    with VisualDatabase.load(root) as loaded:
        assert len(loaded.corpus_for("images")) == rows
        assert loaded.predicates() == predicates
        np.testing.assert_array_equal(loaded.execute(SQL).image_ids,
                                      expected_ids)


class TestCrashInsideACheckpoint:
    def test_kill_in_the_table_archive_leaves_the_database_loadable(
            self, db, tmp_path, monkeypatch):
        # A steady checkpoint writes one archive, the table's (its
        # repository is named again); killed inside it, the previous
        # checkpoint and the log still hold every row and label.
        root = tmp_path / "vdb"
        ingest(db, seed=78)
        expected = db.execute(SQL).image_ids
        kill_inside(monkeypatch, np, "savez_compressed", call=1)
        with pytest.raises(Killed):
            db.checkpoint()
        monkeypatch.undo()
        assert_recovers(root, 32, ["komondor"], expected)

        db.checkpoint()
        [image] = (root / "tables" / "images").iterdir()
        assert image.name == "ckpt-2"  # the torn ckpt-1 is pruned
        assert_recovers(root, 32, ["komondor"], expected)

    def test_kill_while_writing_a_new_repository(
            self, db, fresh_optimizer, tmp_path, monkeypatch):
        # A predicate registered since the last checkpoint is written by
        # the next one; killed mid-weights (its one np.savez), the previous
        # checkpoint (one predicate) and the log still hold every row.
        root = tmp_path / "vdb"
        ingest(db, seed=78)
        expected = db.execute(SQL).image_ids
        db.register_optimizer("komondor_b", fresh_optimizer(),
                              reference_params=REFERENCE_PARAMS)
        kill_inside(monkeypatch, np, "savez", call=1)
        with pytest.raises(Killed):
            db.checkpoint()
        monkeypatch.undo()
        assert_recovers(root, 32, ["komondor"], expected)

        # The next checkpoint writes the repository whole and prunes the
        # torn directory.
        db.checkpoint()
        [kept, written] = [sorted((root / "predicates" / name).iterdir())
                           for name in ("komondor", "komondor_b")]
        assert len(kept) == len(written) == 1
        assert_recovers(root, 32, ["komondor", "komondor_b"], expected)


class TestUnchangedRegistration:
    def test_a_second_checkpoint_touches_no_repository(self, db, tmp_path,
                                                       monkeypatch):
        root = tmp_path / "vdb"
        before = files_under(root / "predicates")
        writes = []
        monkeypatch.setattr(persistence, "save_optimizer",
                            lambda *args, **kwargs: writes.append(args))
        ingest(db, seed=78)
        db.checkpoint()
        ingest(db, seed=79)
        db.checkpoint()
        assert writes == []
        assert files_under(root / "predicates") == before

    def test_a_checkpoint_after_load_touches_no_repository(self, db,
                                                           tmp_path):
        root = tmp_path / "vdb"
        ingest(db, seed=78)
        db.close()
        before = files_under(root / "predicates")
        with VisualDatabase.load(root) as loaded:
            ingest(loaded, seed=79)
            loaded.checkpoint()
            assert files_under(root / "predicates") == before
            expected = loaded.execute(SQL).image_ids
        assert_recovers(root, 40, ["komondor"], expected)

    def test_only_a_new_registration_is_written(self, db, fresh_optimizer,
                                                tmp_path):
        root = tmp_path / "vdb"
        before = files_under(root / "predicates")
        db.register_optimizer("komondor_b", fresh_optimizer(),
                              reference_params=REFERENCE_PARAMS)
        db.checkpoint()
        after = files_under(root / "predicates")
        assert {path: state for path, state in after.items()
                if path.parts[0] == "komondor"} == before
        assert any(path.parts[0] == "komondor_b" for path in after)
        manifest = json.loads((root / "database.json").read_text())
        repositories = {entry["name"]: entry["repository"]
                        for entry in manifest["predicates"]}
        assert repositories["komondor"] == "predicates/komondor/ckpt-0"
        assert repositories["komondor_b"].startswith(
            "predicates/komondor_b/ckpt-")

    def test_a_plain_save_rewrites_into_a_fresh_directory(self, db,
                                                          tmp_path):
        # Outside a checkpoint root nothing is durable to reuse: every save
        # writes the repositories afresh and prunes the superseded ones.
        copy = tmp_path / "copy"
        db.save(copy)
        db.save(copy)
        [version] = sorted((copy / "predicates" / "komondor").iterdir())
        assert version.name == "ckpt-1"
        with VisualDatabase.load(copy) as loaded:
            np.testing.assert_array_equal(loaded.execute(SQL).image_ids,
                                          db.execute(SQL).image_ids)


class TestOneArchivePerOwner:
    def test_a_checkpoint_writes_one_file_per_table_and_two_per_predicate(
            self, db, fresh_optimizer, tmp_path):
        root = tmp_path / "vdb"
        db.attach("other", make_corpus(8, seed=80))
        db.register_optimizer("komondor_b", fresh_optimizer(),
                              reference_params=REFERENCE_PARAMS)
        ingest(db, seed=78)
        db.execute(SQL)
        db.checkpoint()
        manifest = json.loads((root / "database.json").read_text())
        for entry in manifest["tables"]:
            assert sorted(path.name for path in
                          (root / entry["table_dir"]).iterdir()) == [
                "table.npz"]
        for entry in manifest["predicates"]:
            assert sorted(path.name for path in
                          (root / entry["repository"]).iterdir()) == [
                "repository.json", "weights.npz"]
        assert sorted(path.name for path in (root / "tables").iterdir()) \
            == ["images", "other"]
        assert sorted(path.name for path in
                      (root / "predicates").iterdir()) == [
            "komondor", "komondor_b"]


def fsynced_paths(monkeypatch) -> list:
    """Record the path behind every ``os.fsync`` from now on (by the
    descriptor ``os.open`` returned for it)."""
    opened, synced = {}, []
    real_open, real_fsync = os.open, os.fsync

    def recording_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened[fd] = Path(path)
        return fd

    def recording_fsync(fd):
        synced.append(opened.get(fd))
        return real_fsync(fd)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    return synced


class TestEverySaveIsDurable:
    def test_a_plain_save_fsyncs_its_archives_and_manifest(
            self, db, tmp_path, monkeypatch):
        # A save outside the WAL root is no checkpoint, but it is as
        # durable as one: each file it writes, the directories naming them
        # and the manifest (through its temp file) reach the disk.
        copy = tmp_path / "copy"
        db.execute(SQL)
        synced = fsynced_paths(monkeypatch)
        db.save(copy)
        monkeypatch.undo()
        table_dir = copy / "tables" / "images" / "ckpt-0"
        repository = copy / "predicates" / "komondor" / "ckpt-0"
        for path in (table_dir / "table.npz", table_dir,
                     repository / "weights.npz",
                     repository / "repository.json", repository,
                     copy / ".database.json.tmp", copy):
            assert synced.count(path) == 1, path
        assert len(synced) == 9  # and each image's parent directory
