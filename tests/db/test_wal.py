"""Tests for the segment-based storage engine's durability layer.

Covers the TableWal journal itself (payload-before-line, torn-tail
truncation, generations: rotate/prune), enable_wal/checkpoint/recovery on
VisualDatabase, the crash-recovery property (kill at *every* record boundary
between checkpoint and tail, replay, compare against an independent model of
the log), the save-vs-ingest race fixes, WAL-aware close(), segment compaction
and storage_stats, and the one-format contract of the loader.
"""

import json
import os
import shutil
import threading

import numpy as np
import pytest

from repro.data.corpus import CorpusSegment, ImageCorpus
from repro.db import RetentionPolicy, TableWal, VisualDatabase, connect
from repro.db.wal import wal_dir, wal_tables
from tests.conftest import TINY_SIZE


def timed_corpus(timestamps):
    """A corpus whose 'timestamp' column is exactly ``timestamps``."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    n = timestamps.size
    return ImageCorpus(
        images=np.random.default_rng(int(timestamps.sum()) % 1000).random(
            (n, TINY_SIZE, TINY_SIZE, 3)),
        metadata={"timestamp": timestamps,
                  "location": np.array(["detroit"] * n)})


def make_segment(timestamps):
    corpus = timed_corpus(timestamps)
    return CorpusSegment.build(corpus.images, corpus.metadata, corpus.content)


def table_state(database, table="cam"):
    """(image_id, timestamp) per surviving row, in row order."""
    return [(row["image_id"], row["timestamp"]) for row in
            database.execute(f"SELECT image_id, timestamp FROM {table}")]


class TestTableWal:
    def test_round_trip_segments_and_markers(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_segment(make_segment([1.0, 2.0]))
        wal.log_drop(1)
        wal.log_retention({"max_rows": 5, "max_age": None,
                           "timestamp_column": "timestamp"})
        wal.log_retention(None)
        wal.close()

        records = list(TableWal(tmp_path, "cam").records())
        assert [r["type"] for r in records] == ["segment", "drop",
                                               "retention", "retention"]
        segment = records[0]["segment"]
        assert isinstance(segment, CorpusSegment)
        np.testing.assert_array_equal(segment.metadata["timestamp"],
                                      [1.0, 2.0])
        assert records[1]["rows"] == 1
        assert records[2]["policy"]["max_rows"] == 5
        assert records[3]["policy"] is None

    def test_attach_record_carries_id_offset(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_attach(make_segment([1.0]), id_offset=7)
        wal.close()
        (record,) = TableWal(tmp_path, "cam").records()
        assert record["type"] == "attach"
        assert record["id_offset"] == 7

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_drop(1)
        wal.log_drop(2)
        wal.close()
        log = wal_dir(tmp_path, "cam") / "log-0.jsonl"
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"type": "drop", "ro')  # crash mid-append

        reopened = TableWal(tmp_path, "cam")
        assert [r["rows"] for r in reopened.records()] == [1, 2]
        # The reopen truncated the torn bytes; appending works again.
        reopened.log_drop(3)
        reopened.close()
        assert [r["rows"] for r in TableWal(tmp_path, "cam").records()] \
            == [1, 2, 3]

    def test_rotate_freezes_generation_and_prune_drops_it(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_segment(make_segment([1.0]))
        assert wal.rotate() == 1
        wal.log_drop(1)
        assert [r["generation"] for r in wal.records()] == [0, 1]
        # Replay floor: a checkpoint that absorbed generation 0 replays >= 1.
        assert [r["type"] for r in wal.records(from_generation=1)] == ["drop"]
        wal.prune(1)
        assert wal.generations() == [1]
        # The pruned generation's payload file went with its log.
        assert not list(wal_dir(tmp_path, "cam").glob("seg-0-*.npz"))
        wal.close()

    def test_records_stream_lazily(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_segment(make_segment([1.0]))
        wal.log_segment(make_segment([2.0]))
        wal.close()
        stream = TableWal(tmp_path, "cam").records()
        assert iter(stream) is stream  # a generator, not a prebuilt list
        first = next(stream)
        # The second segment's payload loads only when the stream reaches
        # it: replay memory tracks one record, not the whole tail.
        np.testing.assert_array_equal(first["segment"].metadata["timestamp"],
                                      [1.0])

    def test_record_count_tracks_append_rotate_prune(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_drop(1)
        wal.log_segment(make_segment([1.0]))
        assert wal.record_count() == 2
        wal.rotate()
        wal.log_drop(2)
        assert wal.record_count() == 3
        wal.prune(1)
        assert wal.record_count() == 1
        wal.close()
        # A reopened handle recounts from disk once, then tracks in memory.
        reopened = TableWal(tmp_path, "cam")
        assert reopened.record_count() == 1
        reopened.log_drop(3)
        assert reopened.record_count() == 2
        reopened.close()

    def test_close_is_idempotent_and_appends_after_close_raise(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.close()
        wal.close()
        assert wal.closed
        with pytest.raises(RuntimeError, match="closed"):
            wal.log_drop(1)

    def test_wal_tables_lists_table_directories(self, tmp_path):
        assert wal_tables(tmp_path) == []
        TableWal(tmp_path, "cam_b").close()
        TableWal(tmp_path, "cam_a").close()
        assert wal_tables(tmp_path) == ["cam_a", "cam_b"]


class TestEnableWal:
    def test_recovers_ingest_and_retention_without_checkpoint(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0, 1.0, 2.0, 3.0])})
        database.enable_wal(tmp_path / "vdb")
        database.set_retention("cam", RetentionPolicy(max_rows=6))
        database.ingest(*_batch([10.0, 11.0, 12.0]), table="cam")
        database.ingest(*_batch([13.0, 14.0]), table="cam")
        expected = table_state(database)
        assert [ts for _, ts in expected] == [2.0, 3.0, 10.0, 11.0,
                                              12.0, 13.0, 14.0][-6:]

        # Simulate a crash: no close(), no checkpoint — load from disk.
        recovered = VisualDatabase.load(tmp_path / "vdb")
        assert table_state(recovered) == expected
        assert recovered.retention_for("cam").max_rows == 6
        # Recovery re-arms the journal: further mutations stay durable.
        recovered.ingest(*_batch([15.0]), table="cam")
        again = VisualDatabase.load(tmp_path / "vdb")
        assert table_state(again) == table_state(recovered)

    def test_enable_wal_twice_raises(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0])})
        database.enable_wal(tmp_path / "vdb")
        with pytest.raises(RuntimeError, match="already enabled"):
            database.enable_wal(tmp_path / "other")

    def test_checkpoint_requires_wal(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0])})
        with pytest.raises(RuntimeError, match="enable_wal"):
            database.checkpoint()

    def test_checkpoint_prunes_log_and_bounds_replay(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        database.enable_wal(tmp_path / "vdb")
        for start in (10.0, 20.0, 30.0):
            database.ingest(*_batch([start, start + 1]), table="cam")
        before = database.executor_for("cam").wal.record_count()
        assert before >= 3
        database.checkpoint()
        wal = database.executor_for("cam").wal
        # The absorbed generations are gone; the live one is empty.
        assert wal.record_count() == 0
        database.ingest(*_batch([40.0]), table="cam")
        recovered = VisualDatabase.load(tmp_path / "vdb")
        assert table_state(recovered) == table_state(database)
        assert database.storage_stats()["checkpoints"] == 2

    def test_checkpoint_writes_fresh_image_and_prunes_old_one(self, tmp_path):
        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        database.enable_wal(root)
        [entry] = json.loads((root / "database.json").read_text())["tables"]
        old_image = root / entry["table_dir"]
        assert (old_image / "corpus.npz").exists()

        database.ingest(*_batch([2.0]), table="cam")
        database.checkpoint()
        [after] = json.loads((root / "database.json").read_text())["tables"]
        # Never in place: the checkpoint landed in a new image directory,
        # and the superseded one went only after the new manifest did.
        assert after["table_dir"] != entry["table_dir"]
        assert not old_image.exists()
        assert (root / after["corpus_file"]).exists()

    def test_crash_before_manifest_swap_stays_recoverable(self, tmp_path,
                                                          monkeypatch):
        # The high-severity review scenario: a checkpoint that dies before
        # its manifest lands must leave the *previous* manifest's image and
        # log generations untouched — recovery replays them, and the rows
        # the aborted checkpoint had absorbed are not double-applied.
        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        database.enable_wal(root)
        database.ingest(*_batch([2.0]), table="cam")
        database.checkpoint()
        database.ingest(*_batch([3.0]), table="cam")
        expected = table_state(database)

        real_replace = os.replace

        def crash_on_manifest(src, dst, *args, **kwargs):
            if str(dst).endswith("database.json"):
                raise OSError("simulated crash before manifest swap")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crash_on_manifest)
        with pytest.raises(OSError, match="simulated crash"):
            database.checkpoint()
        monkeypatch.undo()

        recovered = VisualDatabase.load(root)
        assert table_state(recovered) == expected

    def test_attach_detach_replace_survive_recovery(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0])})
        database.enable_wal(tmp_path / "vdb")
        database.attach("late", timed_corpus([5.0, 6.0]))
        database.ingest(*_batch([7.0]), table="late")
        database.detach("cam")
        database.register_corpus(timed_corpus([8.0]), name="late")

        recovered = VisualDatabase.load(tmp_path / "vdb")
        assert recovered.tables() == ["late"]
        assert table_state(recovered, "late") == [(0, 8.0)]
        # A detached table's log dir disappears at the next checkpoint.
        recovered.checkpoint()
        assert wal_tables(tmp_path / "vdb") == ["late"]

    def test_close_flushes_and_releases_wal_handles(self, tmp_path):
        # Satellite: close() must close WAL handles, and stay idempotent.
        database = connect({"cam": timed_corpus([0.0])})
        database.enable_wal(tmp_path / "vdb")
        database.ingest(*_batch([1.0]), table="cam")
        wal = database.executor_for("cam").wal
        expected = table_state(database)
        database.close()
        assert wal.closed
        database.close()  # double-close: no error, no re-journaling
        recovered = VisualDatabase.load(tmp_path / "vdb")
        assert table_state(recovered) == expected
        # close() is not detach(): no tombstone was journaled.
        assert recovered.tables() == ["cam"]

    def test_materialized_labels_survive_checkpoint(self, tmp_path,
                                                    tiny_optimizer,
                                                    tiny_device):
        from repro.core.selector import UserConstraints
        from tests.db.test_retention import REFERENCE_PARAMS, make_corpus

        database = connect({"cam": make_corpus(10, seed=3)},
                           device=tiny_device, calibrate_target_fps=None)
        database.register_optimizer("komondor", tiny_optimizer,
                                    reference_params=REFERENCE_PARAMS)
        sql = "SELECT image_id FROM cam WHERE contains_object(komondor)"
        constraints = UserConstraints(max_accuracy_loss=0.1)
        expected = [row["image_id"] for row in
                    database.execute(sql, constraints)]
        database.enable_wal(tmp_path / "vdb")  # checkpoint carries the labels

        recovered = VisualDatabase.load(tmp_path / "vdb")
        stats = recovered.storage_stats()["tables"]["cam"]
        assert stats["materialized_columns"] >= 1
        assert [row["image_id"] for row in
                recovered.execute(sql, constraints)] == expected


def _batch(timestamps):
    corpus = timed_corpus(timestamps)
    return corpus.images, dict(corpus.metadata)


class TestCrashRecoveryProperty:
    """Kill the database at *every* WAL record boundary and recover.

    The reference is an independent model of the log: a plain list of
    (id, timestamp) rows that applies segment/drop/retention records by
    hand.  The model's final state is anchored against the live (uncrashed)
    database, so the log's *content* is verified too — then every prefix of
    the log must recover to the model's state at that prefix.
    """

    def test_every_record_boundary_recovers(self, tmp_path):
        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0, 1.0, 2.0, 3.0])})
        database.enable_wal(root)
        database.set_retention("cam",
                               RetentionPolicy(max_rows=8,
                                               timestamp_column="timestamp"))
        clock = 10.0
        rng = np.random.default_rng(42)
        for size in (3, 1, 4, 2, 3):  # N ingests; drops interleave via policy
            database.ingest(*_batch(clock + np.arange(size)), table="cam")
            clock += 10.0
        database.retain()  # an explicit M-th retention sweep (no-op or drop)
        database.set_retention("cam", RetentionPolicy(max_rows=5))
        database.retain()

        wal = database.executor_for("cam").wal
        generation = wal.generation
        records = list(wal.records(from_generation=generation))
        assert len(records) >= 9  # segments + drops + retention markers

        # Model: checkpoint image (enable_wal's) + the log applied by hand.
        rows = [(i, float(i)) for i in range(4)]
        next_id = 4
        snapshots = [list(rows)]
        for record in records:
            if record["type"] == "segment":
                for ts in record["segment"].metadata["timestamp"]:
                    rows.append((next_id, float(ts)))
                    next_id += 1
            elif record["type"] == "drop":
                rows = rows[record["rows"]:]
            snapshots.append(list(rows))
        assert snapshots[-1] == table_state(database)  # anchor the log

        log_name = f"log-{generation}.jsonl"
        log_lines = (wal_dir(root, "cam") / log_name).read_bytes() \
            .splitlines(keepends=True)
        assert len(log_lines) == len(records)

        for boundary in range(len(records) + 1):
            crashed = tmp_path / f"crash-{boundary}"
            shutil.copytree(root, crashed)
            # Kill at this record boundary: the log ends mid-stream.  A
            # stray half-line beyond it simulates the torn final append.
            with open(wal_dir(crashed, "cam") / log_name, "wb") as handle:
                handle.write(b"".join(log_lines[:boundary]))
                if boundary < len(records):
                    handle.write(log_lines[boundary][:7])
            recovered = VisualDatabase.load(crashed)
            assert table_state(recovered) == snapshots[boundary], \
                f"divergence at record boundary {boundary}"
            recovered.close()


class TestSaveVsIngestRace:
    def test_save_during_concurrent_ingest_is_consistent(self, tmp_path):
        # Satellite: each table is captured under its shard lock, so a save
        # taken mid-ingest never interleaves a half-applied mutation.
        database = connect({"cam": timed_corpus([0.0, 1.0])},
                           retention=RetentionPolicy(max_rows=12))
        stop = threading.Event()
        errors = []

        def churn():
            clock = 100.0
            try:
                while not stop.is_set():
                    database.ingest(*_batch([clock, clock + 1]), table="cam")
                    clock += 10.0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for index in range(5):
                path = tmp_path / f"save-{index}"
                database.save(path)
                loaded = VisualDatabase.load(path)
                state = table_state(loaded)
                # Internally consistent: ids contiguous, window respected.
                ids = [image_id for image_id, _ in state]
                assert ids == list(range(ids[0], ids[0] + len(ids)))
                assert len(ids) <= 12
                loaded.close()
        finally:
            stop.set()
            thread.join()
        assert errors == []


@pytest.mark.parametrize("checkpoint", [False, True],
                         ids=["save", "checkpoint"])
def test_save_racing_retention_keeps_representations_row_aligned(
        tmp_path, monkeypatch, tiny_optimizer, tiny_device, checkpoint):
    # An ingest that drops rows lands at the moment the save reads the
    # store's arrays.  Corpus and arrays must still come from one instant:
    # with the arrays picked outside the shard lock, store.npz was persisted
    # shifted by the dropped rows against corpus.npz (equal length, so it
    # loaded) and queries classified the wrong rows' representations.
    from repro.core.selector import UserConstraints
    from repro.storage.store import RepresentationStore
    from tests.db.test_retention import REFERENCE_PARAMS, make_corpus

    window, fresh = 20, make_corpus(6, seed=12, positive_rate=0.5)
    database = connect({"cam": make_corpus(window, seed=11,
                                           positive_rate=0.5)},
                       device=tiny_device, scenario="ongoing",
                       calibrate_target_fps=None,
                       default_constraints=UserConstraints(
                           max_accuracy_loss=0.1),
                       retention=RetentionPolicy(max_rows=window))
    database.register_optimizer("komondor", tiny_optimizer,
                                reference_params=REFERENCE_PARAMS)
    sql = "SELECT image_id FROM cam WHERE contains_object(komondor)"
    database.execute(sql)  # ONGOING: materializes + registers the specs
    root = tmp_path / "vdb"
    if checkpoint:
        database.enable_wal(root)

    reading_arrays = threading.Event()
    errors = []

    def ingest_when_released():
        reading_arrays.wait(timeout=10)
        try:
            database.ingest(fresh.images, metadata=fresh.metadata,
                            table="cam")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=ingest_when_released)
    arrays_by_recency = RepresentationStore.arrays_by_recency

    def release_ingest_mid_read(store):
        pairs = arrays_by_recency(store)
        if not reading_arrays.is_set():
            reading_arrays.set()
            # Long enough for an unlocked read to lose the race; a read
            # under the shard lock just keeps the ingest waiting.
            thread.join(timeout=0.3)
        return pairs

    monkeypatch.setattr(RepresentationStore, "arrays_by_recency",
                        release_ingest_mid_read)
    thread.start()
    try:
        if checkpoint:
            database.checkpoint()
        else:
            database.save(root)
    finally:
        reading_arrays.set()
        thread.join(timeout=10)
    monkeypatch.undo()
    assert not thread.is_alive() and errors == []
    assert database.executor_for("cam").id_offset == len(fresh)

    loaded = VisualDatabase.load(root)
    executor = loaded.executor_for("cam")
    images = loaded.corpus_for("cam").images
    stored = executor.store.arrays_by_recency()
    assert stored
    for spec, array in stored:
        np.testing.assert_array_equal(
            array, spec.apply_batch(images)[:array.shape[0]])
    # Re-classify every row from the stored representations.
    executor.invalidate()
    cascade = loaded.explain(sql).content_steps[0].evaluation.cascade
    np.testing.assert_array_equal(
        loaded.execute(sql).image_ids,
        np.flatnonzero(cascade.classify(images)) + executor.id_offset)
    loaded.close()
    database.close()


class TestSegmentsAndCompaction:
    def test_ingest_appends_segments_and_compact_folds_them(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        for start in (10.0, 20.0, 30.0):
            database.ingest(*_batch([start]), table="cam")
        stats = database.storage_stats()
        assert stats["tables"]["cam"]["segments"] == 4
        folded = database.compact()
        assert folded == {"cam": 3}
        assert database.storage_stats()["tables"]["cam"]["segments"] == 1
        # Row order, ids and values are untouched by compaction.
        assert table_state(database) == [(0, 0.0), (1, 1.0), (2, 10.0),
                                         (3, 20.0), (4, 30.0)]

    def test_compact_min_rows_leaves_large_segments_alone(self):
        corpus = ImageCorpus(
            images=np.zeros((8, TINY_SIZE, TINY_SIZE, 3)),
            metadata={"timestamp": np.arange(8.0)})
        for start in (10.0, 11.0, 12.0):
            corpus.append(np.zeros((1, TINY_SIZE, TINY_SIZE, 3)),
                          metadata={"timestamp": np.array([start])})
        assert corpus.segment_count == 4
        corpus.compact(min_rows=4)  # folds only the run of 1-row segments
        assert corpus.segment_rows() == [8, 3]

    def test_retention_aligned_to_segments_drops_whole_segments(self):
        policy = RetentionPolicy(max_rows=4, align_to_segments=True)
        corpus = ImageCorpus(
            images=np.zeros((3, TINY_SIZE, TINY_SIZE, 3)),
            metadata={"timestamp": np.arange(3.0)})
        corpus.append(np.zeros((3, TINY_SIZE, TINY_SIZE, 3)),
                      metadata={"timestamp": np.arange(3.0, 6.0)})
        # Exact semantics would drop 2 rows; alignment rounds down to 0
        # (mid-segment) so no segment is split.
        assert policy.rows_to_drop(corpus) == 0
        corpus.append(np.zeros((2, TINY_SIZE, TINY_SIZE, 3)),
                      metadata={"timestamp": np.arange(6.0, 8.0)})
        # Now the first whole segment (3 rows <= 4 excess) can go.
        assert policy.rows_to_drop(corpus) == 3
        assert RetentionPolicy.from_dict(policy.to_dict()) == policy

    def test_storage_stats_shape(self, tmp_path):
        database = connect({"cam": timed_corpus([0.0])})
        stats = database.storage_stats()
        assert stats["wal_enabled"] is False
        assert stats["checkpoints"] == 0
        assert set(stats["tables"]) == {"cam"}
        assert stats["tables"]["cam"]["wal_records"] is None
        database.enable_wal(tmp_path / "vdb")
        stats = database.storage_stats()
        assert stats["wal_enabled"] is True
        assert stats["checkpoints"] == 1
        assert stats["tables"]["cam"]["wal_records"] == 0


class TestFormatCompatibility:
    def _manifest(self, root):
        return json.loads((root / "database.json").read_text())

    def test_unknown_format_rejected(self, tmp_path):
        # One format is read: the one written.  Older layouts (1: single
        # corpus, 2: multi-table, 3: retention, no WAL) and newer ones are
        # refused alike, and the message says which version was found.
        database = connect({"cam": timed_corpus([0.0])})
        root = database.save(tmp_path / "vdb")
        manifest = self._manifest(root)
        for version in (1, 2, 3, 99):
            manifest["format_version"] = version
            (root / "database.json").write_text(json.dumps(manifest))
            with pytest.raises(
                    ValueError,
                    match=rf"unsupported database format {version}\b"):
                VisualDatabase.load(root)

    def test_written_manifest_is_the_v4_contract(self, tmp_path):
        # The loader reads exactly what the writer writes, so the writer's
        # key sets are the on-disk contract: a writer change shows up here
        # as a diff, and directories written by earlier commits keep loading
        # for as long as these lists do not move.
        database = connect({"cam": timed_corpus([0.0, 1.0, 2.0])},
                           retention={"cam": RetentionPolicy(max_rows=8)})
        database.ingest(*_batch([3.0]), table="cam")
        root = database.save(tmp_path / "vdb")
        manifest = self._manifest(root)
        assert manifest["format_version"] == 4
        assert sorted(manifest) == [
            "calibrate_target_fps", "cost_resolution", "default_constraints",
            "device", "device_calibrated", "format_version", "predicates",
            "scenario", "source_resolution", "store", "tables", "wal"]
        table_keys = ["corpus_file", "id_offset", "materialized", "name",
                      "registered_specs", "retention", "store_arrays",
                      "table_dir"]
        [entry] = manifest["tables"]
        assert sorted(entry) == table_keys
        assert manifest["wal"] == {"enabled": False}
        assert manifest["store"] == {"byte_budget": None}

        loaded = VisualDatabase.load(root)
        assert table_state(loaded) == table_state(database)
        assert loaded.retention_for("cam") == RetentionPolicy(max_rows=8)

        # A checkpoint adds the table's replay floor and nothing else.
        loaded.enable_wal(tmp_path / "ckpt")
        checkpoint = self._manifest(tmp_path / "ckpt")
        assert sorted(checkpoint) == sorted(manifest)
        assert checkpoint["wal"] == {"enabled": True}
        [entry] = checkpoint["tables"]
        assert sorted(entry) == sorted(table_keys + ["wal_generation"])
        loaded.close()
        with VisualDatabase.load(tmp_path / "ckpt") as recovered:
            assert table_state(recovered) == table_state(database)
