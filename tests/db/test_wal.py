"""Tests for the segment-based storage engine's durability layer.

Covers the TableWal journal itself (one fsynced frame per record, its bytes
against the ``write_array`` writer it replaced, torn-tail truncation, a
failed append cut back off the log, generations: rotate/prune),
enable_wal/checkpoint/recovery on VisualDatabase, the crash-recovery
property (cut the log at every record boundary *and inside every frame*
between checkpoint and tail, replay, compare against an independent model
of the log), the save-vs-ingest race fixes, WAL-aware close(), lazy segment
consolidation and storage_stats, and the one-format contract of the loader.
"""

import errno
import io
import json
import os
import shutil
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.data.corpus import CorpusSegment, ImageCorpus
from repro.db import RetentionPolicy, TableWal, VisualDatabase, connect
from repro.db.wal import wal_dir, wal_tables
from repro.transforms.spec import TransformSpec
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


# The frame layout, restated here on purpose: the tests find and build
# frames without TableWal, so they check the format instead of mirroring it.
_FRAME_HEADER = struct.Struct("<4sQI")  # magic, body length, crc32(body)


def frame_spans(log_bytes):
    """``[(start, end)]`` of every frame in a log file's bytes."""
    spans, start = [], 0
    while start < len(log_bytes):
        magic, length, checksum = _FRAME_HEADER.unpack_from(log_bytes, start)
        end = start + _FRAME_HEADER.size + length
        assert magic == b"RWAL"
        assert zlib.crc32(log_bytes[start + _FRAME_HEADER.size:end]) \
            == checksum
        spans.append((start, end))
        start = end
    return spans


def flip_bit(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


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
        log = wal_dir(tmp_path, "cam") / "log-0.wal"
        intact = log.stat().st_size
        wal.log_drop(3)
        wal.close()
        os.truncate(log, log.stat().st_size - 3)  # crash mid-append

        reopened = TableWal(tmp_path, "cam")
        assert [r["rows"] for r in reopened.records()] == [1, 2]
        # The reopen truncated the torn frame; appending works again.
        assert log.stat().st_size == intact
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
        # Nothing of the pruned generation is left: a record is part of its
        # log file, not a file of its own.
        assert [entry.name for entry in wal_dir(tmp_path, "cam").iterdir()] \
            == ["log-1.wal"]
        wal.close()

    def test_one_record_is_one_fsync_and_no_new_file(self, tmp_path,
                                                     monkeypatch):
        wal = TableWal(tmp_path, "cam")
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        listing = sorted(wal_dir(tmp_path, "cam").iterdir())
        wal.log_segment(make_segment([1.0, 2.0]))
        assert len(synced) == 1
        wal.log_drop(1)
        assert len(synced) == 2
        assert sorted(wal_dir(tmp_path, "cam").iterdir()) == listing
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


def oracle_frame(record, arrays):
    """The frame writer the format was defined by: the whole frame built in
    a ``BytesIO``, each array through ``np.lib.format.write_array``."""
    buffer = io.BytesIO()
    buffer.write(json.dumps(record).encode("utf-8") + b"\n")
    for array in arrays.values():
        np.lib.format.write_array(buffer, array, allow_pickle=False)
    body = buffer.getvalue()
    return _FRAME_HEADER.pack(b"RWAL", len(body), zlib.crc32(body)) + body


def segment_frame(segment):
    arrays = segment.to_arrays()
    return oracle_frame({"type": "segment", "rows": len(segment),
                         "arrays": list(arrays)}, arrays)


def _oracle_segments():
    rng = np.random.default_rng(3)
    images = rng.random((4, TINY_SIZE, TINY_SIZE, 3))
    wide = rng.random((4, 2 * TINY_SIZE, TINY_SIZE, 3))
    return {
        "images_unicode_bool": CorpusSegment.build(
            images,
            {"timestamp": np.arange(4.0),
             "location": np.array(["détroit", "москва", "東京", ""])},
            {"contains_car": np.array([True, False, False, True])}),
        "non_contiguous": CorpusSegment(
            images=wide[:, ::2], metadata={"timestamp": np.arange(8.0)[::2]},
            content={}),
        "fortran_order": CorpusSegment(
            images=np.asfortranarray(images), metadata={},
            content={"count": np.arange(4, dtype=np.int32)}),
    }


ORACLE_SEGMENTS = _oracle_segments()


def assert_segments_equal(left, right):
    left, right = left.to_arrays(), right.to_arrays()
    assert left.keys() == right.keys()
    for name, array in left.items():
        assert array.dtype == right[name].dtype
        np.testing.assert_array_equal(array, right[name])


class TestFrameBytes:
    """Frames are the bytes the ``BytesIO`` + ``write_array`` writer made,
    whether the kernel takes a frame in one ``writev`` or in many."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SEGMENTS))
    def test_segment_frame_matches_oracle(self, tmp_path, name):
        segment = ORACLE_SEGMENTS[name]
        wal = TableWal(tmp_path, "cam")
        wal.log_segment(segment)
        wal.close()
        log = wal_dir(tmp_path, "cam") / "log-0.wal"
        assert log.read_bytes() == segment_frame(segment)
        (record,) = TableWal(tmp_path, "cam").records()
        assert_segments_equal(record["segment"], segment)

    def test_marker_frames_match_oracle(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_drop(2)
        wal.log_retention({"max_rows": 5, "max_age": None,
                           "timestamp_column": "horodatage"})
        wal.log_detach()
        wal.close()
        assert (wal_dir(tmp_path, "cam") / "log-0.wal").read_bytes() == (
            oracle_frame({"type": "drop", "rows": 2}, {})
            + oracle_frame({"type": "retention",
                            "policy": {"max_rows": 5, "max_age": None,
                                       "timestamp_column": "horodatage"}},
                           {})
            + oracle_frame({"type": "detach"}, {}))

    def test_short_writes_complete_the_frame(self, tmp_path, monkeypatch):
        calls = []

        def short_writev(fd, buffers):
            chunk = b"".join(bytes(buffer) for buffer in buffers)[:1000]
            calls.append(len(chunk))
            return os.write(fd, chunk)

        wal = TableWal(tmp_path, "cam")
        monkeypatch.setattr(os, "writev", short_writev)
        segments = [ORACLE_SEGMENTS[name] for name in sorted(ORACLE_SEGMENTS)]
        for segment in segments:
            wal.log_segment(segment)
        wal.close()
        assert len(calls) > 2 * len(segments)
        assert max(calls) <= 1000
        log = wal_dir(tmp_path, "cam") / "log-0.wal"
        assert log.read_bytes() == b"".join(map(segment_frame, segments))
        records = list(TableWal(tmp_path, "cam").records())
        for record, segment in zip(records, segments, strict=True):
            assert_segments_equal(record["segment"], segment)

    def test_decoded_arrays_are_read_only(self, tmp_path):
        wal = TableWal(tmp_path, "cam")
        wal.log_segment(ORACLE_SEGMENTS["images_unicode_bool"])
        wal.close()
        (record,) = TableWal(tmp_path, "cam").records()
        for name, array in record["segment"].to_arrays().items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


class TestFailedAppend:
    """An append that fails leaves the log as it was before the frame and
    refuses later appends until the table is reopened."""

    @pytest.mark.parametrize("failure", ["torn_writev", "fsync"])
    def test_failed_append_is_cut_off_and_poisons(self, tmp_path,
                                                   monkeypatch, failure):
        wal = TableWal(tmp_path, "cam")
        wal.log_segment(make_segment([1.0, 2.0]))
        wal.log_drop(1)
        log = wal_dir(tmp_path, "cam") / "log-0.wal"
        intact = log.read_bytes()
        sizes = []  # the log's size when the fault strikes

        def torn_writev(fd, buffers):
            # Half the frame reaches the file, then the device is full.
            frame = b"".join(bytes(buffer) for buffer in buffers)
            os.write(fd, frame[:len(frame) // 2])
            sizes.append(os.fstat(fd).st_size)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def failing_fsync(fd):
            sizes.append(os.fstat(fd).st_size)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        with monkeypatch.context() as patch:
            if failure == "torn_writev":
                patch.setattr(os, "writev", torn_writev)
            else:
                patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError):
                wal.log_segment(make_segment([3.0]))
        # The failed frame reached the file, and was cut back off it.
        assert sizes and sizes[0] > len(intact)
        assert log.read_bytes() == intact
        with pytest.raises(RuntimeError, match="failed an append"):
            wal.log_drop(1)
        with pytest.raises(RuntimeError, match="failed an append"):
            wal.log_retention(None)
        assert log.read_bytes() == intact
        assert wal.record_count() == 2
        wal.close()

        reopened = TableWal(tmp_path, "cam")
        records = list(reopened.records())
        assert [r["type"] for r in records] == ["segment", "drop"]
        np.testing.assert_array_equal(
            records[0]["segment"].metadata["timestamp"], [1.0, 2.0])
        reopened.log_drop(2)
        reopened.close()
        assert [r.get("rows") for r in TableWal(tmp_path, "cam").records()] \
            == [2, 1, 2]


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
        assert recovered.executor_for("cam").retention.max_rows == 6
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
        assert (old_image / "table.npz").exists()

        database.ingest(*_batch([2.0]), table="cam")
        database.checkpoint()
        [after] = json.loads((root / "database.json").read_text())["tables"]
        # Never in place: the checkpoint landed in a new image directory,
        # and the superseded one went only after the new manifest did.
        assert after["table_dir"] != entry["table_dir"]
        assert not old_image.exists()
        assert (root / after["table_dir"] / "table.npz").exists()

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

    def test_damaged_rotated_generation_refuses_to_load(self, tmp_path,
                                                        monkeypatch):
        # Only the active generation's final append can tear; a rotate froze
        # the others complete, so a bad frame there is corruption — not a
        # tail to stop at quietly before carrying on with the next log.
        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        database.enable_wal(root)
        generation = database.executor_for("cam").wal.generation
        database.ingest(*_batch([2.0]), table="cam")
        database.ingest(*_batch([3.0]), table="cam")
        # A checkpoint that rotates, then dies before its manifest lands:
        # the old manifest still replays the now-frozen generation.
        monkeypatch.setattr(os, "replace", _raise_os_error)
        with pytest.raises(OSError):
            database.checkpoint()
        monkeypatch.undo()
        database.ingest(*_batch([4.0]), table="cam")
        expected = table_state(database)
        database.close()
        with VisualDatabase.load(root) as recovered:
            assert table_state(recovered) == expected

        log = wal_dir(root, "cam") / f"log-{generation}.wal"
        (_, second), _ = frame_spans(log.read_bytes())
        flip_bit(log, second + _FRAME_HEADER.size + 40)
        with pytest.raises(ValueError,
                           match=rf"log-{generation}\.wal.* byte {second}\b"):
            VisualDatabase.load(root)

    def test_damaged_final_frame_is_a_torn_tail(self, tmp_path):
        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        database.enable_wal(root)
        database.ingest(*_batch([2.0]), table="cam")
        before_last = table_state(database)
        database.ingest(*_batch([3.0, 4.0]), table="cam")
        wal = database.executor_for("cam").wal
        log = wal_dir(root, "cam") / f"log-{wal.generation}.wal"
        database.close()
        (_, last), (_, end) = frame_spans(log.read_bytes())
        flip_bit(log, end - 9)  # inside the last frame's final array

        recovered = VisualDatabase.load(root)
        assert table_state(recovered) == before_last
        assert log.stat().st_size == last  # truncated back to a boundary
        recovered.ingest(*_batch([5.0]), table="cam")
        expected = table_state(recovered)
        recovered.close()
        assert len(frame_spans(log.read_bytes())) == 2
        with VisualDatabase.load(root) as again:
            assert table_state(again) == expected

    def test_unknown_record_type_refuses_to_load(self, tmp_path):
        # Recovery never skips a journaled mutation it cannot apply.
        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0])})
        database.enable_wal(root)
        wal = database.executor_for("cam").wal
        database.close()
        body = b'{"type": "vacuum"}\n'
        with open(wal_dir(root, "cam") / f"log-{wal.generation}.wal",
                  "ab") as handle:
            handle.write(_FRAME_HEADER.pack(b"RWAL", len(body),
                                            zlib.crc32(body)) + body)
        with pytest.raises(ValueError, match="'vacuum'.*'cam'"):
            VisualDatabase.load(root)

    def test_each_record_is_applied_before_the_next_is_read(
            self, tmp_path, monkeypatch):
        # Replay holds one segment's arrays at a time: the lazy record
        # stream and the executor's replay alternate, one record each.
        from repro.db.executor import QueryExecutor

        root = tmp_path / "vdb"
        database = connect({"cam": timed_corpus([0.0])},
                           retention=RetentionPolicy(max_rows=4))
        database.enable_wal(root)
        for step in range(6):
            database.ingest(*_batch([10.0 + step]), table="cam")
        database.set_retention("cam", RetentionPolicy(max_rows=2))
        database.retain()
        wal = database.executor_for("cam").wal
        kinds = [record["type"] for record in
                 wal.records(from_generation=wal.generation)]
        assert kinds == ["segment"] * 6 + ["retention", "drop"]

        events = []
        records = TableWal.records
        replay_wal = QueryExecutor.replay_wal

        def reading(wal, *args, **kwargs):
            for record in records(wal, *args, **kwargs):
                events.append(("read", record["type"]))
                yield record

        def applying(executor, batch):
            assert isinstance(batch, list)
            events.extend(("apply", record["type"]) for record in batch)
            return replay_wal(executor, batch)

        monkeypatch.setattr(TableWal, "records", reading)
        monkeypatch.setattr(QueryExecutor, "replay_wal", applying)
        with VisualDatabase.load(root) as recovered:
            assert table_state(recovered) == table_state(database)
        assert events == [event for kind in kinds
                          for event in (("read", kind), ("apply", kind))]
        database.close()

    def test_ingest_past_the_window_journals_one_record(self, tmp_path):
        # An ingest's retention drop is derived from its segment on replay,
        # so N batches past a full window journal N records, not 2N.
        database = connect({"cam": timed_corpus(np.arange(8.0))},
                           retention=RetentionPolicy(max_rows=8))
        database.enable_wal(tmp_path / "vdb")
        wal = database.executor_for("cam").wal
        for step in range(40):
            database.ingest(*_batch([10.0 + step]), table="cam")
        assert wal.record_count() == 40
        assert database.executor_for("cam").id_offset == 40
        with VisualDatabase.load(tmp_path / "vdb") as recovered:
            assert table_state(recovered) == table_state(database)
            assert len(table_state(recovered)) == 8
        database.close()

    def test_explicit_sweep_is_journaled(self, tmp_path):
        # Why retain() still writes a drop record: the policy changed after
        # the sweep, so replaying the later segment under the new policy
        # alone would keep rows the sweep had dropped.
        database = connect({"cam": timed_corpus(np.arange(6.0))})
        database.enable_wal(tmp_path / "vdb")
        database.set_retention("cam", RetentionPolicy(max_rows=3))
        assert database.retain() == {"cam": 3}
        database.set_retention("cam", RetentionPolicy(max_rows=10))
        database.ingest(*_batch([10.0, 11.0]), table="cam")
        expected = table_state(database)
        assert expected == [(3, 3.0), (4, 4.0), (5, 5.0),
                            (6, 10.0), (7, 11.0)]
        # A crash: no close(), no checkpoint.
        recovered = VisualDatabase.load(tmp_path / "vdb")
        assert table_state(recovered) == expected
        assert recovered.executor_for("cam").id_offset == 3

    def test_policy_the_corpus_cannot_evaluate_is_refused(self, tmp_path):
        # Replay re-derives every ingest's drop from the policy, so one that
        # raises on this corpus is refused before it is journaled; the log
        # stays recoverable.
        broken = RetentionPolicy(max_age=1.0, timestamp_column="recorded_at")
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        database.enable_wal(tmp_path / "vdb")
        with pytest.raises(KeyError, match="recorded_at"):
            database.set_retention("cam", broken)
        with pytest.raises(KeyError, match="recorded_at"):
            database.attach("late", timed_corpus([0.0]), retention=broken)
        assert database.executor_for("cam").retention is None
        assert database.tables() == ["cam"]
        database.ingest(*_batch([2.0]), table="cam")
        with VisualDatabase.load(tmp_path / "vdb") as recovered:
            assert table_state(recovered) == table_state(database)
        database.close()

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

    def test_closed_database_cannot_wipe_its_wal_root(self, tmp_path):
        # A save after close() used to checkpoint the emptied catalog into
        # the WAL root and prune every table image and journal under it.
        database = connect({"cam": timed_corpus([0.0])},
                           retention=RetentionPolicy(max_rows=8))
        root = database.enable_wal(tmp_path / "vdb")
        database.ingest(*_batch([1.0, 2.0]), table="cam")
        expected = table_state(database)
        database.close()
        for call in (lambda: database.save(root),
                     lambda: database.detach("cam"),
                     lambda: database.set_retention("cam", None),
                     lambda: database.retain()):
            with pytest.raises(RuntimeError, match="closed"):
                call()
        recovered = VisualDatabase.load(root)
        assert recovered.tables() == ["cam"]
        assert table_state(recovered) == expected
        assert (recovered.executor_for("cam").retention
                == RetentionPolicy(max_rows=8))

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


def _raise_os_error(*args, **kwargs):
    raise OSError("simulated crash")


class TestCrashRecoveryProperty:
    """Kill the database at *every* WAL record boundary — and inside every
    frame — and recover.

    The reference is an independent model of the log: a plain list of
    (id, timestamp) rows that applies segment/drop/retention records by
    hand, re-deriving each segment's retention drop from the last
    ``retention`` record.  The model's final state is anchored against the
    live (uncrashed) database, so the log's *content* is verified too —
    then every cut of the log must recover to the model's state at its last
    complete record, and no cut may hold more rows than the window the last
    ingest or sweep enforced.
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
        # Segments + retention markers + the one sweep that drops rows.
        assert [record["type"] for record in records] == (
            ["retention"] + ["segment"] * 5 + ["retention", "drop"])

        # Model: checkpoint image (enable_wal's) + the log applied by hand.
        rows = [(i, float(i)) for i in range(4)]
        next_id = 4
        max_rows = window = None  # the policy; the limit last enforced
        snapshots, windows = [list(rows)], [window]
        for record in records:
            if record["type"] == "segment":
                for ts in record["segment"].metadata["timestamp"]:
                    rows.append((next_id, float(ts)))
                    next_id += 1
                if max_rows is not None:
                    rows = rows[max(0, len(rows) - max_rows):]
                window = max_rows
            elif record["type"] == "drop":
                rows = rows[record["rows"]:]
                window = max_rows
            elif record["type"] == "retention":
                max_rows = record["policy"]["max_rows"]
            snapshots.append(list(rows))
            windows.append(window)
        assert snapshots[-1] == table_state(database)  # anchor the log

        log_name = f"log-{generation}.wal"
        log_bytes = (wal_dir(root, "cam") / log_name).read_bytes()
        spans = frame_spans(log_bytes)
        assert len(spans) == len(records)
        database.close()

        def recover(data, label):
            crashed = tmp_path / f"crash-{label}"
            shutil.copytree(root, crashed)
            (wal_dir(crashed, "cam") / log_name).write_bytes(data)
            with VisualDatabase.load(crashed) as recovered:
                return table_state(recovered)

        header = _FRAME_HEADER.size
        for index, (start, end) in enumerate(spans):
            # Kill before this record (a clean boundary), then inside each
            # byte class of its frame: mid-header, one byte into the body,
            # mid-array, one byte short of complete.
            for cut in sorted({start, start + header // 2, start + header + 1,
                               (start + header + end) // 2, end - 1}):
                state = recover(log_bytes[:cut], cut)
                assert state == snapshots[index], \
                    f"divergence cutting record {index} at byte {cut}"
                assert windows[index] is None \
                    or len(state) <= windows[index], \
                    f"cut at byte {cut} recovers past the window"
        assert recover(log_bytes, "whole") == snapshots[-1]
        # Not a short write but a damaged one: the frame is all there and
        # one bit of it is wrong.  Only the checksum can tell.
        damaged = bytearray(log_bytes)
        damaged[(spans[-1][0] + header + len(damaged)) // 2] ^= 0x10
        assert recover(bytes(damaged), "bitflip") == snapshots[-2]


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
    # with the arrays picked outside the shard lock, the stored arrays were
    # persisted shifted by the dropped rows against the corpus (equal
    # length, so they loaded) and queries classified the wrong rows'
    # representations.
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
    for spec, array, _ in stored:
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
    def test_ingest_appends_segments_and_a_read_folds_them(self):
        database = connect({"cam": timed_corpus([0.0, 1.0])})
        for start in (10.0, 20.0, 30.0):
            database.ingest(*_batch([start]), table="cam")
        stats = database.storage_stats()
        assert stats["tables"]["cam"]["segments"] == 4
        # The first read of the images (any query's snapshot capture)
        # consolidates; row order, ids and values are untouched.
        assert table_state(database) == [(0, 0.0), (1, 1.0), (2, 10.0),
                                         (3, 20.0), (4, 30.0)]
        assert database.storage_stats()["tables"]["cam"]["segments"] == 1

    def test_saved_segment_alignment_flag_loads_as_exact_rows(self):
        # Policies saved before the flag was deleted may carry its key.
        policy = RetentionPolicy.from_dict(
            {"max_rows": 4, "max_age": None, "timestamp_column": "timestamp",
             "align_to_segments": True})
        assert policy == RetentionPolicy(max_rows=4)
        corpus = ImageCorpus(
            images=np.zeros((3, TINY_SIZE, TINY_SIZE, 3)),
            metadata={"timestamp": np.arange(3.0)})
        corpus.append(np.zeros((3, TINY_SIZE, TINY_SIZE, 3)),
                      metadata={"timestamp": np.arange(3.0, 6.0)})
        assert policy.rows_to_drop(corpus) == 2  # mid-segment: exact rows

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
        # corpus, 2: multi-table, 3: retention, no WAL, 4: WAL records as a
        # JSON line plus an array file, 5: one-value scenario and spec keys,
        # 6: predicate repositories rewritten in place, 7: a registration
        # list beside the store arrays, 8: three archives per table and one
        # per network, 9: a drop record beside every segment that pushed a
        # table past its window) and newer ones are refused alike, and the
        # message says which version was found.
        database = connect({"cam": timed_corpus([0.0])})
        root = database.save(tmp_path / "vdb")
        manifest = self._manifest(root)
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 9, 99):
            manifest["format_version"] = version
            (root / "database.json").write_text(json.dumps(manifest))
            with pytest.raises(
                    ValueError,
                    match=rf"unsupported database format {version}\b"):
                VisualDatabase.load(root)
        # The refusal names the last commit whose checkout reads format 9,
        # and the ones before for formats 8 and 7.
        manifest["format_version"] = 9
        (root / "database.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"996fcce.*format 9"):
            VisualDatabase.load(root)
        manifest["format_version"] = 8
        (root / "database.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"888284b for format 8"):
            VisualDatabase.load(root)
        manifest["format_version"] = 7
        (root / "database.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"765ede0 for format 7"):
            VisualDatabase.load(root)

    def test_written_manifest_is_the_v10_contract(self, tmp_path,
                                                  fresh_optimizer):
        # The loader reads exactly what the writer writes, so the writer's
        # key sets are the on-disk contract: a writer change shows up here
        # as a diff, and directories written by earlier commits keep loading
        # for as long as these lists do not move.
        database = connect({"cam": timed_corpus([0.0, 1.0, 2.0])},
                           retention=RetentionPolicy(max_rows=8))
        database.register_optimizer("komondor",
                                    fresh_optimizer(with_reference=False))
        database.ingest(*_batch([3.0]), table="cam")
        gray = TransformSpec(8, "gray")
        executor = database.executor_for("cam")
        executor.store.add(gray, gray.apply_batch(executor.corpus.images))
        root = database.save(tmp_path / "vdb")
        manifest = self._manifest(root)
        assert manifest["format_version"] == 10
        assert sorted(manifest) == [
            "calibrate_target_fps", "cost_resolution", "default_constraints",
            "device", "device_calibrated", "format_version", "predicates",
            "scenario", "source_resolution", "store", "tables", "wal"]
        assert sorted(manifest["scenario"]) == [
            "description", "include_load", "include_transform",
            "load_full_image", "load_tier", "name"]
        table_keys = ["id_offset", "materialized", "name", "retention",
                      "store_arrays", "table_dir"]
        [entry] = manifest["tables"]
        assert sorted(entry) == table_keys
        assert entry["store_arrays"] == [
            {"spec": {"resolution": 8, "color_mode": "gray"}}]
        # One archive per table image: the corpus's names, then the
        # materialized columns and stored representations under prefixes.
        assert sorted(path.name for path in
                      (root / entry["table_dir"]).iterdir()) == ["table.npz"]
        with np.load(root / entry["table_dir"] / "table.npz") as archive:
            assert [name for name in archive.files
                    if not name.startswith(("metadata/", "content/"))] == [
                "images", "store/rep_0"]
        assert manifest["wal"] == {"enabled": False}
        assert manifest["store"] == {"byte_budget": None}
        [predicate] = manifest["predicates"]
        assert sorted(predicate) == ["name", "reference_params", "repository"]
        assert predicate["repository"] == "predicates/komondor/ckpt-0"

        loaded = VisualDatabase.load(root)
        assert table_state(loaded) == table_state(database)
        assert loaded.executor_for("cam").store.specs() == [gray]
        assert (loaded.executor_for("cam").retention
                == RetentionPolicy(max_rows=8))

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

    def test_corpus_array_names_are_the_contract(self, tmp_path):
        # Checkpoint images and WAL frames name a segment's arrays with one
        # codec (CorpusSegment.to_arrays); these names and dtypes are what
        # every table archive so far holds, so they must not move.
        corpus = ImageCorpus(
            images=np.zeros((2, TINY_SIZE, TINY_SIZE, 3)),
            metadata={"timestamp": np.array([0.0, 1.0]),
                      "location": np.array(["detroit", "ann arbor"])},
            content={"komondor": np.array([True, False])})
        names = ["images", "metadata/timestamp", "metadata/location",
                 "content/komondor"]
        database = connect({"cam": corpus})
        root = database.enable_wal(tmp_path / "vdb")
        [entry] = self._manifest(root)["tables"]
        with np.load(root / entry["table_dir"] / "table.npz") as archive:
            assert archive.files == names
            saved = CorpusSegment.from_arrays(archive)
        for kind in ("metadata", "content"):
            for key, column in getattr(corpus, kind).items():
                assert getattr(saved, kind)[key].dtype == column.dtype
        assert saved.images.dtype == np.float64

        database.ingest(corpus.images, metadata=dict(corpus.metadata),
                        content=dict(corpus.content), table="cam")
        wal = database.executor_for("cam").wal
        log = (wal_dir(root, "cam") / f"log-{wal.generation}.wal").read_bytes()
        [(start, _)] = frame_spans(log)
        meta = json.loads(log[start + _FRAME_HEADER.size:].split(b"\n")[0])
        assert meta == {"type": "segment", "rows": 2, "arrays": names}
        database.close()
