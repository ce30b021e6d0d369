"""Per-table write-ahead log: durable segments between checkpoints.

A full :func:`repro.db.persistence.save_database` is a *checkpoint* — a
consistent image of every table whose cost grows with corpus size.  For the
paper's ONGOING/CAMERA scenarios (long-lived streaming tables) that is the
wrong durability unit: a crash between checkpoints would lose every
``ingest()`` since the last one.  The write-ahead log closes that window by
journaling each mutation as it happens:

* ``ingest()`` appends a **segment** record carrying the freshly appended
  :class:`~repro.data.corpus.CorpusSegment`'s arrays.  The segment implies
  its retention drop: the rows it pushes out of the window follow from the
  segment and the policy in force, so replay re-derives them and no record
  is written for them,
* an explicit sweep (``retain()``) appends a **drop** record
  (``{"type": "drop", "rows": n}``): the policy may change before the next
  segment, so that drop cannot be re-derived,
* ``set_retention`` appends a **retention** record so the policy itself
  survives a crash,
* attaching a table after the last checkpoint appends an **attach** record
  carrying the table's baseline corpus, and ``detach`` a **detach**
  tombstone.

Recovery = load the checkpoint, then replay each table's log tail in order
through the same executor methods that journaled it.

Layout (inside a format-10 database directory): one file per generation,
``wal/<table>/log-<g>.wal``, holding one **frame** per record::

    header   magic "RWAL" | body length (u64) | crc32(body) (u32)
    body     one JSON line: the record, plus "arrays": [names] when it
             carries a segment | each named array in raw ``.npy`` form

A frame is never joined in memory: its header, JSON line, ``.npy`` headers
and the arrays' own buffers go to the log in one ``os.writev`` on an
unbuffered handle, and one ``os.fsync`` follows before ``log_*`` returns.
A failed append truncates the file back to where the frame began and
leaves the handle refusing further appends until the table is reopened,
so a torn frame is never followed by a later one.  Replay decodes each
array as a read-only view of the frame body it was read in, with no copy.

One validity rule: a frame that is short, runs past the end of the file,
has the wrong magic or fails its checksum **is the torn tail**.  Only the
active generation's final append can tear, so there it ends
:meth:`TableWal.records` and the next open truncates it; in a rotated
generation (complete) it is corruption and raises.

**Generations** make checkpoints crash-safe: a checkpoint :meth:`rotate`\\ s
the log (freezing the current generation, opening the next) *before* it
starts writing files, and the manifest records the new generation number
only once the checkpoint is complete.  A crash mid-checkpoint therefore
leaves the old manifest pointing at the old generation — recovery replays
the frozen generation plus the new one and loses nothing.  Generations the
manifest has absorbed are deleted by :meth:`prune` after the manifest is
durably in place.  Creating a log file (at open, in :meth:`rotate`) is
followed by a directory fsync, so the file a durable frame lives in cannot
itself vanish on power loss; appends need none, they create no file.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import re
import struct
import time
import zlib
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.data.corpus import CorpusSegment
from repro.locking import make_lock
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["TableWal", "wal_dir", "wal_tables"]

_LOG_RE = re.compile(r"^log-(\d+)\.wal$")
_MAGIC = b"RWAL"
_HEADER = struct.Struct("<4sQI")  # magic, body length, crc32(body)
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one os.writev may take


def wal_dir(root: Path | str, table: str) -> Path:
    """The log directory for ``table`` under database root ``root``."""
    return Path(root) / "wal" / table


def fsync_dir(path: Path) -> None:
    """Make ``path``'s directory entries (renames, new files) durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def wal_tables(root: Path | str) -> list[str]:
    """Tables with a write-ahead log under ``root`` (sorted)."""
    base = Path(root) / "wal"
    if not base.is_dir():
        return []
    return sorted(entry.name for entry in base.iterdir() if entry.is_dir())


class _Parts(list):
    """A frame's buffers, in file order; numpy's header writer appends to it
    as it would write to a file."""

    write = list.append


def _frame_parts(record: dict, arrays: dict[str, np.ndarray]) -> _Parts:
    """The body of ``record``'s frame as buffers that are never joined: the
    JSON line, then per array its ``.npy`` 1.0 header and its own bytes.

    The bytes are exactly what ``np.lib.format.write_array`` writes; only a
    non-contiguous array is copied (into C order, as ``write_array`` does).
    """
    parts = _Parts([json.dumps(record).encode("utf-8") + b"\n"])
    for array in arrays.values():
        if array.dtype.hasobject:
            raise ValueError("Object arrays cannot be saved when "
                             "allow_pickle=False")
        header = np.lib.format.header_data_from_array_1_0(array)
        np.lib.format.write_array_header_1_0(parts, header)
        data = np.ascontiguousarray(
            array.T if header["fortran_order"] else array)
        if data.nbytes:
            parts.append(memoryview(data.reshape(-1).view(np.uint8)))
    return parts


def _decode_body(body: bytes) -> dict:
    """The record dict of one frame body; its arrays, as ``"segment"``, are
    read-only views of ``body``."""
    stream = io.BytesIO(body)  # shares ``body``'s bytes until written
    record = json.loads(stream.readline())
    if "arrays" in record:
        record["segment"] = CorpusSegment.from_arrays(
            {name: _array_view(body, stream) for name in record["arrays"]})
    return record


def _array_view(body: bytes, stream: io.BytesIO) -> np.ndarray:
    """The ``.npy`` array at ``stream``'s position, as a view of ``body``;
    leaves ``stream`` just past its bytes."""
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError("write-ahead log arrays are .npy format 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when "
                         "allow_pickle=False")
    offset = stream.tell()
    flat = np.frombuffer(body, dtype=dtype, count=math.prod(shape),
                         offset=offset)
    stream.seek(offset + flat.nbytes)
    if fortran_order:
        return flat.reshape(shape[::-1]).T
    return flat.reshape(shape)


def _frames(path: Path, frozen: bool) -> Iterator[tuple[int, bytes]]:
    """Yield ``(end offset, body)`` for each intact frame of ``path``.

    The first frame that is not intact is the torn tail: it ends the stream,
    or raises when ``frozen`` says the generation was rotated (complete).
    One body is in memory at a time.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        offset = 0
        while offset < size:
            header = handle.read(_HEADER.size)
            body = None
            if len(header) == _HEADER.size:
                magic, length, checksum = _HEADER.unpack(header)
                # Bound the read by the file: a damaged length field must
                # not become a multi-gigabyte allocation.
                if magic == _MAGIC and length <= size - handle.tell():
                    body = handle.read(length)
                    if zlib.crc32(body) != checksum:
                        body = None
            if body is None:
                if frozen:
                    raise ValueError(
                        f"corrupt write-ahead log: {path} has an invalid "
                        f"frame at byte {offset} of a rotated generation")
                return
            offset = handle.tell()
            yield offset, body


class TableWal:
    """Append-only journal for one table.

    The executor calls the ``log_*`` methods *while holding its shard lock*,
    immediately after applying the mutation in memory — so the log order is
    exactly the apply order and replaying it reproduces the in-memory state.
    The handle keeps the active generation's log file open for append,
    unbuffered; :meth:`close` releases it (idempotent).
    """

    def __init__(self, root: Path | str, table: str,
                 metrics: MetricsRegistry | None = None) -> None:
        self.table = table
        self.directory = wal_dir(root, table)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._append_seconds = self.metrics.histogram(
            "repro_wal_append_seconds")
        self._lock = make_lock(f"wal:{table}")
        generations = self.generations()
        self._generation = generations[-1] if generations else 0  # guarded by: self._lock
        # Per-generation record counts: read from disk once, here, then
        # maintained in memory by append/rotate/prune.
        self._counts = {self._generation: 0}  # guarded by: self._lock
        for generation in generations:
            path = self._log_path(generation)
            active = generation == self._generation
            count = end = 0
            for end, _ in _frames(path, frozen=not active):
                count += 1
            self._counts[generation] = count
            if active and end < path.stat().st_size:
                # The crash interrupted this generation's final append: drop
                # the torn frame so the next append starts on a boundary.
                os.truncate(path, end)
        self._handle = open(self._log_path(self._generation), "ab",  # guarded by: self._lock
                            buffering=0)
        # The open() above may have created the log file (and mkdir the
        # directory); make both directory entries durable before the first
        # fsynced frame can claim durability.
        fsync_dir(self.directory)
        fsync_dir(self.directory.parent)
        self._closed = False  # guarded by: self._lock
        # Set by an append that failed; cleared only by reopening.
        self._poisoned = False  # guarded by: self._lock

    def _log_path(self, generation: int) -> Path:
        return self.directory / f"log-{generation}.wal"

    @property
    def generation(self) -> int:
        """The generation currently receiving appends."""
        return self._generation  # unguarded ok: snapshot read

    def generations(self) -> list[int]:
        """Generations present on disk, oldest first."""
        found = []
        for entry in self.directory.iterdir():
            match = _LOG_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # -- appending ---------------------------------------------------------
    def log_segment(self, segment: CorpusSegment) -> None:
        """Journal one freshly ingested corpus segment."""
        self._append({"type": "segment"}, segment)

    def log_attach(self, segment: CorpusSegment, *,
                   id_offset: int = 0) -> None:
        """Journal a table's baseline corpus (attach after last checkpoint)."""
        self._append({"type": "attach", "id_offset": int(id_offset)}, segment)

    def log_drop(self, rows: int) -> None:
        """Journal a retention drop of the ``rows`` oldest rows."""
        self._append({"type": "drop", "rows": int(rows)})

    def log_retention(self, policy_dict: dict | None) -> None:
        """Journal a retention-policy change (``None`` clears the policy)."""
        self._append({"type": "retention", "policy": policy_dict})

    def log_detach(self) -> None:
        """Journal that this table was detached (replay drops it)."""
        self._append({"type": "detach"})

    def _append(self, record: dict,
                segment: CorpusSegment | None = None) -> None:
        """Append ``record`` (plus ``segment``'s arrays) as one checksummed
        frame; durable when this returns."""
        started = time.perf_counter()
        arrays = segment.to_arrays() if segment is not None else {}
        if arrays:
            record = {**record, "rows": len(segment), "arrays": list(arrays)}
        parts = _frame_parts(record, arrays)
        checksum = 0
        for part in parts:
            checksum = zlib.crc32(part, checksum)
        pending = [_HEADER.pack(_MAGIC, sum(map(len, parts)), checksum),
                   *parts]
        with self._lock:
            self._ensure_open()
            fd = self._handle.fileno()
            size = os.fstat(fd).st_size
            try:
                while pending:
                    written = os.writev(fd, pending[:_IOV_MAX])
                    if not written:
                        raise OSError(errno.EIO, "write-ahead log append "
                                      "made no progress")
                    # Drop the buffers written whole; a short write leaves
                    # the rest of one for the next call.
                    while pending and written >= len(pending[0]):
                        written -= len(pending.pop(0))
                    if written:
                        pending[0] = memoryview(pending[0])[written:]
                os.fsync(fd)
            except BaseException:
                # A frame later appends would sit behind could never be
                # replayed past: cut it off and take no further append.
                self._poisoned = True
                os.ftruncate(fd, size)
                raise
            self._counts[self._generation] += 1
        self._append_seconds.observe(time.perf_counter() - started,
                                     table=self.table)

    def _ensure_open(self) -> None:
        # guarded by: self._lock
        if self._closed:
            raise RuntimeError(f"WAL for table {self.table!r} is closed")
        if self._poisoned:
            raise RuntimeError(
                f"WAL for table {self.table!r} failed an append; reopen the "
                f"table to journal again")

    # -- reading -----------------------------------------------------------
    def records(self, from_generation: int = 0) -> Iterator[dict]:
        """Yield parsed records of generations >= ``from_generation``, in
        order.

        ``segment``/``attach`` records come back with their arrays loaded
        under the ``"segment"`` key; each record also carries its
        ``"generation"``.  The stream stops at the active generation's torn
        tail; an invalid frame in a rotated generation raises
        :class:`ValueError`.  Records stream lazily — one frame is read and
        decoded as the caller advances, so replaying a long tail never holds
        every segment's bytes in memory at once.
        """
        generations = self.generations()
        for generation in generations:
            if generation < from_generation:
                continue
            for _, body in _frames(self._log_path(generation),
                                   frozen=generation < generations[-1]):
                record = _decode_body(body)
                record["generation"] = generation
                yield record

    def record_count(self) -> int:
        """Complete records across all live generations (tears excluded).

        Served from in-memory counters (maintained across append, rotate and
        prune), so stats endpoints never re-read or re-parse the log files.
        """
        with self._lock:
            return sum(self._counts.values())

    # -- lifecycle ---------------------------------------------------------
    def rotate(self) -> int:
        """Freeze the current generation and open the next; returns it.

        Called by a checkpoint *under the shard lock, before writing any
        file*: mutations after the rotate land in the new generation, so the
        checkpoint image plus generations >= the returned number is always
        the complete state — whether or not the checkpoint finishes.
        """
        with self._lock:
            self._ensure_open()
            self._handle.close()
            self._generation += 1
            self._counts[self._generation] = 0
            self._handle = open(self._log_path(self._generation), "ab",
                                buffering=0)
            # Make the new generation's directory entry durable before any
            # fsynced frame lands in it.
            fsync_dir(self.directory)
            return self._generation

    def prune(self, before_generation: int) -> None:
        """Delete generations < ``before_generation`` (absorbed by a
        checkpoint whose manifest is durably in place)."""
        with self._lock:
            for generation in self.generations():
                if generation < before_generation:
                    self._log_path(generation).unlink()
            self._counts = {generation: count
                            for generation, count in self._counts.items()
                            if generation >= before_generation}

    def close(self) -> None:
        """Release the log handle; safe to call twice."""
        with self._lock:
            if self._closed:
                return
            self._handle.close()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed  # unguarded ok: snapshot read
