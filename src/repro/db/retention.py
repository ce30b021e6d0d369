"""Retention policies: a table as a sliding window over its feed.

The paper's ONGOING scenario assumes a camera feed that runs forever.  The
byte-budgeted representation store bounds *representation* memory, but the
corpus itself and the materialized virtual columns still grow with every
``db.ingest()``.  A :class:`RetentionPolicy` closes that gap: it declares
how much history one table keeps — a maximum row count, a maximum age
relative to the newest frame's timestamp, or both — and the executor
drops the oldest rows whenever the window is exceeded (automatically at the
end of every ingest, or on demand via ``db.retain()``).

Dropping rows never renumbers the survivors: each table carries a stable
*id offset* (the number of rows ever dropped), so ``image_id`` values keep
naming the same frames across retention passes, a repeated query never
re-classifies surviving rows, and a dropped row's id is never reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetentionPolicy"]


@dataclass(frozen=True)
class RetentionPolicy:
    """How much history one table keeps; older rows are dropped.

    Parameters
    ----------
    max_rows:
        Keep at most this many rows (the newest ones).  Must be >= 1 — a
        retention pass never empties a table.
    max_age:
        Keep only rows whose ``timestamp_column`` value is within ``max_age``
        of the *newest* row's (event-time age, so a stalled wall clock never
        silently empties a feed; the newest row is always retained).
    timestamp_column:
        The metadata column ``max_age`` is measured against.  Rows are
        assumed to arrive in timestamp order (a feed); only the contiguous
        oldest prefix is ever dropped.

    At least one of ``max_rows`` / ``max_age`` must be set.  The window is
    exact to the row.  (A policy saved by an earlier version with its
    segment-alignment flag set loads with these exact-row semantics:
    :meth:`from_dict` ignores keys it does not know.)
    """

    max_rows: int | None = None
    max_age: float | None = None
    timestamp_column: str = "timestamp"

    def __post_init__(self) -> None:
        if self.max_rows is None and self.max_age is None:
            raise ValueError("a retention policy needs max_rows, max_age, "
                             "or both")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.max_age is not None and not self.max_age > 0:
            raise ValueError(f"max_age must be positive, got {self.max_age}")

    def rows_to_drop(self, corpus) -> int:
        """How many of ``corpus``'s oldest rows fall outside the window."""
        n = len(corpus)
        if n == 0:
            return 0
        drop = 0
        if self.max_rows is not None and n > self.max_rows:
            drop = n - self.max_rows
        if self.max_age is not None:
            columns = corpus.metadata
            try:
                timestamps = columns[self.timestamp_column]
            except KeyError:
                raise KeyError(
                    f"retention timestamp column {self.timestamp_column!r} "
                    f"not in corpus metadata "
                    f"{sorted(columns)}") from None
            timestamps = np.asarray(timestamps, dtype=np.float64)
            fresh = timestamps >= timestamps.max() - self.max_age
            # The newest row satisfies the cutoff by construction, so argmax
            # always finds a True: the leading run of False is the stale
            # prefix to drop.
            drop = max(drop, int(np.argmax(fresh)))
        return drop

    def to_dict(self) -> dict:
        """JSON-serializable form (see :mod:`repro.db.persistence`)."""
        return {"max_rows": self.max_rows, "max_age": self.max_age,
                "timestamp_column": self.timestamp_column}

    @classmethod
    def from_dict(cls, data: dict) -> "RetentionPolicy":
        return cls(max_rows=data.get("max_rows"),
                   max_age=data.get("max_age"),
                   timestamp_column=data.get("timestamp_column", "timestamp"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.max_rows is not None:
            parts.append(f"max_rows={self.max_rows}")
        if self.max_age is not None:
            parts.append(f"max_age={self.max_age}")
            parts.append(f"timestamp_column={self.timestamp_column!r}")
        return f"RetentionPolicy({', '.join(parts)})"
