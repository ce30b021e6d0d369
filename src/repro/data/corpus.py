"""Labeled datasets, per-predicate splits and a queryable image corpus.

The corpus is a streaming window: one set of column buffers with a live row
range, appended batches waiting beside it until a read folds them in, and
retention moving the range's start.  Arrays it hands out are read-only views
whose bytes are never written again.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.data.categories import TABLE2_CATEGORIES, CategoryDef
from repro.data.synthesis import FramePlan

__all__ = [
    "LabeledDataset",
    "PredicateDataSplits",
    "CorpusSegment",
    "ImageCorpus",
    "build_predicate_dataset",
    "build_predicate_splits",
    "generate_corpus",
]

#: Pixels per :class:`~repro.data.synthesis.FramePlan` when a builder
#: renders many frames (256 frames at 16 px): bounds the painter's working
#: memory, a few arrays of this many pixels, whatever the dataset size.
PAINT_PIXELS = 1 << 16


@dataclass
class LabeledDataset:
    """A set of images with binary labels.

    ``images`` has shape ``(n, size, size, 3)`` with values in [0, 1];
    ``labels`` has shape ``(n,)`` with values in {0, 1}.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels have different lengths")
        if self.images.ndim != 4:
            raise ValueError(
                f"images must be NHWC, got shape {self.images.shape}")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def image_size(self) -> int:
        return int(self.images.shape[1])

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """A new dataset containing only the given indices."""
        indices = np.asarray(indices)
        return LabeledDataset(self.images[indices], self.labels[indices])

    def shuffled(self, rng: np.random.Generator) -> "LabeledDataset":
        """A copy with examples in random order."""
        order = rng.permutation(len(self))
        return self.subset(order)

    def concat(self, other: "LabeledDataset") -> "LabeledDataset":
        """Concatenate two datasets (images must share shape)."""
        if other.images.shape[1:] != self.images.shape[1:]:
            raise ValueError("cannot concatenate datasets of different image shapes")
        return LabeledDataset(
            np.concatenate([self.images, other.images], axis=0),
            np.concatenate([self.labels, other.labels], axis=0))

    def split(self, fractions: tuple[float, ...],
              rng: np.random.Generator) -> list["LabeledDataset"]:
        """Random split into ``len(fractions)`` parts with the given fractions."""
        if not np.isclose(sum(fractions), 1.0):
            raise ValueError("fractions must sum to 1")
        order = rng.permutation(len(self))
        sizes = [int(round(f * len(self))) for f in fractions[:-1]]
        sizes.append(len(self) - sum(sizes))
        parts, start = [], 0
        for size in sizes:
            parts.append(self.subset(order[start:start + size]))
            start += size
        return parts


@dataclass
class PredicateDataSplits:
    """The paper's three per-predicate datasets.

    * ``train`` — used to fit each candidate model,
    * ``config`` — used to calibrate per-model decision thresholds,
    * ``eval`` — used to measure cascade accuracy (held out from both).
    """

    train: LabeledDataset
    config: LabeledDataset
    eval: LabeledDataset

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.config), len(self.eval))


def _frame_plans(n: int, image_size: int):
    """``(start, plan)`` for consecutive runs of ``n`` frames, each plan
    :data:`PAINT_PIXELS` pixels or one frame."""
    step = max(1, PAINT_PIXELS // image_size ** 2)
    for start in range(0, n, step):
        yield start, FramePlan(min(step, n - start), image_size)


def build_predicate_dataset(category: CategoryDef, n_positive: int,
                            n_negative: int, image_size: int,
                            rng: np.random.Generator,
                            distractors: tuple[CategoryDef, ...] | None = None
                            ) -> LabeledDataset:
    """Render a balanced labeled dataset for one binary predicate."""
    if n_positive < 0 or n_negative < 0:
        raise ValueError("example counts must be non-negative")
    distractors = distractors if distractors is not None else TABLE2_CATEGORIES
    n = n_positive + n_negative
    labels = np.repeat([1, 0], [n_positive, n_negative])
    images = np.empty((n, image_size, image_size, 3))
    for start, plan in _frame_plans(n, image_size):
        for index in range(len(plan)):
            plan.draw_image(index, category, bool(labels[start + index]), rng,
                            distractors)
        images[start:start + len(plan)] = plan.paint()
    return LabeledDataset(images, labels).shuffled(rng)


def build_predicate_splits(category: CategoryDef, *, n_train: int = 240,
                           n_config: int = 120, n_eval: int = 120,
                           image_size: int = 64,
                           rng: np.random.Generator | None = None,
                           distractors: tuple[CategoryDef, ...] | None = None
                           ) -> PredicateDataSplits:
    """Render the train/config/eval splits for one binary predicate.

    Counts are per split and are rendered balanced (half positive examples).
    Defaults are scaled down from the paper's 3,000-4,000 labeled images so
    the full pipeline runs on CPU; all counts are parameters.
    """
    rng = rng or np.random.default_rng(0)

    def balanced(total: int) -> LabeledDataset:
        n_pos = total // 2
        return build_predicate_dataset(category, n_pos, total - n_pos,
                                       image_size, rng, distractors)

    return PredicateDataSplits(train=balanced(n_train),
                               config=balanced(n_config),
                               eval=balanced(n_eval))


@dataclass(frozen=True)
class CorpusSegment:
    """One immutable run of corpus rows: images plus aligned columns.

    Segments are the exchange unit of the streaming engine: every
    :meth:`ImageCorpus.append` batch waits as one until a read folds it into
    the corpus's window buffer, the write-ahead log journals them as durable
    records, and a checkpoint image is one.  A segment is never mutated after
    construction — readers holding a reference (a pending WAL write, a
    replay) keep a consistent view while the corpus moves on.
    """

    images: np.ndarray
    metadata: Mapping[str, np.ndarray]
    content: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @staticmethod
    def build(images, metadata, content) -> "CorpusSegment":
        """Coerce and validate raw arrays into a segment."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ValueError(f"images must be NHWC, got shape {images.shape}")
        n = images.shape[0]
        metadata = {key: _column(key, values, n, "metadata")
                    for key, values in (metadata or {}).items()}
        content = {key: _column(key, values, n, "content")
                   for key, values in (content or {}).items()}
        return CorpusSegment(images=images, metadata=metadata, content=content)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The segment as flat named arrays — the one on-disk naming, shared
        by checkpoint images and WAL frames: ``images``, ``metadata/<k>``,
        ``content/<k>``."""
        arrays = {"images": self.images}
        for key, values in self.metadata.items():
            arrays[f"metadata/{key}"] = values
        for key, values in self.content.items():
            arrays[f"content/{key}"] = values
        return arrays

    @staticmethod
    def from_arrays(arrays: Mapping[str, np.ndarray]) -> "CorpusSegment":
        """Inverse of :meth:`to_arrays` (any mapping, e.g. an open ``.npz``;
        names outside the three families are ignored)."""
        metadata, content = {}, {}
        for name in arrays:
            kind, _, key = name.partition("/")
            if kind == "metadata":
                metadata[key] = arrays[name]
            elif kind == "content":
                content[key] = arrays[name]
        return CorpusSegment(images=arrays["images"], metadata=metadata,
                             content=content)


def _column(key: str, values, n: int, kind: str) -> np.ndarray:
    array = np.asarray(values)
    if array.shape[0] != n:
        raise ValueError(f"{kind} column {key!r} has wrong length")
    return array


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class ImageCorpus:
    """A queryable corpus: images plus metadata plus ground-truth content tuples.

    This is the object the query engine (:mod:`repro.query`) operates over.
    ``content`` maps category name to a boolean presence vector; the query
    engine never reads it (it exists to check query results in tests and
    experiments).

    Internally the corpus is a streaming window: one column buffer per
    :meth:`CorpusSegment.to_arrays` name, of which rows ``[start, stop)`` are
    live.  :meth:`append` only queues its batch as a :class:`CorpusSegment`
    (nothing is copied).  A read or a :meth:`drop_oldest` first folds the
    queued rows into the spare capacity past ``stop``; when they do not fit,
    or a column's dtype widens (a longer string), fresh buffers of twice the
    live rows are allocated and the dropped rows' memory goes with the old
    ones.  :meth:`drop_oldest` then just advances ``start``.

    Memory contract: ``images``, ``metadata``, ``content`` and
    :meth:`images_from` return read-only views (and read-only mappings),
    and the bytes inside any view ever returned are never written again —
    folding writes only past ``stop`` — so a query snapshot or a pending
    WAL write holds a consistent corpus without a copy.  Dropped rows stay
    allocated until the next reallocation, which sizes the buffer at twice
    the rows it then holds.
    """

    def __init__(self, images: np.ndarray,
                 metadata: dict[str, np.ndarray] | None = None,
                 content: dict[str, np.ndarray] | None = None) -> None:
        # The caller's arrays become the first buffer as they are: it has no
        # spare capacity, so the first fold reallocates and they are never
        # written.
        self._buffer = CorpusSegment.build(images, metadata or {},
                                           content or {}).to_arrays()
        self._start = 0
        self._stop = int(self._buffer["images"].shape[0])
        self._pending: list[CorpusSegment] = []
        # Live plus pending rows; a fold leaves it alone, so len() never
        # reads a half-folded state.
        self._rows = self._stop
        # Read-only views of [start, stop), rebuilt after a fold or a drop.
        self._view: CorpusSegment | None = None

    # -- views ---------------------------------------------------------------
    def _window(self) -> CorpusSegment:
        """The folded rows ``[start, stop)`` as read-only views (pending
        batches are not folded)."""
        if self._view is None:
            live = CorpusSegment.from_arrays(
                {name: _read_only(column[self._start:self._stop])
                 for name, column in self._buffer.items()})
            self._view = CorpusSegment(live.images,
                                       MappingProxyType(live.metadata),
                                       MappingProxyType(live.content))
        return self._view

    def _live(self) -> CorpusSegment:
        self._fold()
        return self._window()

    @property
    def images(self) -> np.ndarray:
        return self._live().images

    @property
    def metadata(self) -> Mapping[str, np.ndarray]:
        return self._live().metadata

    @property
    def content(self) -> Mapping[str, np.ndarray]:
        return self._live().content

    @property
    def segments(self) -> tuple[CorpusSegment, ...]:
        """The folded window as one segment, then the pending batches
        (newest last).  Segments are immutable."""
        return (self._window(), *self._pending)

    @property
    def segment_count(self) -> int:
        return 1 + len(self._pending)

    def __len__(self) -> int:
        return self._rows

    @property
    def image_size(self) -> int:
        return int(self._buffer["images"].shape[1])

    def images_from(self, start: int) -> np.ndarray:
        """The image rows ``start:`` — a read-only view, never a copy.

        The ingest hot path extends stored representations with just the new
        frames; after the fold those are a slice of the window buffer, so a
        long history is never concatenated to transform one fresh batch.
        """
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        return self.images[start:]

    # -- mutation -------------------------------------------------------------
    def append(self, images: np.ndarray,
               metadata: dict[str, np.ndarray] | None = None,
               content: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Queue new rows as a pending segment, returning the new rows' ids.

        This is the corpus half of streaming ingest: ``images`` is an NHWC
        batch with the same frame shape as the corpus, ``metadata`` must
        provide exactly the existing metadata columns, and ``content``
        (ground truth, optional) may provide any subset of the existing
        content columns — missing ones are padded with ``False`` for the new
        rows, mirroring frames whose ground truth is unknown.  The batch is
        not copied: it waits as one immutable :class:`CorpusSegment` until
        the next read folds it into the window buffer.
        """
        segment = self._build_appended(images, metadata, content)
        n_old = len(self)
        self._pending.append(segment)
        self._rows += len(segment)
        return np.arange(n_old, n_old + len(segment))

    def _build_appended(self, images, metadata, content) -> CorpusSegment:
        """Validate an append batch against the corpus schema."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ValueError(f"images must be NHWC, got shape {images.shape}")
        schema = self._window()
        frame_shape = schema.images.shape[1:]
        if images.shape[1:] != frame_shape:
            raise ValueError(
                f"appended frame shape {images.shape[1:]} does not match "
                f"corpus frame shape {frame_shape}")
        n_new = images.shape[0]

        metadata = metadata or {}
        if set(metadata) != set(schema.metadata):
            raise ValueError(
                f"metadata columns {sorted(metadata)} do not match corpus "
                f"columns {sorted(schema.metadata)}")
        new_metadata = {key: _column(key, values, n_new, "metadata")
                        for key, values in metadata.items()}

        content = content or {}
        unknown = set(content) - set(schema.content)
        if unknown:
            raise ValueError(f"unknown content columns {sorted(unknown)}; "
                             f"corpus has {sorted(schema.content)}")
        new_content = {}
        for key, existing in schema.content.items():
            if key in content:
                new_content[key] = _column(key, content[key], n_new, "content")
            else:
                new_content[key] = np.zeros(n_new, dtype=existing.dtype)
        return CorpusSegment(images=images, metadata=new_metadata,
                             content=new_content)

    def _fold(self) -> None:
        """Copy the pending batches into the buffer, past ``stop``.

        Reallocates (at twice the rows) only when they do not fit or a
        column's dtype widens; either way no byte of ``[start, stop)`` — the
        rows earlier views cover — is written.
        """
        if not self._pending:
            return
        batches = [segment.to_arrays() for segment in self._pending]
        start, stop = self._start, self._stop
        dtypes = {name: np.result_type(column,
                                       *(batch[name] for batch in batches))
                  for name, column in self._buffer.items()}
        buffer = self._buffer
        if (start + self._rows > int(buffer["images"].shape[0])
                or any(dtypes[name] != column.dtype
                       for name, column in buffer.items())):
            fresh = {}
            for name, column in buffer.items():
                fresh[name] = np.empty((2 * self._rows, *column.shape[1:]),
                                       dtype=dtypes[name])
                fresh[name][:stop - start] = column[start:stop]
            buffer, start, stop = fresh, 0, stop - start
        for batch in batches:
            end = stop + int(batch["images"].shape[0])
            for name, column in buffer.items():
                column[stop:end] = batch[name]
            stop = end
        self._buffer, self._start, self._stop = buffer, start, stop
        self._pending = []
        self._view = None

    def drop_oldest(self, n: int) -> int:
        """Drop the ``n`` oldest (front) rows; returns rows dropped.

        This is the corpus half of retention windows: a streaming table is a
        sliding window over its feed, so eviction always takes the front.
        Pending batches fold first, then the live range's start moves by
        ``n`` — nothing is copied, and views handed out earlier keep their
        rows.  The dropped rows' memory is released at the next
        reallocation.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        n = min(int(n), len(self))
        if n == 0:
            return 0
        self._fold()
        self._start += n
        self._rows -= n
        self._view = None
        return n


def generate_corpus(categories: tuple[CategoryDef, ...], n_images: int,
                    image_size: int, rng: np.random.Generator | None = None,
                    locations: tuple[str, ...] = ("detroit", "seattle", "austin"),
                    positive_rate: float = 0.35) -> ImageCorpus:
    """Generate a mixed corpus where each image may contain several categories.

    Each image independently contains each category with probability
    ``positive_rate / len(categories)`` scaled so the expected number of
    object-bearing images stays moderate; metadata columns ``location`` and
    ``timestamp`` are attached for metadata-predicate queries.  Frames are
    painted :data:`PAINT_PIXELS` at a time.  ``image_size`` must be at least
    8 and ``positive_rate`` in [0, 1].
    """
    if n_images <= 0:
        raise ValueError("n_images must be positive")
    if not categories:
        raise ValueError("categories must be non-empty")
    if image_size < 8:
        raise ValueError("size must be at least 8 pixels")
    if not 0.0 <= positive_rate <= 1.0:
        raise ValueError(f"positive_rate must be in [0, 1], got {positive_rate}")
    rng = rng or np.random.default_rng(0)

    images = np.empty((n_images, image_size, image_size, 3))
    content = {category.name: np.zeros(n_images, dtype=bool)
               for category in categories}
    threshold = positive_rate / len(categories)
    for start, plan in _frame_plans(n_images, image_size):
        for index in range(len(plan)):
            plan.draw_background(index, rng)
            for category in categories:
                if rng.random() < threshold:
                    plan.draw_object(index, category, rng)
                    content[category.name][start + index] = True
        images[start:start + len(plan)] = plan.paint()

    metadata = {
        # One call draws the same values as one scalar draw per row.
        "location": np.array([locations[index] for index in
                              rng.integers(0, len(locations), size=n_images)]),
        "timestamp": np.sort(rng.uniform(0, 86_400, size=n_images)),
        "camera_id": rng.integers(0, 8, size=n_images),
    }
    return ImageCorpus(images=images, metadata=metadata, content=content)
