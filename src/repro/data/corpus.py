"""Labeled datasets, per-predicate splits and a queryable image corpus."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.data.categories import TABLE2_CATEGORIES, CategoryDef
from repro.data.synthesis import render_image

__all__ = [
    "LabeledDataset",
    "PredicateDataSplits",
    "CorpusSegment",
    "ImageCorpus",
    "build_predicate_dataset",
    "build_predicate_splits",
    "generate_corpus",
]


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

    @property
    def positive_fraction(self) -> float:
        if len(self) == 0:
            return float("nan")
        return float(self.labels.mean())

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


def build_predicate_dataset(category: CategoryDef, n_positive: int,
                            n_negative: int, image_size: int,
                            rng: np.random.Generator,
                            distractors: tuple[CategoryDef, ...] | None = None
                            ) -> LabeledDataset:
    """Render a balanced labeled dataset for one binary predicate."""
    if n_positive < 0 or n_negative < 0:
        raise ValueError("example counts must be non-negative")
    distractors = distractors if distractors is not None else TABLE2_CATEGORIES
    images, labels = [], []
    for _ in range(n_positive):
        images.append(render_image(category, image_size, True, rng, distractors))
        labels.append(1)
    for _ in range(n_negative):
        images.append(render_image(category, image_size, False, rng, distractors))
        labels.append(0)
    if not images:
        return LabeledDataset(np.zeros((0, image_size, image_size, 3)),
                              np.zeros((0,), dtype=np.int64))
    dataset = LabeledDataset(np.stack(images), np.asarray(labels))
    return dataset.shuffled(rng)


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

    Segments are the storage unit of the streaming engine: every
    :meth:`ImageCorpus.append` creates one, retention drops whole ones from
    the front (splitting only the boundary segment), and the write-ahead log
    journals them as durable records.  A segment is never mutated after
    construction — readers holding a reference (a query snapshot, a pending
    WAL write) keep a consistent view while the corpus moves on.
    """

    images: np.ndarray
    metadata: dict[str, np.ndarray]
    content: dict[str, np.ndarray]

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

    def tail(self, start: int) -> "CorpusSegment":
        """A new segment holding rows ``start:`` (copied, never a view).

        Copies so the dropped front rows' memory is actually released —
        retention splitting a boundary segment must free bytes.
        """
        return CorpusSegment(
            images=self.images[start:].copy(),
            metadata={key: values[start:].copy()
                      for key, values in self.metadata.items()},
            content={key: values[start:].copy()
                     for key, values in self.content.items()})

    @staticmethod
    def merge(segments: list["CorpusSegment"]) -> "CorpusSegment":
        """Fold several adjacent segments into one (row order preserved)."""
        if len(segments) == 1:
            return segments[0]
        return CorpusSegment(
            images=np.concatenate([seg.images for seg in segments], axis=0),
            metadata={key: np.concatenate([seg.metadata[key]
                                           for seg in segments])
                      for key in segments[0].metadata},
            content={key: np.concatenate([seg.content[key]
                                          for seg in segments])
                     for key in segments[0].content})


def _column(key: str, values, n: int, kind: str) -> np.ndarray:
    array = np.asarray(values)
    if array.shape[0] != n:
        raise ValueError(f"{kind} column {key!r} has wrong length")
    return array


class ImageCorpus:
    """A queryable corpus: images plus metadata plus ground-truth content tuples.

    This is the object the query engine (:mod:`repro.query`) operates over.
    ``content`` maps category name to a boolean presence vector; the query
    engine never reads it (it exists to check query results in tests and
    experiments).

    Internally the corpus is an ordered list of immutable
    :class:`CorpusSegment` objects — every :meth:`append` adds one in O(batch)
    and :meth:`drop_oldest` pops whole segments from the front, so streaming
    ingest and retention never copy the surviving history.  The monolithic
    ``images`` / ``metadata`` / ``content`` views the query engine consumes
    are built lazily on first read (and the segment list collapses to the
    consolidated form, so memory is never held twice).
    """

    def __init__(self, images: np.ndarray,
                 metadata: dict[str, np.ndarray] | None = None,
                 content: dict[str, np.ndarray] | None = None, *,
                 _segments: list[CorpusSegment] | None = None) -> None:
        if _segments is not None:
            if not _segments:
                raise ValueError("corpus needs at least one segment")
            self._segments = list(_segments)
        else:
            self._segments = [CorpusSegment.build(images, metadata or {},
                                                  content or {})]

    # -- consolidated views --------------------------------------------------
    def _consolidated(self) -> CorpusSegment:
        """The whole corpus as one segment (collapses the segment list).

        Collapsing (instead of caching alongside) keeps peak memory at one
        copy of the corpus; the segment structure only needs to survive
        between mutations and the next read, which is exactly when it saves
        the O(corpus) concatenations the old grow-in-place arrays paid on
        every append.
        """
        if len(self._segments) > 1:
            self._segments = [CorpusSegment.merge(self._segments)]
        return self._segments[0]

    @property
    def images(self) -> np.ndarray:
        return self._consolidated().images

    @property
    def metadata(self) -> dict[str, np.ndarray]:
        return self._consolidated().metadata

    @property
    def content(self) -> dict[str, np.ndarray]:
        return self._consolidated().content

    def metadata_arrays(self) -> dict[str, np.ndarray]:
        """Concatenated metadata columns *without* consolidating images.

        The executor rebuilds its base relation after every ingest; going
        through this method keeps that rebuild O(rows × metadata columns)
        instead of forcing the (much larger) image arrays to collapse —
        images consolidate lazily when a query actually reads them.
        """
        if len(self._segments) == 1:
            return self._segments[0].metadata
        return {key: np.concatenate([segment.metadata[key]
                                     for segment in self._segments])
                for key in self._segments[0].metadata}

    @property
    def segments(self) -> tuple[CorpusSegment, ...]:
        """The current segment list (newest last).  Segments are immutable."""
        return tuple(self._segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def __len__(self) -> int:
        return sum(len(segment) for segment in self._segments)

    @property
    def image_size(self) -> int:
        return int(self._segments[0].images.shape[1])

    def images_from(self, start: int) -> np.ndarray:
        """The image rows ``start:`` without consolidating the corpus.

        The ingest hot path extends stored representations with just the new
        frames; reading the tail through this method touches only the
        segments that cover it, so a long history is never concatenated to
        transform one fresh batch.
        """
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        parts, offset = [], 0
        for segment in self._segments:
            end = offset + len(segment)
            if end > start:
                parts.append(segment.images[max(0, start - offset):])
            offset = end
        if not parts:
            return self._segments[-1].images[:0]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)

    # -- mutation -------------------------------------------------------------
    def append(self, images: np.ndarray,
               metadata: dict[str, np.ndarray] | None = None,
               content: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Append new rows as a fresh segment, returning the new rows' ids.

        This is the corpus half of streaming ingest: ``images`` is an NHWC
        batch with the same frame shape as the corpus, ``metadata`` must
        provide exactly the existing metadata columns, and ``content``
        (ground truth, optional) may provide any subset of the existing
        content columns — missing ones are padded with ``False`` for the new
        rows, mirroring frames whose ground truth is unknown.  The appended
        batch becomes one immutable :class:`CorpusSegment`, so the cost is
        O(batch), not O(corpus).
        """
        segment = self._build_appended(images, metadata, content)
        n_old = len(self)
        self._segments.append(segment)
        return np.arange(n_old, n_old + len(segment))

    def _build_appended(self, images, metadata, content) -> CorpusSegment:
        """Validate an append batch against the corpus schema."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ValueError(f"images must be NHWC, got shape {images.shape}")
        frame_shape = self._segments[0].images.shape[1:]
        if images.shape[1:] != frame_shape:
            raise ValueError(
                f"appended frame shape {images.shape[1:]} does not match "
                f"corpus frame shape {frame_shape}")
        n_new = images.shape[0]

        schema = self._segments[0]
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

    def drop_oldest(self, n: int) -> int:
        """Drop the ``n`` oldest (front) rows; returns rows dropped.

        This is the corpus half of retention windows: a streaming table is a
        sliding window over its feed, so eviction always takes the front.
        Whole leading segments are dropped in O(1) each — their memory is
        released without touching the survivors — and only a segment
        straddling the boundary is split (the surviving tail is copied, not
        sliced, so a view never pins the dropped rows' memory).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        n = min(int(n), len(self))
        if n == 0:
            return 0
        remaining = n
        while remaining > 0:
            head = self._segments[0]
            if remaining >= len(head) and len(self._segments) > 1:
                self._segments.pop(0)
                remaining -= len(head)
            else:
                # Boundary split — also the "corpus emptied" case, where the
                # zero-row tail keeps the column schema alive.
                self._segments[0] = head.tail(remaining)
                remaining = 0
        return n


def generate_corpus(categories: tuple[CategoryDef, ...], n_images: int,
                    image_size: int, rng: np.random.Generator | None = None,
                    locations: tuple[str, ...] = ("detroit", "seattle", "austin"),
                    positive_rate: float = 0.35) -> ImageCorpus:
    """Generate a mixed corpus where each image may contain several categories.

    Each image independently contains each category with probability
    ``positive_rate / len(categories)`` scaled so the expected number of
    object-bearing images stays moderate; metadata columns ``location`` and
    ``timestamp`` are attached for metadata-predicate queries.
    """
    if n_images <= 0:
        raise ValueError("n_images must be positive")
    if not categories:
        raise ValueError("categories must be non-empty")
    rng = rng or np.random.default_rng(0)

    images = np.zeros((n_images, image_size, image_size, 3), dtype=np.float64)
    content = {category.name: np.zeros(n_images, dtype=bool)
               for category in categories}
    per_category_rate = min(1.0, positive_rate)

    from repro.data.synthesis import render_background, render_object

    for index in range(n_images):
        image = render_background(image_size, rng)
        for category in categories:
            if rng.random() < per_category_rate / len(categories):
                image = render_object(image, category, rng)
                content[category.name][index] = True
        images[index] = image

    metadata = {
        "location": np.array([locations[rng.integers(0, len(locations))]
                              for _ in range(n_images)]),
        "timestamp": np.sort(rng.uniform(0, 86_400, size=n_images)),
        "camera_id": rng.integers(0, 8, size=n_images),
    }
    return ImageCorpus(images=images, metadata=metadata, content=content)
