"""Procedural image synthesis.

Every image is a cluttered background with zero or more objects composited on
top.  A *positive* example for a category contains that category's object; a
*negative* example contains only distractor objects drawn from other
categories.  Objects carry a color signature and a texture whose spatial
frequency scales with the category's ``texture_frequency``, so both
color-channel reduction and resolution reduction degrade (but do not destroy)
separability — the property the paper's representation study depends on.

Frames are rendered a batch at a time in two steps.  A :class:`FramePlan`
first makes every generator call, frame by frame in stream order (a run of
consecutive uniform draws is one ``rng.random(k)`` call, scaled as
``low + (high - low) * u``, which is what ``rng.uniform`` computes); then
:meth:`FramePlan.paint` composites the whole batch with broadcast NumPy,
applying each pixel's operations in the same order a single frame would.

Stream contract: the same generator state gives the same image bytes and
leaves the generator in the same state, however the frames are batched.
:func:`render_background`, :func:`render_object` and :func:`render_image`
are the batch-of-one case of the same code, so a row of a painted batch
equals the frame the per-frame call would render from the same state.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.data.categories import CategoryDef

__all__ = ["FramePlan", "render_background", "render_object", "render_image",
           "shape_mask"]

#: Uniform draws per background before its clutter: the base color (3), then
#: per channel the lighting gradient's two frequencies and its phase.
_LIGHTING_DRAWS = 12
#: Uniform draws per clutter blob: center (2), radius (1), color (3).
_BLOB_DRAWS = 6
_MAX_BLOBS = 5


def _coordinate_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Open ``(size, 1)`` / ``(1, size)`` pixel-center grids: an expression
    broadcasts to full size only where it mixes the two, so a term of one
    coordinate is computed once per row or column, with the same value."""
    coords = (np.arange(size) + 0.5) / size
    return coords[:, None], coords[None, :]


def _uniform(u, low, high):
    """``rng.uniform(low, high)``'s value for the standard draw ``u``."""
    return low + (high - low) * u


def _masks(shape: str, size: int, yy: np.ndarray, xx: np.ndarray,
           cy, cx, radius, phase=None) -> np.ndarray:
    """Boolean ``(size, size)`` shape masks, or ``(n, size, size)`` when
    ``cy``, ``cx``, ``radius`` and ``phase`` are ``(n, 1, 1)`` arrays rather
    than scalars; ``yy`` and ``xx`` are :func:`_coordinate_grid`'s."""
    dy, dx = yy - cy, xx - cx
    dist = np.sqrt(dy ** 2 + dx ** 2)

    if shape == "disk":
        mask = dist <= radius
    elif shape == "square":
        mask = (np.abs(dy) <= radius) & (np.abs(dx) <= radius)
    elif shape == "diamond":
        mask = (np.abs(dy) + np.abs(dx)) <= radius * 1.3
    elif shape == "ring":
        mask = (dist <= radius) & (dist >= radius * 0.55)
    elif shape == "triangle":
        mask = (dy >= -radius) & (np.abs(dx) <= (dy + radius) * 0.6) & (dy <= radius)
    elif shape == "cross":
        arm = radius * 0.35
        mask = (((np.abs(dy) <= arm) & (np.abs(dx) <= radius))
                | ((np.abs(dx) <= arm) & (np.abs(dy) <= radius)))
    elif shape == "stripes":
        inside = (np.abs(dy) <= radius) & (np.abs(dx) <= radius)
        period = np.maximum(radius / 2.0, 2.0 / size)
        bands = (np.floor((dx + radius) / period) % 2) == 0
        mask = inside & bands
    elif shape == "checker":
        inside = (np.abs(dy) <= radius) & (np.abs(dx) <= radius)
        period = np.maximum(radius / 2.0, 2.0 / size)
        cells = ((np.floor((dx + radius) / period)
                  + np.floor((dy + radius) / period)) % 2) == 0
        mask = inside & cells
    elif shape == "star":
        angle = np.arctan2(dy, dx)
        lobes = 0.65 + 0.35 * np.cos(5.0 * angle)
        mask = dist <= radius * lobes
    elif shape == "blob":
        angle = np.arctan2(dy, dx)
        wobble = 0.8 + 0.2 * np.sin(3.0 * angle + phase)
        mask = dist <= radius * wobble
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return mask


def shape_mask(shape: str, size: int, center: tuple[float, float],
               radius: float, rng: np.random.Generator) -> np.ndarray:
    """Binary (soft) mask of a shape on a ``size`` x ``size`` canvas.

    ``center`` and ``radius`` are in normalized [0, 1] image coordinates;
    only ``blob`` draws from ``rng`` (its wobble phase).
    """
    phase = rng.uniform(0, 2 * np.pi) if shape == "blob" else None
    yy, xx = _coordinate_grid(size)
    cy, cx = center
    return _masks(shape, size, yy, xx, cy, cx, radius, phase).astype(np.float64)


class FramePlan:
    """The generator draws for a batch of ``n`` frames, painted at once.

    ``draw_*`` calls consume ``rng`` exactly as rendering the frames one at a
    time would, and must be made in that order; :meth:`paint` then
    composites every frame.  A frame's objects are painted in the order they
    were drawn.
    """

    def __init__(self, n: int, size: int, clutter: float = 0.35) -> None:
        self.size = size
        self.clutter = clutter
        self._lighting = np.empty((n, _LIGHTING_DRAWS))
        # Room for the most blobs a background draws; rows past a frame's
        # own count are never painted.
        self._blobs = np.zeros((n, _MAX_BLOBS, _BLOB_DRAWS))
        self._n_blobs = np.zeros(n, dtype=np.int64)
        self._noise = np.empty((n, size, size, 3))
        self._n_objects = [0] * n
        # (slot, category) -> frame indices, uniform draws, color jitters.
        self._objects: dict[tuple[int, CategoryDef], tuple[list, list, list]] = (
            defaultdict(lambda: ([], [], [])))

    def __len__(self) -> int:
        return len(self._n_objects)

    # -- plan ------------------------------------------------------------------
    def draw_background(self, index: int, rng: np.random.Generator) -> None:
        """Draw frame ``index``'s background (see :func:`render_background`)."""
        rng.random(out=self._lighting[index])
        n_blobs = rng.integers(2, _MAX_BLOBS + 1)
        self._n_blobs[index] = n_blobs
        rng.random(out=self._blobs[index, :n_blobs])
        self._noise[index] = rng.normal(0.0, 0.02, size=self._noise.shape[1:])

    def draw_object(self, index: int, category: CategoryDef,
                    rng: np.random.Generator, jitter: float = 0.06) -> None:
        """Draw one ``category`` object onto frame ``index``
        (see :func:`render_object`)."""
        slot = self._n_objects[index]
        self._n_objects[index] = slot + 1
        frames, draws, jitters = self._objects[slot, category]
        frames.append(index)
        # Radius, center (2), the blob's wobble phase, the texture phase.
        draws.append(rng.random(5 if category.shape == "blob" else 4))
        jitters.append(rng.normal(0.0, jitter, size=3))

    def draw_image(self, index: int, category: CategoryDef, positive: bool,
                   rng: np.random.Generator,
                   distractors: tuple[CategoryDef, ...] = (),
                   max_distractors: int = 2) -> None:
        """Draw frame ``index`` as :func:`render_image` renders it."""
        self.draw_background(index, rng)
        usable = [d for d in distractors if d.name != category.name]
        n_distractors = int(rng.integers(0, max_distractors + 1)) if usable else 0
        for _ in range(n_distractors):
            self.draw_object(index, usable[rng.integers(0, len(usable))], rng)
        if positive:
            self.draw_object(index, category, rng)

    # -- paint -----------------------------------------------------------------
    def paint(self, onto: np.ndarray | None = None) -> np.ndarray:
        """The ``(n, size, size, 3)`` frames.

        ``onto`` replaces the planned backgrounds (it is not modified): the
        objects are composited onto a copy of it instead.
        """
        yy, xx = _coordinate_grid(self.size)
        if onto is None:
            images = self._paint_backgrounds(yy, xx)
        else:
            images = np.array(onto, dtype=np.float64)
        # Compositing clips the whole frame; painted backgrounds already are.
        self._paint_objects(images, yy, xx, clip_frames=onto is not None)
        return images

    def _paint_backgrounds(self, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
        u = self._lighting[:, :, None, None]
        base = _uniform(u[:, :3], 0.25, 0.55)
        # Low-frequency "lighting" gradients, one per channel: the operations
        # of base + 0.08 * sin(2 pi (fy yy + fx xx) + phase), mostly in place.
        fy = _uniform(u[:, 3::3], 0.5, 2.0)
        fx = _uniform(u[:, 4::3], 0.5, 2.0)
        lighting = fy * yy + fx * xx
        lighting *= 2 * np.pi
        lighting += _uniform(u[:, 5::3], 0, 2 * np.pi)
        np.sin(lighting, out=lighting)
        lighting *= 0.08
        images = np.empty(self._noise.shape)
        for channel in range(3):
            np.add(base[:, channel], lighting[:, channel],
                   out=images[..., channel])

        # Clutter disks, the k-th on every frame that draws at least k + 1.
        pixels = images.reshape(-1, 3)
        for k in range(int(self._n_blobs.max(initial=0))):
            frames = np.flatnonzero(self._n_blobs > k)
            blob = self._blobs[frames, k, :, None, None]
            cy, cx = _uniform(blob[:, 0], 0.1, 0.9), _uniform(blob[:, 1], 0.1, 0.9)
            radius = _uniform(blob[:, 2], 0.05, 0.15)
            color = _uniform(self._blobs[frames, k, 3:], 0.2, 0.7)
            masks = _masks("disk", self.size, yy, xx, cy, cx, radius)
            owner, flat = _masked_pixels(frames, masks)
            hit = pixels[flat]
            pixels[flat] = hit + self.clutter * (color[owner] - hit)

        images += self._noise
        return np.clip(images, 0.0, 1.0, out=images)

    def _paint_objects(self, images: np.ndarray, yy: np.ndarray,
                       xx: np.ndarray, clip_frames: bool) -> None:
        pixels = images.reshape(-1, 3)
        diagonal = (xx + yy).ravel()
        # Frames in one slot are distinct, so a slot's groups commute.
        for slot, category in sorted(self._objects, key=lambda key: key[0]):
            frames, draws, jitters = self._objects[slot, category]
            frames = np.array(frames)
            u = np.array(draws)[:, :, None, None]
            radius = _uniform(u[:, 0], *category.size_range)
            low, high = radius + 0.05, 1.0 - radius - 0.05
            cy, cx = _uniform(u[:, 1], low, high), _uniform(u[:, 2], low, high)
            wobble = (_uniform(u[:, 3], 0, 2 * np.pi)
                      if category.shape == "blob" else None)
            masks = _masks(category.shape, self.size, yy, xx, cy, cx, radius,
                           wobble)
            owner, flat = _masked_pixels(frames, masks)

            freq = category.texture_frequency
            phase = _uniform(u[:, -1, 0, 0], 0, 2 * np.pi)
            within = flat % diagonal.size  # the pixel's index in its frame
            texture = 0.5 + 0.5 * np.sin(2 * np.pi * freq * diagonal[within]
                                         + phase[owner])
            color = np.clip(np.asarray(category.color) + np.array(jitters), 0.0, 1.0)
            layer = color[owner] * (0.75 + 0.25 * texture[:, None])
            alpha = 0.95  # the mask's opacity where it is set (1.0 * 0.95)
            hit = pixels[flat]
            blended = np.clip(hit * (1.0 - alpha) + layer * alpha, 0.0, 1.0)
            if clip_frames:
                images[frames] = np.clip(images[frames], 0.0, 1.0)
            pixels[flat] = blended


def _masked_pixels(frames: np.ndarray, masks: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, flat)`` for every set pixel of ``masks``: the index ``g``
    of its mask, and its row in the batch's ``(-1, 3)`` pixel view, mask
    ``g`` lying on frame ``frames[g]``.

    Outside its mask a composite adds an exact zero, so only these pixels
    are written.
    """
    owner, pixel = np.nonzero(masks.reshape(len(masks), -1))
    return owner, frames[owner] * masks[0].size + pixel


def render_background(size: int, rng: np.random.Generator,
                      clutter: float = 0.35) -> np.ndarray:
    """A low-frequency cluttered background image of shape ``(size, size, 3)``."""
    plan = FramePlan(1, size, clutter)
    plan.draw_background(0, rng)
    return plan.paint()[0]


def render_object(image: np.ndarray, category: CategoryDef,
                  rng: np.random.Generator,
                  jitter: float = 0.06) -> np.ndarray:
    """A new image: ``image`` with one instance of ``category`` composited
    on top (``image`` itself is not modified)."""
    plan = FramePlan(1, image.shape[0])
    plan.draw_object(0, category, rng, jitter)
    return plan.paint(onto=image[None])[0]


def render_image(category: CategoryDef, size: int, positive: bool,
                 rng: np.random.Generator,
                 distractors: tuple[CategoryDef, ...] = (),
                 max_distractors: int = 2) -> np.ndarray:
    """Render one labeled example for a binary predicate.

    Parameters
    ----------
    category:
        The predicate's target category.
    size:
        Square image size in pixels.
    positive:
        Whether the target object should be present.
    rng:
        Random generator controlling all stochastic choices.
    distractors:
        Categories from which negative/extra objects may be drawn.
    max_distractors:
        Maximum number of distractor objects composited per image.
    """
    if size < 8:
        raise ValueError("size must be at least 8 pixels")
    plan = FramePlan(1, size)
    plan.draw_image(0, category, positive, rng, distractors, max_distractors)
    return plan.paint()[0]
