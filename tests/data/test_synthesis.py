"""Tests for the procedural image renderer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.categories import TABLE2_CATEGORIES, CategoryDef, get_category
from repro.data.synthesis import (
    FramePlan,
    render_background,
    render_image,
    render_object,
    shape_mask,
)


class TestShapeMask:
    @pytest.mark.parametrize("shape", ["disk", "square", "triangle", "ring",
                                       "cross", "stripes", "diamond", "checker",
                                       "blob", "star"])
    def test_all_shapes_produce_nonempty_mask(self, shape):
        rng = np.random.default_rng(0)
        mask = shape_mask(shape, 32, (0.5, 0.5), 0.3, rng)
        assert mask.shape == (32, 32)
        assert 0 < mask.sum() < 32 * 32

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            shape_mask("hexagon", 16, (0.5, 0.5), 0.3, np.random.default_rng(0))

    def test_disk_centered(self):
        mask = shape_mask("disk", 33, (0.5, 0.5), 0.2, np.random.default_rng(0))
        assert mask[16, 16] == 1.0
        assert mask[0, 0] == 0.0

    def test_ring_has_hole(self):
        mask = shape_mask("ring", 41, (0.5, 0.5), 0.4, np.random.default_rng(0))
        assert mask[20, 20] == 0.0


class TestBackground:
    def test_shape_and_range(self):
        image = render_background(24, np.random.default_rng(0))
        assert image.shape == (24, 24, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_different_seeds_differ(self):
        a = render_background(16, np.random.default_rng(0))
        b = render_background(16, np.random.default_rng(1))
        assert not np.allclose(a, b)


class TestRenderObject:
    def test_changes_image(self):
        rng = np.random.default_rng(0)
        background = render_background(32, rng)
        composed = render_object(background, get_category("komondor"), rng)
        assert not np.allclose(background, composed)
        assert composed.min() >= 0.0 and composed.max() <= 1.0

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(0)
        background = render_background(16, rng)
        copy = background.copy()
        render_object(background, get_category("acorn"), rng)
        np.testing.assert_allclose(background, copy)


class TestRenderImage:
    def test_positive_and_negative_shapes(self):
        rng = np.random.default_rng(0)
        category = get_category("scorpion")
        pos = render_image(category, 32, True, rng, TABLE2_CATEGORIES)
        neg = render_image(category, 32, False, rng, TABLE2_CATEGORIES)
        assert pos.shape == neg.shape == (32, 32, 3)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            render_image(get_category("acorn"), 4, True, np.random.default_rng(0))

    def test_positive_images_contain_category_color_signature(self):
        """Positives carry, on average, more of the category's color than negatives."""
        rng = np.random.default_rng(1)
        category = get_category("pinwheel")  # strongly blue
        pos = np.stack([render_image(category, 32, True, rng)
                        for _ in range(8)])
        neg = np.stack([render_image(category, 32, False, rng)
                        for _ in range(8)])
        blue_excess = lambda imgs: (imgs[..., 2] - imgs[..., 0]).mean()
        assert blue_excess(pos) > blue_excess(neg)


@settings(max_examples=15, deadline=None)
@given(size=st.sampled_from([16, 24, 32]), positive=st.booleans(),
       index=st.integers(0, len(TABLE2_CATEGORIES) - 1))
def test_render_image_always_in_unit_range(size, positive, index):
    rng = np.random.default_rng(size + index)
    image = render_image(TABLE2_CATEGORIES[index], size, positive, rng,
                         TABLE2_CATEGORIES)
    assert image.shape == (size, size, 3)
    assert image.min() >= 0.0 and image.max() <= 1.0


#: No Table II category is drawn as a checkerboard.
CHECKER = CategoryDef("checkerboard", "n00000000", "checker", (0.4, 0.6, 0.2), 5.0)
#: Blob, stripes, checker and star: the shapes with their own draw or
#: their own periodic cells; every subset below includes them.
FOCUS = (get_category("amphibian"), get_category("fence"), CHECKER,
         get_category("pinwheel"))
OTHERS = tuple(c for c in TABLE2_CATEGORIES if c not in FOCUS)
subsets = st.lists(st.sampled_from(OTHERS), unique=True, max_size=3).map(
    lambda extra: FOCUS + tuple(extra))


def same_bytes(batch, frames):
    return batch.tobytes() == np.stack(frames).tobytes()


@settings(max_examples=40, deadline=None)
@given(size=st.integers(8, 40), seed=st.integers(0, 2 ** 32 - 1),
       categories=subsets, data=st.data())
def test_painted_batch_rows_are_the_per_frame_objects(size, seed, categories,
                                                      data):
    """render_background + render_object per frame == one painted batch."""
    objects = data.draw(st.lists(
        st.lists(st.sampled_from(categories), max_size=3),
        min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    frames = []
    for frame_objects in objects:
        image = render_background(size, rng)
        for category in frame_objects:
            image = render_object(image, category, rng)
        frames.append(image)

    batch_rng = np.random.default_rng(seed)
    plan = FramePlan(len(objects), size)
    for index, frame_objects in enumerate(objects):
        plan.draw_background(index, batch_rng)
        for category in frame_objects:
            plan.draw_object(index, category, batch_rng)
    assert same_bytes(plan.paint(), frames)
    assert batch_rng.bit_generator.state == rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(size=st.integers(8, 40), seed=st.integers(0, 2 ** 32 - 1),
       categories=subsets, data=st.data())
def test_painted_batch_rows_are_the_per_frame_images(size, seed, categories,
                                                     data):
    """render_image per frame == the same examples drawn into one batch."""
    examples = data.draw(st.lists(
        st.tuples(st.sampled_from(categories), st.booleans()),
        min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    frames = [render_image(target, size, positive, rng, categories)
              for target, positive in examples]

    batch_rng = np.random.default_rng(seed)
    plan = FramePlan(len(examples), size)
    for index, (target, positive) in enumerate(examples):
        plan.draw_image(index, target, positive, batch_rng, categories)
    assert same_bytes(plan.paint(), frames)
    assert batch_rng.bit_generator.state == rng.bit_generator.state
