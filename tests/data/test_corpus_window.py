"""Property test for the corpus's streaming window buffer.

Random interleavings of appends (with a string column that widens), drops
and reads are checked against a plain list-of-rows model: contents, length
and ids match; every array handed out earlier still holds its bytes; and the
buffer never grows past twice the rows it held when it was allocated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corpus import ImageCorpus

READS = ("images", "metadata", "content", "images_from")

operations = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 70), st.integers(1, 12)),
    st.tuples(st.just("drop"), st.integers(0, 160)),
    st.tuples(st.just("read"), st.sampled_from(READS), st.integers(0, 90)),
), max_size=40)


def rows(first: int, n: int, width: int):
    """``n`` rows whose every column encodes the row id."""
    ids = np.arange(first, first + n)
    images = np.broadcast_to(ids[:, None, None, None].astype(np.float64),
                             (n, 2, 2, 1)).copy()
    labels = np.array([f"{i:0{width}d}"[-width:] for i in ids],
                      dtype=f"U{width}")
    metadata = {"label": labels, "stamp": ids.astype(np.float64)}
    content = {"flag": ids % 3 == 0}
    return images, metadata, content


def capacity(corpus: ImageCorpus) -> int:
    return int(corpus._buffer["images"].shape[0])


@settings(max_examples=300, deadline=None)
@given(initial=st.integers(0, 70), ops=operations)
def test_window_buffer_matches_a_list_of_rows(initial, ops):
    images, metadata, content = rows(0, initial, 2)
    corpus = ImageCorpus(images, metadata, content)
    model = [(i, label) for i, label in enumerate(metadata["label"])]
    next_id, pending = initial, 0
    handed_out: list[tuple[np.ndarray, np.ndarray]] = []
    buffer, peak = corpus._buffer["images"], initial

    def expect(array, column, start=0):
        live = model[start:]
        values = array[:, 0, 0, 0] if column == "images" else array
        ids = np.array([i for i, _ in live], dtype=np.int64)
        if column == "label":
            assert values.tolist() == [label for _, label in live]
        elif column == "flag":
            np.testing.assert_array_equal(values, ids % 3 == 0)
        else:
            np.testing.assert_array_equal(values, ids.astype(np.float64))
        assert not array.flags.writeable
        handed_out.append((array, array.copy()))

    for op in ops:
        before = len(model)
        if op[0] == "append":
            _, n, width = op
            images, metadata, content = rows(next_id, n, width)
            new_ids = corpus.append(images, metadata, content)
            np.testing.assert_array_equal(new_ids, np.arange(before,
                                                             before + n))
            model += [(i, label) for i, label in
                      zip(range(next_id, next_id + n), metadata["label"])]
            next_id += n
            pending += 1
        elif op[0] == "drop":
            dropped = corpus.drop_oldest(op[1])
            assert dropped == min(op[1], before)
            del model[:dropped]
            if dropped:
                pending = 0
        else:
            _, read, start = op
            if read == "images":
                expect(corpus.images, "images")
            elif read == "images_from":
                expect(corpus.images_from(start), "images", start)
            else:
                columns = getattr(corpus, read)
                for key in columns:
                    expect(columns[key], key)
                with pytest.raises(TypeError):
                    columns["extra"] = columns[next(iter(columns))]
            pending = 0

        assert len(corpus) == len(model)
        assert corpus.segment_count == 1 + pending
        for array, recorded in handed_out:
            assert array.dtype == recorded.dtype
            assert array.tobytes() == recorded.tobytes()
        if corpus._buffer["images"] is not buffer:
            # A fold reallocated: at twice the rows the op started with.
            buffer, peak = corpus._buffer["images"], before
            assert capacity(corpus) == 2 * before
        peak = max(peak, len(model))
        assert capacity(corpus) <= 2 * peak
