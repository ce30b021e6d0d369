"""OpenBLAS's thread count held at one: a re-entrant, cross-thread scope that
restores the saved count, a no-op without OpenBLAS, and unchanged matmuls."""

import threading

import numpy as np
import pytest

from repro.nn import blas


class StubLibrary:
    """A fake ``(get, set)`` pair recording every count it is set to."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.calls: list[int] = []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.calls.append(threads)
        self.threads = threads


def test_serial_nests_across_threads_and_restores_the_count():
    library = StubLibrary(threads=4)
    count = blas.ThreadCount((library.get, library.set))
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with count.serial():
            first_in.set()
            assert second_in.wait(timeout=10)
            seen["first"] = library.threads
        first_out.set()

    def second():
        assert first_in.wait(timeout=10)
        with count.serial():
            second_in.set()
            assert first_out.wait(timeout=10)
            # The first thread left; this one still holds the count at 1.
            seen["second"] = library.threads

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {"first": 1, "second": 1}
    assert library.calls == [1, 4]
    assert library.threads == 4


def test_serial_is_reentrant_on_one_thread():
    library = StubLibrary(threads=2)
    count = blas.ThreadCount((library.get, library.set))
    with count.serial():
        with count.serial():
            assert library.threads == 1
        assert library.threads == 1
    assert library.calls == [1, 2]


def test_serial_restores_the_count_when_the_body_raises():
    library = StubLibrary(threads=3)
    count = blas.ThreadCount((library.get, library.set))
    with pytest.raises(RuntimeError):
        with count.serial():
            raise RuntimeError("boom")
    assert library.threads == 3


def test_no_openblas_means_no_op():
    maps = ["55d0c0a00000-55d0c0a21000 r--p 00000000 fe:00 101 /usr/bin/python3\n",
            "7f1c2a000000-7f1c2a028000 r--p 00000000 fe:00 202 "
            "/usr/lib/x86_64-linux-gnu/libc.so.6\n",
            "7ffd1b5e6000-7ffd1b607000 rw-p 00000000 00:00 0 [stack]\n",
            "7f1c2b000000-7f1c2b001000 rw-p 00000000 00:00 0\n"]
    assert blas.find_openblas(maps) is None
    count = blas.ThreadCount(None)
    assert not count.available
    with count.serial():
        pass


needs_openblas = pytest.mark.skipif(not blas.available(),
                                    reason="no OpenBLAS loaded")


@needs_openblas
def test_serial_holds_the_process_openblas_at_one_thread():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        get, _ = blas.find_openblas(maps)
    before = get()
    with blas.serial():
        assert get() == 1
    assert get() == before


@needs_openblas
@pytest.mark.parametrize("m, k, n", [(65536, 9, 4), (65536, 27, 4),
                                     (16384, 36, 4), (256, 256, 8)])
def test_matmul_byte_identical_inside_serial(m, k, n):
    """The served conv (im2col) and dense shapes: the thread count picks
    how OpenBLAS splits the work, never the result."""
    rng = np.random.default_rng(m + k + n)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    threaded = a @ b
    with blas.serial():
        single = a @ b
    assert threaded.tobytes() == single.tobytes()
