"""OpenBLAS's thread count, held at one while fan-out shards run in parallel.

A cold fan-out classifies its shards on a thread pool, one shard per core
(:meth:`repro.db.database.VisualDatabase._fanout_results`).  OpenBLAS's own
threads must stay out of the way while it does, for two reasons measured on
a 2-vCPU host:

* after every multi-threaded call, OpenBLAS's worker thread busy-waits for
  about 0.1 s and holds the second core: after one conv-sized matmul, the
  process burned 0.12 s of CPU during a 0.2 s sleep.  A shard pool that
  left it running bought nothing, and the loss was blamed on the GIL;
* the threading gains nothing on the engine's shapes: classifying 4 × 1024
  rows took 163–183 ms with OpenBLAS's default threads and 148–171 ms at
  one thread.

The count does not change results: ``A @ B`` is byte-identical at one and
two threads for every conv and dense shape the engine serves (see
``tests/nn/test_blas.py``).

:func:`serial` is the one switch: a re-entrant scope in which the first
thread in saves the count and sets it to 1, and the last thread out
restores it.  Outside the scope nothing changes, so other matmuls — the
end-to-end benchmark's float32 reference kernel among them — keep
OpenBLAS's threads.  The library is the OpenBLAS this process loaded, found
in ``/proc/self/maps``; where there is none (another BLAS, another OS),
:func:`serial` does nothing and :func:`available` is false.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from typing import Callable, Iterable, Iterator

from repro.locking import make_lock

__all__ = ["ThreadCount", "available", "find_openblas", "serial"]

#: ``(get, set)`` symbol pairs, in lookup order: OpenBLAS's own spelling,
#: then the suffixed ILP64 one of the OpenBLAS numpy's wheels bundle.
_SYMBOLS = (("openblas_get_num_threads", "openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"))

Functions = tuple[Callable[[], int], Callable[[int], None]]


def find_openblas(maps: Iterable[str]) -> Functions | None:
    """The ``(get, set)`` thread-count functions of the first OpenBLAS
    mapped in ``maps`` (lines of ``/proc/<pid>/maps``), or ``None``.

    Only a library already loaded is opened (``RTLD_NOLOAD``): the switch
    must act on the copy numpy calls, never load a second one.
    """
    for line in maps:
        fields = line.split(None, 5)
        path = fields[5].strip() if len(fields) == 6 else ""
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            try:
                get, set_ = getattr(library, get_name), getattr(library,
                                                                set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class ThreadCount:
    """A BLAS thread count that :meth:`serial` holds at one.

    ``functions`` is the library's ``(get, set)`` pair, or ``None`` for no
    BLAS to control (then :meth:`serial` does nothing).
    """

    def __init__(self, functions: Functions | None) -> None:
        self._functions = functions
        # Threads inside serial(), and the count the first of them saved.
        self._holders = 0  # guarded by: self._lock
        self._saved = 1  # guarded by: self._lock
        # Attached last, so the guarded-write sanitizer reads the two
        # assignments above as construction.
        self._lock = make_lock("blas-threads")

    @property
    def available(self) -> bool:
        """Whether there is a library whose count :meth:`serial` holds."""
        return self._functions is not None

    @contextlib.contextmanager
    def serial(self) -> Iterator[None]:
        """Hold the count at one while any thread is inside this scope."""
        if self._functions is None:
            yield
            return
        get, set_ = self._functions
        with self._lock:
            if self._holders == 0:
                self._saved = get()
                set_(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    set_(self._saved)


def _read_maps() -> Functions | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            return find_openblas(maps)
    except OSError:
        return None


# One instance per process: OpenBLAS's count is process-wide, so every caller
# must share one refcount.  numpy, and with it OpenBLAS, is loaded by the
# time this runs (``repro.nn`` imports it first).
_PROCESS = ThreadCount(_read_maps())


def available() -> bool:
    """Whether this process loaded an OpenBLAS :func:`serial` can hold."""
    return _PROCESS.available


def serial() -> contextlib.AbstractContextManager[None]:
    """Hold OpenBLAS at one thread while any thread is inside this scope."""
    return _PROCESS.serial()
