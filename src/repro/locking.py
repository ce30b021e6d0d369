"""Named lock construction: one factory for every lock the engine owns.

Every long-lived lock in the repository — per-shard executor locks, the
write-ahead-log append lock, the shared representation-store lock, the
catalog lock and the serving layer's locks — is created through
:func:`make_lock` / :func:`make_rlock` with a short descriptive name
(``"executor:cam_0"``, ``"wal:cam_0"``, ``"store"``, ``"admission"``, ...).

By default both functions return plain :mod:`threading` primitives with zero
overhead.  The runtime concurrency sanitizer
(:mod:`repro.analysis.sanitizer`) installs a factory hook here, so under
``pytest --sanitize`` the same call sites hand back instrumented locks that
record per-thread acquisition order and detect lock-order inversions — with
the lock *names* making the reports readable.

This module must stay a leaf: it is imported by ``db/``, ``storage/`` and
``server/`` and may import nothing of theirs (nor :mod:`repro.analysis`).
"""

from __future__ import annotations

import threading

__all__ = ["make_lock", "make_rlock", "set_lock_factory"]

#: The active factory, or ``None`` for plain threading primitives.  A factory
#: is any object with ``lock(name)`` and ``rlock(name)`` methods; the
#: sanitizer installs one via :func:`set_lock_factory`.
_factory = None


def make_lock(name: str):
    """A (possibly instrumented) non-reentrant lock labeled ``name``."""
    if _factory is not None:
        return _factory.lock(name)
    return threading.Lock()


def make_rlock(name: str):
    """A (possibly instrumented) reentrant lock labeled ``name``."""
    if _factory is not None:
        return _factory.rlock(name)
    return threading.RLock()


def set_lock_factory(factory):
    """Install ``factory`` (or ``None`` to restore plain locks); returns the
    previous factory.

    Only affects locks created *after* the call — live objects keep the
    locks they were built with, which keep working either way.
    """
    global _factory
    previous = _factory
    _factory = factory
    return previous
