"""Runtime concurrency sanitizer: instrumented locks + guarded-write checks.

Where the static checker (:mod:`repro.analysis.lockcheck`) proves discipline
about code *shape*, the sanitizer watches actual executions.  Enabled (via
``pytest --sanitize`` or :func:`enable`), it does two things:

* **lock-order inversion detection** — :func:`repro.locking.make_lock` /
  ``make_rlock`` hand back :class:`SanitizedLock` wrappers that maintain a
  per-thread stack of held locks and a global acquired-while-holding edge
  graph.  The moment an acquisition would close a cycle (lock A taken under
  B somewhere, B taken under A elsewhere — a potential deadlock even if this
  run happened not to interleave fatally), a :class:`Violation` records both
  acquisition stacks.  Reentrant re-acquisition of an RLock adds no edge.
* **guarded-write assertion** — for every attribute a ``# guarded by:``
  comment declares (:func:`repro.analysis.guards.discover`), the owning
  class's ``__setattr__`` is patched to assert the instance's lock is held
  by the current thread whenever the attribute is rebound.  Writes from the
  instance's own ``__init__`` (the object is unpublished), writes before
  the lock exists and writes to objects built with plain locks are skipped.
* **lock-held assertion** — every helper declared called-with-lock is
  wrapped to assert, on entry, that its lock is held by the current thread
  (again skipping plain locks).

Violations are *recorded*, never raised, so the offending test still runs
to completion; the ``--sanitize`` conftest hook fails any test that left
violations behind.  :func:`take_violations` drains the list.

Edges are keyed by a per-lock serial number (never by ``id()``, which the
allocator reuses), so the graph stays sound across the lifetime of a whole
test session without keeping dead locks alive.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from functools import wraps

from repro import locking
from repro.analysis.guards import Guard, discover

__all__ = ["SanitizedLock", "Violation", "enable", "disable", "enabled",
           "take_violations", "reset"]


@dataclass
class Violation:
    """One recorded sanitizer finding.

    ``kind`` is ``"lock-order"`` (``other_stack`` holds the acquisition that
    established the opposite edge), ``"guarded-write"`` or ``"lock-held"``.
    """

    kind: str
    message: str
    stack: str
    other_stack: str = ""

    def __str__(self) -> str:
        text = f"[{self.kind}] {self.message}\n--- offending stack ---\n" \
               f"{self.stack}"
        if self.other_stack:
            text += f"--- conflicting earlier stack ---\n{self.other_stack}"
        return text


# The sanitizer's own state is guarded by a *plain* lock (never one of its
# own wrappers) and is leaf-level: nothing is called while holding it.
_state_lock = threading.Lock()
_violations: list[Violation] = []
_edges: dict[tuple[int, int], str] = {}      # (held_uid, acquired_uid) -> stack
_adjacency: dict[int, set[int]] = {}         # held_uid -> {acquired_uid}
_lock_names: dict[int, str] = {}
_uid_counter = itertools.count(1)

_tls = threading.local()
_enabled = False
_patched: list[tuple[type, str, object]] = []  # (class, attr, own value)


def _held_locks() -> list["SanitizedLock"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _capture_stack() -> str:
    # Drop the sanitizer's own frames from the tail so the report points at
    # the acquiring code.
    return "".join(traceback.format_stack()[:-3])


class SanitizedLock:
    """A named Lock/RLock wrapper feeding the lock-order graph.

    Context-manager and ``acquire``/``release`` compatible with the plain
    primitives it wraps; ``held_by_current_thread()`` is the extra hook the
    guarded-write and lock-held assertions use.
    """

    __slots__ = ("_inner", "name", "reentrant", "uid", "_holds")

    def __init__(self, inner, name: str, reentrant: bool) -> None:
        self._inner = inner
        self.name = name
        self.reentrant = reentrant
        self.uid = next(_uid_counter)
        self._holds = threading.local()

    def _depth(self) -> int:
        return getattr(self._holds, "depth", 0)

    def held_by_current_thread(self) -> bool:
        return self._depth() > 0

    def acquire(self, blocking: bool = True, timeout: float = -1):
        first = self._depth() == 0
        if first:
            # Record the ordering fact *before* blocking: if this very
            # acquisition deadlocks, the violation is already on file.
            _note_acquisition(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._holds.depth = self._depth() + 1
            if first:
                _held_locks().append(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        depth = self._depth() - 1
        self._holds.depth = depth
        if depth == 0:
            held = _held_locks()
            for index in range(len(held) - 1, -1, -1):
                if held[index] is self:
                    del held[index]
                    break

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SanitizedLock({self.name!r}, depth={self._depth()})"


def _note_acquisition(lock: SanitizedLock) -> None:
    held = [other for other in _held_locks() if other is not lock]
    if not held:
        return
    stack = _capture_stack()
    with _state_lock:
        _lock_names[lock.uid] = lock.name
        for other in held:
            _lock_names[other.uid] = other.name
            edge = (other.uid, lock.uid)
            if edge in _edges:
                continue
            # A path lock ~> other means the opposite order was already
            # observed; adding other -> lock closes the cycle.
            path = _find_path(lock.uid, other.uid)
            _edges[edge] = stack
            _adjacency.setdefault(other.uid, set()).add(lock.uid)
            if path is not None:
                chain = " -> ".join(_lock_names[uid] for uid in path)
                _violations.append(Violation(
                    kind="lock-order",
                    message=(f"lock-order inversion: acquiring "
                             f"{lock.name!r} while holding {other.name!r}, "
                             f"but the opposite order {chain} was observed "
                             f"earlier (potential deadlock)"),
                    stack=stack,
                    other_stack=_edges.get((path[0], path[1]), "")))


def _find_path(src: int, dst: int) -> list[int] | None:
    """BFS path src ~> dst in the edge graph, or ``None``.  Caller holds
    ``_state_lock``."""
    if src == dst:
        return [src]
    parents: dict[int, int] = {src: src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in _adjacency.get(node, ()):
            if nxt in parents:
                continue
            parents[nxt] = node
            if nxt == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(nxt)
    return None


def record_violation(kind: str, message: str) -> None:
    """Record a violation with the caller's stack (guarded-write and
    lock-held paths)."""
    stack = "".join(traceback.format_stack()[:-2])
    with _state_lock:
        _violations.append(Violation(kind=kind, message=message,
                                     stack=stack))


def take_violations() -> list[Violation]:
    """Drain and return every violation recorded since the last call."""
    with _state_lock:
        drained = list(_violations)
        _violations.clear()
    return drained


def reset() -> None:
    """Clear violations *and* the lock-order edge graph (test isolation)."""
    with _state_lock:
        _violations.clear()
        _edges.clear()
        _adjacency.clear()
        _lock_names.clear()


# -- activation ----------------------------------------------------------------
class _Factory:
    """The hook :mod:`repro.locking` calls while the sanitizer is enabled."""

    def lock(self, name: str) -> SanitizedLock:
        return SanitizedLock(threading.Lock(), name, reentrant=False)

    def rlock(self, name: str) -> SanitizedLock:
        return SanitizedLock(threading.RLock(), name, reentrant=True)


def _unheld(obj, lock_path: tuple[str, ...]) -> SanitizedLock | None:
    """The sanitized lock at ``lock_path`` from ``obj`` when the current
    thread does not hold it; ``None`` when held, plain or not built yet."""
    lock = obj
    for name in lock_path:
        lock = getattr(lock, name, None)
    if isinstance(lock, SanitizedLock) and not lock.held_by_current_thread():
        return lock
    return None


def _in_own_init(obj) -> bool:
    """Whether the nearest caller outside this module is ``obj``'s own
    ``__init__`` (a base's, reached through ``super()``, counts)."""
    frame = sys._getframe(1)
    while frame.f_code.co_filename == __file__:
        frame = frame.f_back
    return (frame.f_code.co_name == "__init__"
            and frame.f_locals.get("self") is obj)


def _make_setattr(attrs: dict[str, tuple[str, ...]], original):
    def guarded_setattr(self, name, value):
        lock_path = attrs.get(name)
        if lock_path is not None:
            lock = _unheld(self, lock_path)
            if lock is not None and not _in_own_init(self):
                record_violation(
                    "guarded-write",
                    f"{type(self).__name__}.{name} rebound without holding "
                    f"{lock.name!r}")
        original(self, name, value)

    return guarded_setattr


def _make_held_check(guard: Guard, fn):
    @wraps(fn)
    def checked(self, *args, **kwargs):
        lock = _unheld(self, guard.lock_path)
        if lock is not None:
            record_violation(
                "lock-held",
                f"{type(self).__name__}.{guard.name} called without holding "
                f"{lock.name!r}")
        return fn(self, *args, **kwargs)

    return checked


def _patch(cls: type, name: str, value) -> None:
    _patched.append((cls, name, cls.__dict__.get(name)))
    setattr(cls, name, value)


def enable() -> None:
    """Install instrumented locks and the guarded-write and lock-held
    assertions for every discovered declaration (idempotent).

    Only locks created *after* this call are instrumented — enable the
    sanitizer before building the objects under test."""
    global _enabled
    if _enabled:
        return
    locking.set_lock_factory(_Factory())
    by_class: dict[tuple[str, str], list[Guard]] = {}
    for guard in discover():
        by_class.setdefault((guard.path, guard.cls), []).append(guard)
    for (path, name), guards in by_class.items():
        module = "repro." + path[:-len(".py")].replace("/", ".")
        cls = getattr(importlib.import_module(module), name)
        # Each class checks only its own declarations.  A base's come first
        # in discovery order, so a subclass's wrapper wraps the base's and
        # an inherited attribute is still checked, once.
        attrs = {g.name: g.lock_path for g in guards if not g.helper}
        if attrs:
            _patch(cls, "__setattr__", _make_setattr(attrs, cls.__setattr__))
        for guard in guards:
            if guard.helper:
                _patch(cls, guard.name,
                       _make_held_check(guard, cls.__dict__[guard.name]))
    _enabled = True


def disable() -> None:
    """Restore plain locks and the patched class attributes (idempotent)."""
    global _enabled
    if not _enabled:
        return
    locking.set_lock_factory(None)
    for cls, name, original in reversed(_patched):
        if original is None:
            delattr(cls, name)
        else:
            setattr(cls, name, original)
    _patched.clear()
    _enabled = False


def enabled() -> bool:
    return _enabled
