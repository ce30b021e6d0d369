"""The guard registry: which attributes are protected by which locks.

The lock discipline the engine relies on is declared twice, on purpose:

* **in the source**, as a ``# guarded by: <lock expr>`` comment on the line
  that introduces each guarded attribute (``self._materialized = {} #
  guarded by: self._lock``), so a reader at the definition site sees the
  contract, and
* **here**, as a machine-readable :class:`GuardSpec` per class, so the
  static checker (:mod:`repro.analysis.lockcheck`) and the runtime
  sanitizer (:mod:`repro.analysis.sanitizer`) share one source of truth.

The checker cross-verifies the two: an attribute annotated in the source
but missing from the manifest (or vice versa) is itself a finding, so the
registry can never silently drift from the code.

Escape hatches, both deliberate and auditable:

* ``lock_held`` methods are internal helpers *always called with the lock
  already held* — the checker trusts the list instead of doing
  interprocedural analysis, and the list is part of the reviewed manifest;
* ``lock_free`` methods may **read** guarded state without the lock
  (snapshot-style reads of references that mutators replace, never write in
  place); writes inside them are still flagged;
* a ``# unguarded ok: <reason>`` comment suppresses findings on one line —
  the reason is mandatory, so every suppression documents itself.

:data:`CONFINED` lists state that is safe *without* any lock because it is
confined to a single thread by construction (a :class:`~repro.server
.session.Session` lives entirely on its connection's handler thread); the
checker verifies those attributes exist so the inventory stays honest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["GuardSpec", "ConfinedSpec", "REGISTRY", "CONFINED",
           "SOURCE_ROOT", "parse_annotations", "suppressed_lines"]

#: The package root the registry's relative paths resolve against.
SOURCE_ROOT = Path(__file__).resolve().parent.parent

_ANNOTATION_RE = re.compile(
    r"^\s*(?:self\.)?(?P<attr>\w+)\s*[:=].*#\s*guarded by:\s*(?P<lock>\S+)")
_SUPPRESS_RE = re.compile(r"#\s*unguarded ok:\s*\S")
_DURABILITY_SUPPRESS_RE = re.compile(r"#\s*durability ok:\s*\S")


@dataclass(frozen=True)
class GuardSpec:
    """Lock discipline for one class.

    Parameters
    ----------
    path:
        Module file, relative to the ``repro`` package root.
    cls:
        The class owning the guarded state.
    lock:
        Attribute name of the guarding lock on the receiver object.
    guarded:
        Attribute names that must only be touched with the lock held.
    state:
        When set, the guarded attributes live on ``self.<state>`` (and the
        lock is ``self.<state>.<lock>``) rather than on ``self`` — the
        representation store keeps its shared state on a ``_StoreState``
        object every namespaced view aliases.
    lock_held:
        Internal helpers whose *callers* always hold the lock.
    lock_free:
        Methods allowed to read guarded references without the lock
        (snapshot reads); writes in them are still findings.
    mutable:
        The subset of ``guarded`` that is a mutable container — returning
        one of these by bare reference (instead of a copy or a frozen
        snapshot) is an escape finding even with the lock held.
    runtime:
        The subset of ``guarded`` whose *rebinding writes* the runtime
        sanitizer asserts happen with the lock held (attribute assignment
        is hookable; item mutation is the static checker's job).
    """

    path: str
    cls: str
    lock: str = "_lock"
    guarded: frozenset = frozenset()
    state: str | None = None
    lock_held: frozenset = frozenset()
    lock_free: frozenset = frozenset()
    mutable: frozenset = frozenset()
    runtime: frozenset = frozenset()

    def file(self, root: Path | None = None) -> Path:
        return (root if root is not None else SOURCE_ROOT) / self.path


@dataclass(frozen=True)
class ConfinedSpec:
    """State declared safe by thread confinement rather than a lock."""

    path: str
    cls: str
    attrs: frozenset
    note: str = ""


def _fs(*names: str) -> frozenset:
    return frozenset(names)


REGISTRY: tuple[GuardSpec, ...] = (
    GuardSpec(
        path="db/executor.py",
        cls="QueryExecutor",
        guarded=_fs("_id_offset", "_epoch", "_wal", "_materialized",
                    "_base_relation", "retention"),
        lock_held=_fs("_rebuild_base_relation", "_pad_materialized",
                      "_drop_rows", "_materialize_tail"),
        lock_free=_fs("relation", "id_offset", "wal"),
        mutable=_fs("_materialized"),
        runtime=_fs("_id_offset", "_epoch", "_wal", "_materialized",
                    "_base_relation", "retention"),
    ),
    GuardSpec(
        path="db/wal.py",
        cls="TableWal",
        guarded=_fs("_generation", "_counts", "_handle", "_closed"),
        lock_held=_fs("_ensure_open"),
        lock_free=_fs("generation", "closed"),
        mutable=_fs("_counts"),
    ),
    GuardSpec(
        path="db/catalog.py",
        cls="Catalog",
        guarded=_fs("_executors"),
        mutable=_fs("_executors"),
    ),
    GuardSpec(
        path="storage/store.py",
        cls="RepresentationStore",
        state="_state",
        lock="lock",
        guarded=_fs("entries", "registered"),
        lock_held=_fs("_own_keys", "_evict", "_enforce_budget"),
        mutable=_fs("entries", "registered"),
    ),
    GuardSpec(
        path="server/admission.py",
        cls="AdmissionController",
        guarded=_fs("_closing", "_abandoned", "_running", "_waiting"),
    ),
    GuardSpec(
        path="server/plan_cache.py",
        cls="PlanCache",
        guarded=_fs("_entries"),
        mutable=_fs("_entries"),
    ),
    GuardSpec(
        path="server/server.py",
        cls="VisualDatabaseServer",
        guarded=_fs("_sessions", "_closed", "_thread"),
        lock_free=_fs("__repr__"),
    ),
    GuardSpec(
        path="telemetry/metrics.py",
        cls="MetricsRegistry",
        guarded=_fs("_metrics"),
        mutable=_fs("_metrics"),
    ),
    GuardSpec(
        path="telemetry/metrics.py",
        cls="Counter",
        guarded=_fs("_series"),
        mutable=_fs("_series"),
    ),
    GuardSpec(
        path="telemetry/metrics.py",
        cls="Gauge",
        guarded=_fs("_series", "_functions"),
        mutable=_fs("_series", "_functions"),
    ),
    GuardSpec(
        path="telemetry/metrics.py",
        cls="Histogram",
        guarded=_fs("_series"),
        mutable=_fs("_series"),
    ),
    GuardSpec(
        path="telemetry/trace.py",
        cls="Span",
        guarded=_fs("_children", "_attrs", "_elapsed_s", "_error"),
        lock_held=_fs("_as_dict"),
        mutable=_fs("_children", "_attrs"),
        runtime=_fs("_elapsed_s", "_error"),
    ),
    GuardSpec(
        path="telemetry/trace.py",
        cls="Tracer",
        guarded=_fs("_next_id", "_recent"),
        mutable=_fs("_recent"),
        runtime=_fs("_next_id"),
    ),
)

CONFINED: tuple[ConfinedSpec, ...] = (
    ConfinedSpec(
        path="server/session.py",
        cls="Session",
        attrs=_fs("_cursors", "_next_cursor", "closed"),
        note="a Session is owned by one connection handler thread; cursors "
             "are never shared across connections",
    ),
)

#: Modules the durability lint (:mod:`repro.analysis.durability`) covers.
DURABILITY_MODULES: tuple[str, ...] = ("db/wal.py", "db/persistence.py")


def parse_annotations(source: str) -> dict[str, list[tuple[str, int]]]:
    """``{attr: [(lock expr, line)]}`` for every ``# guarded by:`` line in
    ``source``."""
    found: dict[str, list[tuple[str, int]]] = {}
    for number, line in enumerate(source.splitlines(), 1):
        match = _ANNOTATION_RE.match(line)
        if match:
            found.setdefault(match.group("attr"), []).append(
                (match.group("lock"), number))
    return found


def suppressed_lines(source: str, *, durability: bool = False) -> set[int]:
    """1-based line numbers carrying a suppression comment (with a reason)."""
    pattern = _DURABILITY_SUPPRESS_RE if durability else _SUPPRESS_RE
    return {number for number, line in enumerate(source.splitlines(), 1)
            if pattern.search(line)}
