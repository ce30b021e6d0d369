"""Static lock-discipline checker: guarded state vs. ``with <lock>:`` regions.

The checker consumes what :func:`repro.analysis.guards.scan_module`
discovers from the ``# guarded by:`` comments.  For every class with guarded
state in reach — its own or a same-module base's attributes, or a state
object's fields declared in the same module — it walks each method,
tracking which statements execute inside a ``with <lock>:`` region
(including aliased state objects: ``state = self._state`` followed by
``with state.lock:``).  It reports:

* **unguarded-write** — a guarded attribute is rebound, item-assigned,
  deleted or mutated in place outside the lock;
* **unguarded-read** — a guarded attribute is read outside the lock;
* **escape** — a guarded *mutable* container is returned by bare reference
  (``return self._materialized``): the caller would then hold shared
  mutable state with no lock;
* **bad-guard** — a declaration that cannot bind: no enclosing class, a
  lock the class never assigns, or a line that binds nothing.

The analysis is deliberately method-local: a called-with-lock helper's body
counts as inside its lock region, and its callers are trusted (the runtime
sanitizer asserts the lock on entry).  ``__init__`` is treated as holding
every lock because the object is unpublished while it runs.  Nested
functions (closures handed to other threads) do **not** inherit the
enclosing lock region.  A ``# unguarded ok: <reason>`` comment suppresses
the findings on its line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.guards import (Guard, iter_sources, lineage, scan_module,
                                   suppressed_lines)

__all__ = ["Finding", "check_lock_discipline", "lock_discipline"]

#: dict/list/set methods that mutate the receiver in place: calling one on a
#: guarded attribute counts as a write, not a read.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
})


@dataclass(frozen=True)
class Finding:
    """One violation, formatted ``path:line: [rule] message``."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_lock_discipline(root: Path | None = None) -> list[Finding]:
    """Check every declared lock contract under ``root`` (the installed
    ``repro`` package when omitted); returns findings sorted by location."""
    return lock_discipline(root)[0]


def lock_discipline(root: Path | None = None
                    ) -> tuple[list[Finding], tuple[Guard, ...]]:
    """:func:`check_lock_discipline`'s findings plus the declarations they
    were checked against (:func:`repro.analysis.guards.discover`'s), from
    one walk of the tree."""
    findings: list[Finding] = []
    declared: list[Guard] = []
    for path, source in iter_sources(root):
        guards, problems = scan_module(path, source)
        declared += guards
        raw = [Finding(path, line, "bad-guard", reason)
               for line, reason in problems]
        if guards:
            raw.extend(_check_module(path, ast.parse(source), guards))
        suppressed = suppressed_lines(source, "unguarded")
        findings.extend(f for f in raw if f.line not in suppressed)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, tuple(declared)


def _check_module(path: str, tree: ast.Module,
                  guards: list[Guard]) -> list[Finding]:
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    findings: list[Finding] = []
    for cls in classes.values():
        owners = {owner.name for owner in lineage(cls, classes)}
        own = {g.name: g for g in guards
               if not g.helper and g.cls in owners}
        state = {g.name: g for g in guards
                 if g.state_object and g.cls != cls.name}
        if not own and not state:
            continue
        helpers = {g.name: g for g in guards
                   if g.helper and g.cls == cls.name}
        findings.extend(
            _ClassChecker(path, cls.name, own, state, helpers).check(cls))
    return findings


class _ClassChecker:
    """Walks one class's methods, flagging unguarded access and escapes.

    Locks are attribute chains from ``self`` (``('_lock',)``,
    ``('_state', 'lock')``); a region holds the set of chains its enclosing
    ``with`` statements (or the helper declaration) took.
    """

    def __init__(self, path: str, cls: str, own: dict[str, Guard],
                 state: dict[str, Guard], helpers: dict[str, Guard]) -> None:
        self.path = path
        self.cls = cls
        self.own = own
        self.state = state
        self.helpers = helpers
        self.aliases: dict[str, tuple[str, ...]] = {}
        self.findings: list[Finding] = []

    def check(self, cls: ast.ClassDef) -> list[Finding]:
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name != "__init__"):
                # __init__ runs on an unpublished object: lock held by
                # convention.
                self._check_method(node)
        return self.findings

    def _check_method(self, fn: ast.FunctionDef) -> None:
        helper = self.helpers.get(fn.name)
        held = frozenset({helper.lock_path}) if helper else frozenset()
        self.aliases = self._state_aliases(fn)
        for stmt in fn.body:
            self._scan(stmt, held, fn)

    # Aliasing: ``state = self._state`` makes ``state.lock`` the lock and
    # ``state.entries`` a guarded access for the rest of the method.
    def _state_aliases(self, fn: ast.FunctionDef) -> dict[str, tuple[str, ...]]:
        aliases: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"):
                aliases[node.targets[0].id] = (node.value.attr,)
        return aliases

    def _chain(self, node: ast.expr) -> tuple[str, ...] | None:
        """The attribute chain from ``self`` that ``node`` names (``()`` for
        ``self``), or ``None``."""
        if isinstance(node, ast.Name):
            return () if node.id == "self" else self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._chain(node.value)
            return None if base is None else base + (node.attr,)
        return None

    def _guard_of(self, node: ast.expr
                  ) -> tuple[Guard, tuple[str, ...]] | None:
        """The guard ``node`` accesses and the lock chain it needs."""
        if not isinstance(node, ast.Attribute):
            return None
        base = self._chain(node.value)
        if base == () and node.attr in self.own:
            guard = self.own[node.attr]
            return guard, guard.lock_path
        if base is not None and len(base) == 1 and node.attr in self.state:
            guard = self.state[node.attr]
            return guard, base + guard.lock_path
        return None

    def _scan(self, node: ast.AST, held: frozenset, fn: ast.FunctionDef
              ) -> None:
        if isinstance(node, ast.With):
            taken = {self._chain(item.context_expr) for item in node.items}
            for item in node.items:
                self._scan(item.context_expr, held, fn)
            for stmt in node.body:
                self._scan(stmt, held | taken, fn)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # A closure may run on another thread after the region exits:
            # it never inherits the enclosing lock.
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self._scan(stmt, frozenset(), fn)
            return
        if isinstance(node, ast.Return) and node.value is not None:
            found = self._guard_of(node.value)
            if found is not None and found[0].mutable:
                self._report(node.lineno, "escape",
                             f"{self.cls}.{fn.name} returns guarded "
                             f"mutable {found[0].name!r} by reference; "
                             f"return a copy or a frozen snapshot")
        if isinstance(node, ast.Attribute):
            found = self._guard_of(node)
            if found is not None and found[1] not in held:
                self._report_access(node, found[0].name, found[1], fn)
            node.value._lockcheck_parent = node  # type: ignore[attr-defined]
            self._scan(node.value, held, fn)
            return
        for child in ast.iter_child_nodes(node):
            # Parent pointers for write classification (subscript stores,
            # in-place mutator calls) are attached on the way down.
            child._lockcheck_parent = node  # type: ignore[attr-defined]
            self._scan(child, held, fn)

    def _report_access(self, node: ast.Attribute, attr: str,
                       lock: tuple[str, ...], fn: ast.FunctionDef) -> None:
        is_write = self._is_write(node)
        rule = "unguarded-write" if is_write else "unguarded-read"
        verb = "written" if is_write else "read"
        self._report(node.lineno, rule,
                     f"{self.cls}.{attr} {verb} in {fn.name}() without "
                     f"holding self.{'.'.join(lock)}")

    def _is_write(self, node: ast.Attribute) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parent = getattr(node, "_lockcheck_parent", None)
        # self._x[k] = v  /  del self._x[k]
        if (isinstance(parent, ast.Subscript) and parent.value is node
                and isinstance(parent.ctx, (ast.Store, ast.Del))):
            return True
        # self._x.clear() and friends
        if (isinstance(parent, ast.Attribute) and parent.value is node
                and parent.attr in _MUTATORS):
            grand = getattr(parent, "_lockcheck_parent", None)
            return isinstance(grand, ast.Call) and grand.func is parent
        return False

    def _report(self, line: int, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, line, rule, message))
