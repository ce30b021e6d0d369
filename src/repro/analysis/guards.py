"""Lock contracts: the ``# guarded by:`` comment grammar and its discovery.

A lock contract is declared once, as a ``# guarded by: <lock>`` comment in
the source.  :func:`discover` walks the package, takes the declarations from
real comment tokens (a docstring that quotes the grammar is not a
declaration) and yields one :class:`Guard` per declaration — the listing
``python -m repro.analysis --list`` prints, the contracts
:mod:`repro.analysis.lockcheck` checks statically and the ones
:mod:`repro.analysis.sanitizer` asserts under ``pytest --sanitize``.

The comment has two positions:

* **Guarded attribute** — it ends the line that binds the attribute:
  ``self._epoch = 0  # guarded by: self._lock`` in a method, or a class-body
  field.  The owner is the enclosing class, and same-module subclasses
  inherit the contract.  The attribute is *mutable* (returning it by bare
  reference is an escape) when the bound value is a dict, list or set
  display, a ``dict`` / ``list`` / ``set`` / ``deque`` / ``OrderedDict``
  call, or ``field(default_factory=dict|list|set)``.
* **Called-with-lock helper** — a standalone comment directly under a
  ``def`` line declares that every caller holds the lock, so the helper's
  body counts as inside the lock region.

The lock is ``self.<attr>[.<attr>...]``, or a bare name for a **state
object**: ``# guarded by: lock`` means the lock is a sibling field of the
guarded one, and the module's other classes reach both through the same
``self.<x>`` or a local alias of it (``with state.lock:`` guards
``state.entries``).

A read that deliberately takes no lock — a snapshot of a reference that
mutators replace, never mutate in place — carries ``# unguarded ok:
<reason>`` on its line; the reason is mandatory, so every suppression
documents itself.  State confined to one thread needs no declaration:
what is not declared is not checked.

This module is also the one source walk every static pass shares:
:func:`iter_sources` yields the package's modules and
:func:`suppressed_lines` the lines a ``# <tag> ok: <reason>`` comment
exempts.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Guard", "SOURCE_ROOT", "discover", "iter_sources", "lineage",
           "scan_module", "suppressed_lines"]

#: The package root discovery walks when no other root is given.
SOURCE_ROOT = Path(__file__).resolve().parent.parent

#: Anchored at the ``#`` of a comment token, so prose that mentions the
#: phrase mid-comment is not a declaration.
_ANNOTATION_RE = re.compile(r"#\s*guarded by:\s*(?P<lock>.*?)\s*$")
_LOCK_RE = re.compile(r"self(?:\.[A-Za-z_]\w*)+|[A-Za-z_]\w*")

#: Constructors of a mutable container (``collections.`` prefix or not).
_MUTABLE_CALLS = frozenset({"dict", "list", "set", "deque", "OrderedDict"})


@dataclass(frozen=True)
class Guard:
    """One ``# guarded by:`` declaration.

    ``name`` is the guarded attribute of ``cls`` or, when ``helper`` is set,
    the method of ``cls`` every caller invokes with the lock held.  ``lock``
    is the lock expression as written: ``self._lock``, or a bare sibling
    field name for a state object.
    """

    path: str
    cls: str
    name: str
    lock: str
    line: int
    helper: bool = False
    mutable: bool = False

    @property
    def lock_path(self) -> tuple[str, ...]:
        """The lock's attribute chain from the instance (``('_lock',)``)."""
        return tuple(self.lock.removeprefix("self.").split("."))

    @property
    def state_object(self) -> bool:
        """Whether the lock is a bare sibling field (see the module doc)."""
        return not self.lock.startswith("self.")


def scan_module(path: str, source: str
                ) -> tuple[list[Guard], list[tuple[int, str]]]:
    """The declarations one module makes, in line order, and the comments
    that cannot bind as ``(line, reason)``: no enclosing class, a lock the
    class never assigns, or a line that binds nothing."""
    if "guarded by:" not in source:
        return [], []
    tree = ast.parse(source)
    classes = [node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    by_name = {cls.name: cls for cls in classes}
    # Each class's assignments, found by one walk the first time a
    # declaration needs them (not one walk per declaration).
    bindings: dict[ast.ClassDef, _Bindings] = {}

    def bound(cls: ast.ClassDef) -> _Bindings:
        if cls not in bindings:
            bindings[cls] = _Bindings(cls)
        return bindings[cls]

    guards: list[Guard] = []
    problems: list[tuple[int, str]] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = (_ANNOTATION_RE.match(token.string)
                 if token.type == tokenize.COMMENT else None)
        if match is None:
            continue
        line, lock = token.start[0], match["lock"]
        cls = max((cls for cls in classes
                   if cls.lineno <= line <= cls.end_lineno),
                  key=lambda cls: cls.lineno, default=None)
        if cls is None:
            problems.append((line, "'# guarded by:' outside any class"))
            continue
        if not _LOCK_RE.fullmatch(lock):
            problems.append((line, f"{cls.name}: {lock!r} is not a lock "
                                   f"expression"))
            continue
        standalone = not token.line[:token.start[1]].strip()
        guard = (_helper(path, cls, lock, line) if standalone
                 else bound(cls).guard(path, lock, line))
        if guard is None:
            problems.append((line, f"{cls.name}: '# guarded by: {lock}' "
                                   f"binds nothing (put it on an attribute's "
                                   f"binding or directly under a def)"))
        elif not any(guard.lock_path[0] in bound(owner).names
                     for owner in lineage(cls, by_name)):
            problems.append((line, f"{cls.name} never assigns the lock "
                                   f"{lock!r} guarding {guard.name!r}"))
        else:
            guards.append(guard)
    return guards, problems


def _helper(path: str, cls: ast.ClassDef, lock: str,
            line: int) -> Guard | None:
    for fn in cls.body:
        if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.lineno < line < fn.body[0].lineno):
            return Guard(path, cls.name, fn.name, lock, line, helper=True)
    return None


class _Bindings:
    """The assignments one class makes (``self.<name>`` anywhere in its
    body, and class-body fields), from one walk of the class."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.cls = cls
        self.statements: list[ast.Assign | ast.AnnAssign] = []
        self.names: set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self.statements.append(node)
            elif (_is_self_attr(node)
                  and isinstance(node.ctx, ast.Store)):
                self.names.add(node.attr)
        for stmt in cls.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self.names.update(target.id for target in _targets(stmt)
                                  if isinstance(target, ast.Name))

    def guard(self, path: str, lock: str, line: int) -> Guard | None:
        """The attribute the assignment spanning ``line`` binds, if any."""
        stmt = max((node for node in self.statements
                    if node.lineno <= line <= node.end_lineno),
                   key=lambda node: node.lineno, default=None)
        if stmt is None:
            return None
        target = _targets(stmt)[0]
        if _is_self_attr(target):
            name = target.attr
        elif isinstance(target, ast.Name) and stmt in self.cls.body:
            name = target.id  # a class-body (dataclass) field
        else:
            return None
        return Guard(path, self.cls.name, name, lock, line,
                     mutable=_is_mutable(stmt.value))


def _is_self_attr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_mutable(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if not isinstance(value, ast.Call):
        return False
    if _callee(value.func) == "field":
        return any(keyword.arg == "default_factory"
                   and _callee(keyword.value) in ("dict", "list", "set")
                   for keyword in value.keywords)
    return _callee(value.func) in _MUTABLE_CALLS


def lineage(cls: ast.ClassDef,
            classes: dict[str, ast.ClassDef]) -> list[ast.ClassDef]:
    """``cls`` and its same-module bases, transitively: the classes whose
    contracts ``cls`` inherits."""
    found = [cls]
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            found += lineage(classes[base.id], classes)
    return found


def _targets(stmt: ast.Assign | ast.AnnAssign) -> list[ast.expr]:
    return stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]


def iter_sources(root: Path | None = None) -> Iterator[tuple[str, str]]:
    """``(relative path, source)`` for every module under ``root`` (the
    installed ``repro`` package when omitted), in path order."""
    root = SOURCE_ROOT if root is None else root
    for file in sorted(root.rglob("*.py")):
        yield (file.relative_to(root).as_posix(),
               file.read_text(encoding="utf-8"))


def suppressed_lines(source: str, tag: str) -> set[int]:
    """1-based line numbers carrying ``# <tag> ok: <reason>`` (``unguarded``
    or ``durability``); the reason is mandatory."""
    pattern = re.compile(rf"#\s*{tag} ok:\s*\S")
    return {number for number, line in enumerate(source.splitlines(), 1)
            if pattern.search(line)}


def discover(root: Path | None = None) -> tuple[Guard, ...]:
    """Every lock declaration under ``root`` (the installed ``repro``
    package when omitted), in (path, line) order."""
    return tuple(guard
                 for path, source in iter_sources(root)
                 for guard in scan_module(path, source)[0])
