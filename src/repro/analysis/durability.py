"""Durability lint: the fsync/rename/prune ordering crash-safety rests on.

The lint covers every module whose code calls ``os.fsync`` or one of the
fsync helpers (:func:`durability_modules`; today the WAL and checkpoint
code, :mod:`repro.db.wal` and :mod:`repro.db.persistence`, and the
predicate repository writer every save calls, :mod:`repro.core.persistence`,
which holds the one file-fsync helper, ``fsync_path``).
They keep four
ordering invariants, all of them easy to silently regress because every
test passes without them — they only matter across a power loss:

* **fsync-after-append** — a write to a file that outlives the call — a
  ``.write(`` through a handle the object keeps open (``self.<handle>.write``)
  or an ``os.write`` / ``os.writev`` on a descriptor (the WAL's log file) —
  must be followed, in the same function, by an ``os.fsync``: nothing else
  will ever sync those bytes, and the caller acknowledges the record on
  return.
* **fsync-before-rename** — an ``os.replace`` publishing a manifest must be
  preceded, in the same function, by an fsync of the bytes being published
  (``os.fsync`` / ``fsync_path``); otherwise the rename can become durable
  before the content it names.
* **dirsync-after-rename** — after the ``os.replace``, the directory entry
  must be fsynced (``fsync_dir``; ``_fsync_image_dir`` syncs an image
  directory the same way) so the rename itself survives power loss.
* **write-after-prune** — pruning (stale checkpoint images, absorbed WAL
  generations) must be the *last* thing a function does: any write event
  after a prune means state was deleted before its replacement was durable.

The lint is line-order within one function — deliberately simple and
direction-correct: conditional branches (``if checkpointing:``) still
appear in source order, which is exactly the order the protocol requires.
The helpers are known by name, so a file fsync behind any other helper
counts as no fsync at all.
A deliberate exception carries ``# durability ok: <reason>`` on the
``os.replace`` (or write) line.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.guards import iter_sources, suppressed_lines
from repro.analysis.lockcheck import Finding

__all__ = ["check_durability", "durability_modules"]

#: Calls that make bytes reach a file: forbidden after a prune.
_WRITE_NAMES = frozenset({"savez", "savez_compressed", "save", "dump",
                          "write", "write_text", "write_bytes"})


def _durable_trees(root: Path | None) -> Iterator[tuple[str, str, ast.Module]]:
    """``(path, source, tree)`` for every module under ``root`` that calls
    ``os.fsync`` or an fsync helper."""
    for path, source in iter_sources(root):
        if "fsync" not in source:
            continue
        tree = ast.parse(source)
        if any(isinstance(node, ast.Call)
               and _call_kind(node) in ("fsync", "dirsync")
               for node in ast.walk(tree)):
            yield path, source, tree


def durability_modules(root: Path | None = None) -> list[str]:
    """The modules the lint covers: those whose code calls ``os.fsync`` or
    an fsync helper."""
    return [path for path, _, _ in _durable_trees(root)]


def check_durability(root: Path | None = None) -> list[Finding]:
    """Lint every durability module under ``root`` (the installed ``repro``
    package when omitted); returns findings sorted by location."""
    findings: list[Finding] = []
    for rel, source, tree in _durable_trees(root):
        suppressed = suppressed_lines(source, "durability")
        for fn in _functions(tree):
            findings.extend(_check_function(rel, fn, suppressed))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _local_nodes(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function definitions
    (their events belong to the nested function's own check)."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _call_kind(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        is_os = isinstance(func.value, ast.Name) and func.value.id == "os"
    elif isinstance(func, ast.Name):
        name = func.id
        is_os = False
    else:
        return None
    if name == "replace":
        # Only os.replace is a rename; str.replace shares the name.
        return "replace" if is_os else None
    if name == "fsync" and is_os or name == "fsync_path":
        return "fsync"
    if name in ("fsync_dir", "_fsync_image_dir"):
        return "dirsync"
    if name == "write" and isinstance(func.value, ast.Attribute) \
            and isinstance(func.value.value, ast.Name) \
            and func.value.value.id == "self":
        return "append"  # self.<handle>.write: a file that outlives the call
    if name in ("write", "writev") and is_os:
        return "append"  # a descriptor: only an fsync makes its bytes durable
    if name in _WRITE_NAMES:
        return "write"
    if "prune" in name:
        return "prune"
    return None


def _check_function(rel: str, fn: ast.FunctionDef,
                    suppressed: set[int]) -> list[Finding]:
    events: list[tuple[int, str]] = []
    for node in _local_nodes(fn):
        if isinstance(node, ast.Call):
            kind = _call_kind(node)
            if kind is not None:
                events.append((node.lineno, kind))
    if not events:
        return []
    fsyncs = [line for line, kind in events if kind == "fsync"]
    dirsyncs = [line for line, kind in events if kind == "dirsync"]
    prunes = [line for line, kind in events if kind == "prune"]
    first_prune = min(prunes) if prunes else None
    findings: list[Finding] = []
    for line, kind in events:
        if line in suppressed:
            continue
        if kind == "replace":
            if not any(other < line for other in fsyncs):
                findings.append(Finding(
                    rel, line, "fsync-before-rename",
                    f"os.replace in {fn.name}() has no earlier fsync of the "
                    f"published bytes in the same function — the rename "
                    f"can become durable before its content"))
            if not any(other > line for other in dirsyncs):
                findings.append(Finding(
                    rel, line, "dirsync-after-rename",
                    f"os.replace in {fn.name}() is not followed by a "
                    f"directory fsync (fsync_dir) — the rename itself can "
                    f"be lost on power failure"))
        elif kind == "append" and not any(other > line for other in fsyncs):
            findings.append(Finding(
                rel, line, "fsync-after-append",
                f"write to a kept-open handle in {fn.name}() is not "
                f"followed by an os.fsync in the same function — the "
                f"record is acknowledged while still in the page cache"))
        if kind in ("write", "append") and first_prune is not None \
                and line > first_prune:
            findings.append(Finding(
                rel, line, "write-after-prune",
                f"write in {fn.name}() after a prune — old state must only "
                f"be deleted once its replacement is durable"))
    return findings
