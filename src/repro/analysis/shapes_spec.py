"""Shape contracts: the ``# shape:`` comment grammar and its discovery.

A contract is declared once, as ``# shape:`` / ``# dtype:`` comments directly
under the ``def`` line it describes.  :func:`discover` walks the package,
takes the annotations from real comment tokens (a docstring that quotes the
grammar is not a contract), attributes each to its enclosing function and
yields one :class:`ShapeSpec` per contract — the listing ``python -m
repro.analysis --list`` prints, the functions :mod:`repro.analysis.shapes`
lints, and the functions :mod:`repro.analysis.shape_runtime` wraps behind
``pytest --shape-check``.

Contract grammar (one line, after ``# shape:``)::

    contract := [ inputs ] "->" output
    inputs   := tuple { "," tuple }        # one per checked array argument
    tuple    := "(" [ dim { "," dim } [ "," ] ] ")"
    dim      := INT | SYMBOL | "..."

* ``()`` declares a scalar (a 0-d array or a Python number).
* A **symbol** (``N``, ``H'``, ``K``) binds on first use and must unify
  everywhere it reappears *within one call* — ``(N, H, W, C) -> (N, K)``
  asserts the batch dimension survives.
* ``...`` matches zero or more dimensions and never binds, so
  ``(N, ...) -> (N, ...)`` constrains only the batch dimension.
* An **integer** is a concrete required extent (``(..., 3) -> (..., 1)``).

The input tuples bind, in order, to the ndarray-valued positional arguments
of a call; when the function returns a tuple the output tuple describes its
first element.

``# dtype:`` lists the dtypes the function may return, ``|``-separated
(``float64``, ``float32|float64``).  Functions without a dtype line may
return anything (``any``).

A ``# shape ok: <reason>`` comment suppresses static findings on one line —
the reason is mandatory, so every suppression documents itself.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ShapeSpec", "Contract", "SOURCE_ROOT", "discover",
           "iter_sources", "scan_module", "parse_contract",
           "parse_dtypes", "suppressed_lines"]

#: The package root discovery walks when no other root is given.
SOURCE_ROOT = Path(__file__).resolve().parent.parent

#: Anchored at the ``#`` of a comment token, so prose that mentions the
#: keyword mid-comment is not an annotation.
_ANNOTATION_RE = re.compile(r"#\s*(?P<kind>shape|dtype):\s*(?P<text>.*?)\s*$")
_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*$")

#: Dtype names the ``# dtype:`` grammar accepts.
KNOWN_DTYPES = frozenset({
    "float16", "float32", "float64", "int8", "int16", "int32", "int64",
    "uint8", "bool", "any",
})


@dataclass(frozen=True)
class ShapeSpec:
    """Shape/dtype contract for one function.

    Parameters
    ----------
    path:
        Module file, relative to the ``repro`` package root.
    qualname:
        ``Class.method`` for methods, bare name for module functions.
    shape:
        The contract text (see the grammar in the module docstring).
    dtype:
        ``|``-separated dtypes the function may return; ``any`` disables
        the dtype check.
    """

    path: str
    qualname: str
    shape: str
    dtype: str = "any"


@dataclass(frozen=True)
class Contract:
    """A parsed contract: input tuples and the output tuple.

    Dims are ``int`` (concrete), ``str`` (a binding symbol) or ``Ellipsis``.
    """

    inputs: tuple[tuple, ...]
    output: tuple


def parse_contract(text: str) -> Contract:
    """Parse the ``# shape:`` grammar into a :class:`Contract`."""
    if "->" not in text:
        raise ValueError(f"shape contract needs '->': {text!r}")
    lhs, _, rhs = text.partition("->")
    inputs = tuple(_parse_tuples(lhs, text))
    outputs = _parse_tuples(rhs, text)
    if len(outputs) != 1:
        raise ValueError(f"shape contract needs exactly one output: {text!r}")
    return Contract(inputs=inputs, output=outputs[0])


def _parse_tuples(text: str, full: str) -> list[tuple]:
    text = text.strip()
    if not text:
        return []
    tuples: list[tuple] = []
    for group in re.findall(r"\(([^()]*)\)", text):
        tuples.append(_parse_dims(group, full))
    rebuilt = ", ".join("(" + g + ")" for g in re.findall(r"\(([^()]*)\)", text))
    if _normalize(rebuilt) != _normalize(text):
        raise ValueError(f"malformed shape contract: {full!r}")
    return tuples


def _parse_dims(group: str, full: str) -> tuple:
    dims: list = []
    for token in group.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "...":
            dims.append(Ellipsis)
        elif re.fullmatch(r"-?\d+", token):
            dims.append(int(token))
        elif _SYMBOL_RE.fullmatch(token):
            dims.append(token)
        else:
            raise ValueError(f"bad dim {token!r} in shape contract {full!r}")
    if dims.count(Ellipsis) > 1:
        raise ValueError(f"at most one '...' per tuple: {full!r}")
    return tuple(dims)


def parse_dtypes(text: str) -> frozenset[str]:
    """Parse a ``# dtype:`` value into the set of allowed dtype names."""
    names = frozenset(part.strip() for part in text.split("|") if part.strip())
    unknown = names - KNOWN_DTYPES
    if not names or unknown:
        raise ValueError(f"bad dtype declaration {text!r}")
    return names


def _normalize(text: str) -> str:
    return "".join(text.split())


def suppressed_lines(source: str, tag: str) -> set[int]:
    """1-based line numbers carrying ``# <tag> ok: <reason>`` (``shape``,
    ``unguarded`` or ``durability``); the reason is mandatory."""
    pattern = re.compile(rf"#\s*{tag} ok:\s*\S")
    return {number for number, line in enumerate(source.splitlines(), 1)
            if pattern.search(line)}


def _functions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef]]:
    """``(qualname, def node)`` for module functions and class methods —
    the units a contract can name (and the runtime checker can wrap)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def scan_module(path: str, source: str
                ) -> tuple[list[tuple[ShapeSpec, ast.FunctionDef]],
                           list[tuple[int, str]]]:
    """The contracts one module declares, in line order and each with its
    ``def`` node, and the annotations that cannot be a contract as
    ``(line, reason)``.

    A comment belongs to the module function or ``Class.method`` whose body
    contains it (a nested ``def`` annotates its enclosing one).
    """
    functions = list(_functions(ast.parse(source)))
    found: dict[str, dict[str, tuple[str, int]]] = {}
    problems: list[tuple[int, str]] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = (_ANNOTATION_RE.match(token.string)
                 if token.type == tokenize.COMMENT else None)
        if match is None:
            continue
        kind, line = match["kind"], token.start[0]
        owner = next((qualname for qualname, node in functions
                      if node.lineno <= line <= node.end_lineno), None)
        if owner is None:
            problems.append((line, f"'# {kind}:' outside any function"))
        elif kind in found.setdefault(owner, {}):
            problems.append((line, f"{owner}: a second '# {kind}:' in one "
                                   f"function"))
        else:
            found[owner][kind] = (match["text"], line)

    nodes = dict(functions)
    contracts: list[tuple[ShapeSpec, ast.FunctionDef]] = []
    for owner, slot in found.items():
        if "shape" not in slot:
            problems.append((slot["dtype"][1],
                             f"{owner}: '# dtype:' without '# shape:'"))
            continue
        valid = True
        for kind, parse in (("shape", parse_contract),
                            ("dtype", parse_dtypes)):
            if kind in slot:
                try:
                    parse(slot[kind][0])
                except ValueError as exc:
                    problems.append((slot[kind][1], f"{owner}: {exc}"))
                    valid = False
        if valid:
            dtype = slot["dtype"][0] if "dtype" in slot else "any"
            contracts.append((ShapeSpec(path, owner, slot["shape"][0], dtype),
                              nodes[owner]))
    return contracts, problems


def iter_sources(root: Path | None = None) -> Iterator[tuple[str, str]]:
    """``(relative path, source)`` for every module under ``root`` (the
    installed ``repro`` package when omitted), in path order."""
    root = SOURCE_ROOT if root is None else root
    for file in sorted(root.rglob("*.py")):
        yield (file.relative_to(root).as_posix(),
               file.read_text(encoding="utf-8"))


def discover(root: Path | None = None) -> tuple[ShapeSpec, ...]:
    """Every shape contract declared under ``root``, in (path, line) order."""
    return tuple(spec
                 for path, source in iter_sources(root)
                 for spec, _ in scan_module(path, source)[0])
