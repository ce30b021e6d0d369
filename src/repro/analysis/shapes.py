"""Static lints over the functions that carry a ``# shape:`` contract.

The contract itself — ranks, unified symbols, dtypes — is checked on concrete
arrays by :mod:`repro.analysis.shape_runtime` (``pytest --shape-check``).
This pass covers what a run cannot see or would see too late: it discovers
the annotated functions (:func:`repro.analysis.shapes_spec.scan_module`) and
walks each body's AST for

* **batch-dim-loss** — a bare no-argument ``.squeeze()``: on a batch of one
  it silently collapses the batch dimension (the exact bug class
  ``Sequential.predict_proba`` used to have);
* **dtype-widening** — an explicit float64 creation (``astype(np.float64)``,
  ``dtype=np.float64``, ``np.float64(...)``) in a function whose declared
  dtype boundary is a narrower float;
* **silent-copy-in-loop** — ``np.concatenate``/``np.append``/``np.vstack``/
  ``np.hstack`` or list-literal fancy indexing inside a loop: per-row copies
  are exactly what batch vectorization removes;
* **bad-contract** — an annotation that cannot be a contract: unparsable
  text, outside any function, a second ``# shape:`` in one function, or a
  ``# dtype:`` without a ``# shape:``.

A ``# shape ok: <reason>`` comment suppresses findings on its line.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.lockcheck import Finding
from repro.analysis.shapes_spec import (ShapeSpec, iter_sources,
                                        parse_dtypes, scan_module,
                                        suppressed_lines)

__all__ = ["check_shapes"]

_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})

#: numpy calls that materialize a copy of their operands; inside a per-row
#: loop they turn O(n) work into O(n^2).
_COPY_CALLS = frozenset({"concatenate", "append", "vstack", "hstack"})

#: Spellings of float64 in a dtype expression (``np.float64``, ``"double"``,
#: the builtin ``float``).
_FLOAT64_NAMES = frozenset({"float64", "float", "double"})


def check_shapes(root: Path | None = None) -> list[Finding]:
    """Lint every contract-covered function under ``root`` (the installed
    ``repro`` package when omitted); returns findings sorted by location."""
    findings: list[Finding] = []
    for path, source in iter_sources(root):
        contracts, problems = scan_module(path, source)
        raw = [Finding(path, line, "bad-contract", reason)
               for line, reason in problems]
        for spec, node in contracts:
            raw.extend(_scan_squeeze(spec, node))
            raw.extend(_scan_widening(spec, node))
            raw.extend(_scan_copies_in_loops(spec, node))
        suppressed = suppressed_lines(source, "shape")
        findings.extend(f for f in raw if f.line not in suppressed)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _scan_squeeze(spec: ShapeSpec, node: ast.FunctionDef) -> list[Finding]:
    findings = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "squeeze"
                and not sub.args and not sub.keywords):
            findings.append(Finding(
                spec.path, sub.lineno, "batch-dim-loss",
                f"{spec.qualname}: bare .squeeze() collapses a batch of 1 "
                f"to a 0-d scalar; squeeze a named axis instead"))
    return findings


def _scan_widening(spec: ShapeSpec, node: ast.FunctionDef) -> list[Finding]:
    # Only a declared narrow-float boundary makes float64 creation a finding.
    dtypes = parse_dtypes(spec.dtype)
    if "any" in dtypes or "float64" in dtypes or not (dtypes & _FLOAT_DTYPES):
        return []
    findings = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        if (isinstance(sub.func, ast.Attribute) and sub.func.attr == "astype"
                and sub.args):
            widens = _names_float64(sub.args[0])
        elif _is_np_attr(sub.func, {"float64"}):
            widens = True
        else:
            widens = any(keyword.arg == "dtype"
                         and _names_float64(keyword.value)
                         for keyword in sub.keywords)
        if widens:
            findings.append(Finding(
                spec.path, sub.lineno, "dtype-widening",
                f"{spec.qualname}: explicit float64 creation crosses the "
                f"declared {'|'.join(sorted(dtypes))} boundary"))
    return findings


def _scan_copies_in_loops(spec: ShapeSpec,
                          node: ast.FunctionDef) -> list[Finding]:
    findings = []
    for loop in ast.walk(node):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for sub in ast.walk(loop):
            if sub is loop:
                continue
            if (isinstance(sub, ast.Call)
                    and _is_np_attr(sub.func, _COPY_CALLS)):
                findings.append(Finding(
                    spec.path, sub.lineno, "silent-copy-in-loop",
                    f"{spec.qualname}: np.{sub.func.attr} inside a loop "
                    f"copies the array every iteration"))
            elif (isinstance(sub, ast.Subscript)
                    and isinstance(sub.ctx, ast.Load)
                    and isinstance(sub.slice, ast.List)):
                findings.append(Finding(
                    spec.path, sub.lineno, "silent-copy-in-loop",
                    f"{spec.qualname}: list-literal fancy indexing inside a "
                    f"loop copies the selected rows"))
    return findings


def _is_np_attr(func: ast.expr, names: frozenset[str] | set[str]) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr in names
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy"))


def _names_float64(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT64_NAMES
    if isinstance(node, ast.Constant):
        return node.value in _FLOAT64_NAMES
    return isinstance(node, ast.Name) and node.id in _FLOAT64_NAMES
