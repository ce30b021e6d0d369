"""The shape-contract registry: symbolic array shapes for the numpy stack.

Like the lock discipline in :mod:`repro.analysis.guards`, every contract is
declared twice, on purpose:

* **in the source**, as ``# shape:`` / ``# dtype:`` comments directly under
  the ``def`` line, so a reader at the definition site sees the contract, and
* **here**, as a machine-readable :class:`ShapeSpec` per function, so the
  static abstract interpreter (:mod:`repro.analysis.shapes`) and the dynamic
  cross-check (:mod:`repro.analysis.shape_runtime`, behind
  ``pytest --shape-check``) share one source of truth.

The checker cross-verifies the two: a contract annotated in the source but
missing from the manifest (or vice versa, or textually different) is itself
a finding, so the registry can never silently drift from the code.

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

``# dtype:`` lists the dtypes the function may return, ``|``-separated
(``float64``, ``float32|float64``).  Functions without a dtype line may
return anything (manifest dtype ``any``).

A ``# shape ok: <reason>`` comment suppresses static findings on one line —
the reason is mandatory, so every suppression documents itself.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ShapeSpec", "Contract", "SHAPES", "SOURCE_ROOT",
           "parse_contract", "parse_dtypes", "parse_shape_annotations",
           "shape_suppressed_lines", "format_dims"]

#: The package root the registry's relative paths resolve against.
SOURCE_ROOT = Path(__file__).resolve().parent.parent

_SHAPE_RE = re.compile(r"#\s*shape:\s*(?P<text>.+?)\s*$")
_DTYPE_RE = re.compile(r"#\s*dtype:\s*(?P<text>[\w|]+)\s*$")
_SUPPRESS_RE = re.compile(r"#\s*shape ok:\s*\S")
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
    args:
        Parameter names carrying the input tuples, in contract order.  When
        empty the inputs map onto the leading positional parameters
        (``self``/``cls`` skipped) — set this when the contract-carrying
        arrays are not the first parameters.
    tuple_index:
        When the function returns a tuple, the element the output contract
        applies to.
    hot:
        Marks a hot-path function: the no-silent-copy lint flags
        ``np.concatenate``/``np.append``/``np.vstack``/``np.hstack`` and
        list-literal fancy indexing inside its loops.
    """

    path: str
    qualname: str
    shape: str
    dtype: str = "any"
    args: tuple[str, ...] = ()
    tuple_index: int | None = None
    hot: bool = False

    def file(self, root: Path | None = None) -> Path:
        return (root if root is not None else SOURCE_ROOT) / self.path


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


def format_dims(dims: tuple) -> str:
    """Render a parsed tuple back to contract syntax (for messages)."""
    parts = ["..." if dim is Ellipsis else str(dim) for dim in dims]
    if len(parts) == 1 and parts[0] not in ("...",):
        return "(" + parts[0] + ",)"
    return "(" + ", ".join(parts) + ")"


def _normalize(text: str) -> str:
    return "".join(text.split())


def contracts_equal(a: str, b: str) -> bool:
    """Whether two contract texts are the same modulo whitespace."""
    return _normalize(a) == _normalize(b)


@dataclass(frozen=True)
class ShapeAnnotation:
    """One function's source-side contract comments."""

    shape: str | None
    shape_line: int
    dtype: str | None
    dtype_line: int


def parse_shape_annotations(source: str,
                            tree: ast.AST | None = None
                            ) -> dict[str, ShapeAnnotation]:
    """``{qualname: annotation}`` for every ``# shape:``/``# dtype:`` comment.

    A comment belongs to the innermost enclosing function; methods are keyed
    ``Class.method``.  Comments outside any function are keyed by line as
    ``<module>:<line>`` so the cross-check can flag them.
    """
    tree = tree if tree is not None else ast.parse(source)
    spans: list[tuple[str, int, int]] = []  # (qualname, first line, last line)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    spans.append((f"{node.name}.{item.name}",
                                  item.lineno, item.end_lineno or item.lineno))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spans.append((node.name, node.lineno,
                          node.end_lineno or node.lineno))

    def owner(line: int) -> str:
        best: tuple[int, str] | None = None
        for qualname, start, end in spans:
            if start <= line <= end and (best is None or start > best[0]):
                best = (start, qualname)
        return best[1] if best is not None else f"<module>:{line}"

    shapes: dict[str, tuple[str, int]] = {}
    dtypes: dict[str, tuple[str, int]] = {}
    for number, line in enumerate(source.splitlines(), 1):
        match = _SHAPE_RE.search(line)
        if match:
            shapes.setdefault(owner(number), (match.group("text"), number))
        match = _DTYPE_RE.search(line)
        if match:
            dtypes.setdefault(owner(number), (match.group("text"), number))

    found: dict[str, ShapeAnnotation] = {}
    for qualname in set(shapes) | set(dtypes):
        shape, shape_line = shapes.get(qualname, (None, 0))
        dtype, dtype_line = dtypes.get(qualname, (None, 0))
        found[qualname] = ShapeAnnotation(shape=shape, shape_line=shape_line,
                                          dtype=dtype, dtype_line=dtype_line)
    return found


def shape_suppressed_lines(source: str) -> set[int]:
    """1-based line numbers carrying ``# shape ok: <reason>``."""
    return {number for number, line in enumerate(source.splitlines(), 1)
            if _SUPPRESS_RE.search(line)}


SHAPES: tuple[ShapeSpec, ...] = (
    # -- nn/: every layer forward --------------------------------------------
    ShapeSpec("nn/layers.py", "Conv2D.forward",
              "(N, H, W, C) -> (N, H', W', K)", dtype="float64", hot=True),
    ShapeSpec("nn/layers.py", "MaxPool2D.forward",
              "(N, H, W, C) -> (N, H', W', C)", hot=True),
    ShapeSpec("nn/layers.py", "GlobalAveragePool.forward",
              "(N, H, W, C) -> (N, C)"),
    ShapeSpec("nn/layers.py", "Flatten.forward", "(N, ...) -> (N, D)"),
    ShapeSpec("nn/layers.py", "Dense.forward",
              "(N, D) -> (N, K)", dtype="float64", hot=True),
    ShapeSpec("nn/layers.py", "ReLU.forward", "(N, ...) -> (N, ...)"),
    ShapeSpec("nn/layers.py", "Sigmoid.forward",
              "(N, ...) -> (N, ...)", dtype="float64"),
    ShapeSpec("nn/layers.py", "Softmax.forward", "(..., K) -> (..., K)"),
    ShapeSpec("nn/layers.py", "Dropout.forward", "(N, ...) -> (N, ...)"),
    ShapeSpec("nn/layers.py", "BatchNorm.forward",
              "(N, ...) -> (N, ...)", dtype="float64"),
    ShapeSpec("nn/blocks.py", "ResidualBlock.forward",
              "(N, H, W, C) -> (N, H, W, K)", dtype="float64"),
    # -- nn/: network, im2col plumbing, losses, training --------------------
    ShapeSpec("nn/network.py", "Sequential.forward", "(N, ...) -> (N, ...)"),
    ShapeSpec("nn/network.py", "Sequential.predict",
              "(N, ...) -> (N, ...)", hot=True),
    ShapeSpec("nn/network.py", "Sequential.predict_proba",
              "(N, ...) -> (N, ...)"),
    ShapeSpec("nn/im2col.py", "im2col", "(N, H, W, C) -> (M, D)", hot=True),
    ShapeSpec("nn/im2col.py", "col2im", "(M, D) -> (N, H, W, C)", hot=True),
    ShapeSpec("nn/losses.py", "BinaryCrossEntropy.forward",
              "(N, ...), (...) -> ()", dtype="float64"),
    ShapeSpec("nn/losses.py", "BinaryCrossEntropy.backward",
              "(N, ...), (...) -> (N, ...)", dtype="float64"),
    ShapeSpec("nn/losses.py", "MeanSquaredError.forward",
              "(N, ...), (...) -> ()", dtype="float64"),
    ShapeSpec("nn/losses.py", "MeanSquaredError.backward",
              "(N, ...), (...) -> (N, ...)", dtype="float64"),
    ShapeSpec("nn/dtypes.py", "as_float",
              "(...) -> (...)", dtype="float32|float64"),
    ShapeSpec("nn/dtypes.py", "align_targets",
              "(N, ...), (...) -> (N, ...)", dtype="float32|float64",
              tuple_index=0),
    ShapeSpec("nn/train.py", "evaluate_accuracy",
              "(N, ...), (...) -> ()", args=("x", "y")),
    # -- transforms/: the representation pipeline ----------------------------
    ShapeSpec("transforms/spec.py", "TransformSpec.apply",
              "(..., H, W, C) -> (..., R, R, C')"),
    ShapeSpec("transforms/spec.py", "TransformSpec.apply_batch",
              "(N, H, W, C) -> (N, R, R, C')"),
    ShapeSpec("transforms/resize.py", "resize",
              "(..., H, W, C) -> (..., R, R, C)"),
    ShapeSpec("transforms/resize.py", "resize_nearest",
              "(..., H, W, C) -> (..., R, R, C)"),
    ShapeSpec("transforms/resize.py", "resize_bilinear",
              "(..., H, W, C) -> (..., R, R, C)"),
    ShapeSpec("transforms/resize.py", "resize_area",
              "(..., H, W, C) -> (..., R, R, C)"),
    ShapeSpec("transforms/color.py", "to_grayscale", "(..., 3) -> (..., 1)"),
    ShapeSpec("transforms/color.py", "extract_channel",
              "(..., 3) -> (..., 1)"),
    ShapeSpec("transforms/color.py", "to_color_mode", "(..., 3) -> (..., C')"),
    ShapeSpec("transforms/color.py", "quantize_color_depth",
              "(...) -> (...)"),
    ShapeSpec("transforms/ops.py", "normalize", "(...) -> (...)"),
    ShapeSpec("transforms/ops.py", "horizontal_flip",
              "(..., H, W, C) -> (..., H, W, C)"),
    # -- core/: the cascade classify path ------------------------------------
    ShapeSpec("core/model.py", "TrainedModel.predict_proba",
              "(N, H, W, C) -> (N, ...)", dtype="float64"),
    ShapeSpec("core/model.py", "TrainedModel.predict_proba_transformed",
              "(N, H, W, C) -> (N, ...)", dtype="float64"),
    ShapeSpec("core/model.py", "TrainedModel.predict",
              "(N, H, W, C) -> (N,)", dtype="int64"),
    ShapeSpec("core/cascade.py", "Cascade.classify",
              "(N, H, W, C) -> (N,)", dtype="int64"),
    ShapeSpec("core/cascade.py", "Cascade.classify_with_stats",
              "(N, H, W, C) -> (R,)", dtype="int64", tuple_index=0, hot=True),
    # -- db/: the mask algebra the executor runs per query -------------------
    ShapeSpec("db/executor.py", "QueryExecutor._metadata_mask",
              "-> (S,)", dtype="bool"),
    ShapeSpec("db/executor.py", "QueryExecutor._evaluate_tree",
              "(S,) -> (S,)", dtype="bool", args=("mask",), hot=True),
    ShapeSpec("db/executor.py", "QueryExecutor._evaluate_content",
              "(S,) -> (S,)", dtype="int64", args=("candidate_mask",),
              tuple_index=0, hot=True),
    ShapeSpec("db/aggregates.py", "_numeric_values",
              "(V,) -> (V,)", args=("values",)),
    ShapeSpec("db/aggregates.py", "_non_null", "(V,) -> (W,)"),
    # -- baselines/: the NoScope-style pipeline ------------------------------
    ShapeSpec("baselines/difference.py", "FramePlan.expand_labels",
              "(P,) -> (F,)", dtype="int64"),
    ShapeSpec("baselines/difference.py", "DifferenceDetector._signature",
              "(H, W, C) -> (H', W', C)"),
)
