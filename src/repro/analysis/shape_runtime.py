"""Dynamic shape/dtype contract checking behind ``pytest --shape-check``.

:func:`enable` wraps every function that carries a ``# shape:`` contract
(:func:`repro.analysis.shapes_spec.discover`) so each real call verifies the
concrete ndarray shapes and dtypes against the declared contract — symbols
bind on first use and must unify across the inputs *and* output of one call,
so a layer that silently drops the batch dimension fails the suite even when
every individual assertion about ranks would pass.  This is the only check
of the contract itself; :mod:`repro.analysis.shapes` lints the same functions
for syntactic hazards.

Checks never change behavior: the wrapped function runs first, exceptions
propagate untouched, and non-ndarray arguments are skipped.  Violations are
collected (thread-safely) rather than raised, and the pytest plugin in the
root ``conftest.py`` drains them after every test via
:func:`take_violations`, mirroring the ``--sanitize`` concurrency gate.  The
same plugin reports :func:`call_counts` at the end of the run, so a contract
no test exercises is visible.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from functools import wraps

import numpy as np

from repro.analysis.shapes_spec import (ShapeSpec, discover, parse_contract,
                                        parse_dtypes)

__all__ = ["enable", "disable", "is_enabled", "take_violations",
           "call_counts", "ShapeViolation"]


@dataclass(frozen=True)
class ShapeViolation:
    """One observed contract violation."""

    qualname: str
    message: str

    def __str__(self) -> str:
        return f"{self.qualname}: {self.message}"


_lock = threading.Lock()
_violations: list[ShapeViolation] = []
_calls: Counter[tuple[str, str]] = Counter()
_restores: list = []
_enabled = False


def take_violations() -> list[ShapeViolation]:
    """Drain and return the violations recorded since the last call."""
    with _lock:
        drained = list(_violations)
        _violations.clear()
    return drained


def call_counts() -> dict[tuple[str, str], int]:
    """``{(path, qualname): checked calls}`` since import (counts survive
    :func:`disable`/:func:`enable` cycles); a contract never called is
    absent."""
    with _lock:
        return dict(_calls)


def is_enabled() -> bool:
    """Whether the runtime checker is currently wrapping the contracts."""
    return _enabled


def enable(specs: tuple[ShapeSpec, ...] | None = None) -> int:
    """Wrap every resolvable contract target (the discovered contracts when
    ``specs`` is omitted); returns how many were wrapped.

    Idempotent.  A method is rebound on its class; a module-level function
    is rebound in every loaded ``repro`` module that holds it by name, so
    ``from module import fn`` callers reach the wrapper too.
    """
    global _enabled
    if _enabled:
        return 0
    wrapped = 0
    for spec in (discover() if specs is None else specs):
        owner, attr, fn = _resolve(spec)
        if fn is None:
            continue
        checked = _wrap(spec, fn)
        if inspect.ismodule(owner):
            _rebind_globals(fn, checked)
            _restores.append((_rebind_globals, checked, fn))
        else:
            setattr(owner, attr, checked)
            _restores.append((setattr, owner, attr, fn))
        wrapped += 1
    _enabled = True
    return wrapped


def disable() -> None:
    """Restore every wrapped function, including by-name bindings made by
    modules first imported while the checker was enabled."""
    global _enabled
    for restore, *args in reversed(_restores):
        restore(*args)
    _restores.clear()
    _enabled = False


def _rebind_globals(old, new) -> None:
    """Point every ``repro`` module global that ``is old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _module_name(path: str) -> str:
    return "repro." + path[:-len(".py")].replace("/", ".")


def _resolve(spec: ShapeSpec) -> tuple[object, str, object | None]:
    try:
        module = importlib.import_module(_module_name(spec.path))
    except ImportError:
        return None, "", None
    if "." in spec.qualname:
        cls_name, attr = spec.qualname.split(".", 1)
        cls = getattr(module, cls_name, None)
        if cls is None:
            return None, "", None
        fn = cls.__dict__.get(attr)
        return cls, attr, fn
    fn = getattr(module, spec.qualname, None)
    return module, spec.qualname, fn


def _record(spec: ShapeSpec, message: str) -> None:
    with _lock:
        _violations.append(ShapeViolation(spec.qualname, message))


def _wrap(spec: ShapeSpec, fn):
    contract = parse_contract(spec.shape)
    dtypes = parse_dtypes(spec.dtype)
    signature = inspect.signature(fn)
    positional = {name for name, param in signature.parameters.items()
                  if param.kind in (param.POSITIONAL_ONLY,
                                    param.POSITIONAL_OR_KEYWORD)}

    @wraps(fn)
    def checked(*args, **kwargs):
        out = fn(*args, **kwargs)
        with _lock:
            _calls[spec.path, spec.qualname] += 1
        bindings: dict[str, int] = {}
        bound = signature.bind(*args, **kwargs).arguments  # signature order
        arrays = [(name, value) for name, value in bound.items()
                  if name in positional and isinstance(value, np.ndarray)]
        for (name, value), dims in zip(arrays, contract.inputs):
            problem = _match(dims, value.shape, bindings)
            if problem is not None:
                _record(spec, f"argument '{name}' with shape {value.shape} "
                              f"violates '{spec.shape}': {problem}")
        _check_output(spec, contract, dtypes, out, bindings)
        return out

    return checked


def _check_output(spec: ShapeSpec, contract, dtypes, out, bindings) -> None:
    value = out[0] if isinstance(out, tuple) and out else out
    if contract.output == ():
        if isinstance(value, np.ndarray) and value.ndim > 0:
            _record(spec, f"returned shape {value.shape} where the contract "
                          f"'{spec.shape}' declares a scalar")
        return
    if not isinstance(value, np.ndarray):
        _record(spec, f"returned {type(value).__name__} where the contract "
                      f"'{spec.shape}' declares an array")
        return
    problem = _match(contract.output, value.shape, bindings)
    if problem is not None:
        _record(spec, f"returned shape {value.shape} violates "
                      f"'{spec.shape}': {problem}")
    if "any" not in dtypes and value.dtype.name not in dtypes:
        _record(spec, f"returned dtype {value.dtype.name} outside the "
                      f"declared {'|'.join(sorted(dtypes))}")


def _match(dims: tuple, shape: tuple, bindings: dict) -> str | None:
    """Match concrete ``shape`` against contract ``dims``, updating
    ``bindings``; returns a problem description or None."""
    if Ellipsis in dims:
        marker = dims.index(Ellipsis)
        prefix, suffix = dims[:marker], dims[marker + 1:]
        if len(shape) < len(prefix) + len(suffix):
            return (f"rank {len(shape)} is below the contract minimum "
                    f"{len(prefix) + len(suffix)}")
        pairs = list(zip(prefix, shape[:len(prefix)]))
        if suffix:
            pairs += list(zip(suffix, shape[-len(suffix):]))
    else:
        if len(shape) != len(dims):
            return f"rank {len(shape)} != declared rank {len(dims)}"
        pairs = list(zip(dims, shape))
    for dim, extent in pairs:
        if isinstance(dim, int):
            if extent != dim:
                return f"extent {extent} != declared {dim}"
        else:  # a binding symbol
            seen = bindings.setdefault(dim, extent)
            if seen != extent:
                return (f"symbol {dim} bound to {seen} but observed "
                        f"{extent}")
    return None
