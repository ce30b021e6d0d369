"""Pytest bootstrap: make the in-tree package importable without installation.

The repository is normally installed with ``pip install -e .``; this shim only
matters for offline environments where the editable install cannot build a
wheel (no network to fetch the ``wheel`` package).

This root conftest also registers the ``--sanitize`` flag (it must live at
the rootdir so a bare ``pytest`` invocation sees it): when given, the runtime
concurrency sanitizer from :mod:`repro.analysis.sanitizer` is enabled for the
whole run — every lock created through :mod:`repro.locking` records its
acquisition order (flagging lock-order inversions) and writes to
runtime-checked guarded attributes assert the guarding lock is held.  An
autouse fixture fails any test whose execution produced a violation.

``--shape-check`` is the same idea for array contracts: every function that
carries a ``# shape:`` / ``# dtype:`` comment (discovered from the source by
:mod:`repro.analysis.shapes_spec`) is wrapped so its runtime argument and
return shapes/dtypes are checked against that contract, and an autouse fixture
fails any test whose execution violated one.  The terminal summary reports how
many of the contracts the run called and names any it never did.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="enable the runtime lock-order/guarded-write sanitizer "
             "(repro.analysis.sanitizer) for the whole run")
    parser.addoption(
        "--shape-check", action="store_true", default=False,
        help="check runtime array shapes/dtypes against the static "
             "# shape: / # dtype: contracts (repro.analysis.shape_runtime)")


def pytest_configure(config):
    if config.getoption("--sanitize"):
        from repro.analysis import sanitizer
        sanitizer.enable()
    if config.getoption("--shape-check"):
        from repro.analysis import shape_runtime
        shape_runtime.enable()


def pytest_unconfigure(config):
    if config.getoption("--sanitize"):
        from repro.analysis import sanitizer
        sanitizer.disable()
    if config.getoption("--shape-check"):
        from repro.analysis import shape_runtime
        shape_runtime.disable()


@pytest.fixture(autouse=True)
def _sanitizer_violations(request):
    """Under ``--sanitize``, fail any test that produced a violation."""
    if not request.config.getoption("--sanitize"):
        yield
        return
    from repro.analysis import sanitizer
    sanitizer.take_violations()  # drop anything left over from collection
    yield
    violations = sanitizer.take_violations()
    if violations:
        pytest.fail("sanitizer violations:\n" +
                    "\n".join(str(v) for v in violations))


@pytest.fixture(autouse=True)
def _shape_violations(request):
    """Under ``--shape-check``, fail any test that broke a shape contract."""
    if not request.config.getoption("--shape-check"):
        yield
        return
    from repro.analysis import shape_runtime
    shape_runtime.take_violations()  # drop anything left over from collection
    yield
    violations = shape_runtime.take_violations()
    if violations:
        pytest.fail("shape contract violations:\n" +
                    "\n".join(str(v) for v in violations))


def pytest_terminal_summary(terminalreporter, config):
    """Under ``--shape-check``, report which contracts the run exercised."""
    if not config.getoption("--shape-check"):
        return
    from repro.analysis import shape_runtime
    from repro.analysis.shapes_spec import discover
    called = shape_runtime.call_counts()
    specs = discover()
    never = [spec for spec in specs
             if (spec.path, spec.qualname) not in called]
    terminalreporter.write_line(
        f"shape-check: {len(specs) - len(never)}/{len(specs)} contracts "
        f"called")
    for spec in never:
        terminalreporter.write_line(
            f"shape-check: never called: {spec.path}: {spec.qualname}")
