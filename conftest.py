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


def pytest_configure(config):
    if config.getoption("--sanitize"):
        from repro.analysis import sanitizer
        sanitizer.enable()


def pytest_unconfigure(config):
    if config.getoption("--sanitize"):
        from repro.analysis import sanitizer
        sanitizer.disable()


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
