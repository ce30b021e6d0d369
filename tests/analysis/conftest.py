"""Shared fixture for the static-analysis self-tests."""

import shutil

import pytest

from repro.analysis.guards import SOURCE_ROOT


@pytest.fixture()
def scratch(tmp_path):
    """A scratch copy of the whole ``repro`` package tree, for injecting one
    violation and pointing a pass at it with ``root=`` / ``--root``."""
    root = tmp_path / "repro"
    shutil.copytree(SOURCE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root
