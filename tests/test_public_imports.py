"""Every import the examples and README show resolves against ``src/``.

The scripts and snippets are parsed, never run: each ``from repro... import
name`` must name an attribute of the imported module or one of its
submodules, and each ``import repro...`` must name a module.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))
_README = _ROOT / "README.md"


def _sources():
    for path in _EXAMPLES:
        yield path.name, path.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    for index, block in enumerate(blocks):
        yield f"README.md#{index}", block


_SOURCES = dict(_sources())


def _repro_imports(source: str):
    """``(module, name)`` per imported name; ``name`` is None for ``import``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_sources_found():
    assert len(_EXAMPLES) >= 8
    assert any(key.startswith("README.md") for key in _SOURCES)


@pytest.mark.parametrize("key", sorted(_SOURCES))
def test_documented_imports_resolve(key):
    imports = list(_repro_imports(_SOURCES[key]))
    unresolved = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        if not hasattr(module, "__path__") or \
                importlib.util.find_spec(f"{module_name}.{name}") is None:
            unresolved.append(f"from {module_name} import {name}")
    assert not unresolved, f"{key}: {unresolved}"
