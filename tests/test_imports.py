"""Every module of the package and of the test suite uses each name it imports.

``from __future__`` imports and the re-exports of an ``__init__.py`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "moe_forge", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at any depth and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_named():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
        "def f():\n    from math import pi, tau\n    return np.ones(1), loads, os.sep, tau\n"
    )
    assert unused_imports(source) == ["dumps", "pi"]
