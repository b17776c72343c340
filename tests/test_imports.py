"""Every name a module of the package imports is used in that module.

`__init__.py` re-exports by design, and an import line marked ``# noqa: F401``
is kept on purpose.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import qtel

PACKAGE = pathlib.Path(qtel.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads  # noqa: F401\nsys.exit()\n"
    assert unused_imports(source) == ["1: os"]
