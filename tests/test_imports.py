"""Every name a module of the package imports is used in that module, and every
public name it defines has a consumer.

`__init__.py` re-exports by design.  A consumer is code elsewhere in the package,
the acceptance criteria (`tests/test_acceptance.py`) or the benchmark (`bench/*.py`):
a name only other tests call is not kept for them.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import qtel

PACKAGE = pathlib.Path(qtel.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = pathlib.Path(__file__).resolve().parent.parent
CONSUMERS = [*sorted(PACKAGE.glob("*.py")), REPO / "tests" / "test_acceptance.py",
             *sorted((REPO / "bench").glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def public_names(source: str) -> list[str]:
    """Each public top-level function and class, and ``Class.method`` for each public
    method of a public class."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def referenced_names(source: str) -> set[str]:
    """Each name the code reads: as a variable, as an attribute, by importing it, or as a
    string that is the whole name (the benchmark looks functions up by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads  # noqa: F401\nsys.exit()\n"
    assert unused_imports(source) == ["1: os", "3: dumps", "3: loads"]


def test_every_public_name_has_a_consumer():
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in CONSUMERS))
    unconsumed = [f"{module}: {name}" for module in MODULES
                  for name in public_names((PACKAGE / module).read_text(encoding="utf-8"))
                  if name.rpartition(".")[2] not in used]
    assert unconsumed == []
