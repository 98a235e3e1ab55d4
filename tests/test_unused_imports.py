"""No module of rirkit imports a name it never uses.

There is no linter among the test dependencies, so this walks each module's
syntax tree: every name an import binds (``from __future__`` aside) must be
read somewhere in the same module.
"""

import ast
from pathlib import Path

import pytest

import rirkit

ROOT = Path(rirkit.__file__).resolve().parent
MODULES = sorted(ROOT.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nfrom .audio import RIR_LENGTH, Rir\n"
                          "x: Rir = os.path.sep\n") == ["line 3: RIR_LENGTH"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
