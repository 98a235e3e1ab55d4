"""No module of rirkit imports a name it never uses or imports scipy, no
private helper goes unread, and no constant goes unread.

There is no linter among the test dependencies, so this walks each module's
syntax tree: every name an import binds (``from __future__`` aside) must be
read somewhere in the same module, and every module-level private function,
class or constant (``_name``) must be read somewhere in the package, since
one module may use another's (``augment`` imports ``corpus._map``). Every
module-level UPPER_CASE constant must be read somewhere in the package, in
``perfbench/`` or in ``tests/``.
"""

import ast
from pathlib import Path

import pytest

import rirkit

ROOT = Path(rirkit.__file__).resolve().parent
MODULES = sorted(ROOT.rglob("*.py"))
REPO = Path(__file__).resolve().parent.parent
READERS = sorted([*(REPO / "perfbench").rglob("*.py"), *(REPO / "tests").rglob("*.py")])


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


def scipy_imports(source: str) -> list[str]:
    """The import statements that load scipy or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return found


def test_the_check_finds_a_scipy_import():
    assert scipy_imports("import scipy_like, numpy as np\nfrom . import scipy\n"
                         "def f():\n    from scipy.signal import firwin\n"
                         "    import os, scipy.fft as fft\n") == [
        "line 4: scipy.signal", "line 5: scipy.fft"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def module_names(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, assigned?) for each module-level function, class and
    assigned name."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno, True) for t in targets if isinstance(t, ast.Name)]
    return defined


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private functions, classes and constants, by name: their lines."""
    return {name: line for name, line, _ in module_names(source)
            if name.startswith("_") and not name.startswith("__")}


def constant_definitions(source: str) -> dict[str, int]:
    """Module-level UPPER_CASE constants, by name: their lines."""
    return {name: line for name, line, assigned in module_names(source)
            if assigned and name.isupper()}


def names_read(source: str) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def dead_private_names(sources: dict[str, str]) -> list[str]:
    read = set().union(*map(names_read, sources.values()))
    return [f"{module} line {line}: {name}" for module, source in sources.items()
            for name, line in private_definitions(source).items() if name not in read]


def test_the_check_finds_a_dead_private_helper():
    assert dead_private_names({
        "a.py": "_USED = 1\n_DEAD: int = 2\ndef _helper():\n    return _USED\n"
                "class _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from . import a\nfrom .a import _helper\nx = _helper(), a._BY_ATTR\n"
                "_BY_ATTR = 3\n",
    }) == ["a.py line 2: _DEAD", "a.py line 5: _Gone"]


def test_no_dead_private_helpers():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in MODULES}
    assert dead_private_names(sources) == []


def dead_constants(sources: dict[str, str], readers: list[str]) -> list[str]:
    read = set().union(*map(names_read, [*sources.values(), *readers]))
    return [f"{module} line {line}: {name}" for module, source in sources.items()
            for name, line in constant_definitions(source).items() if name not in read]


def test_the_check_finds_a_dead_constant():
    assert dead_constants({
        "a.py": "USED = 1\nDEAD: float = 0.2\n_RULE = 'x'\nTESTED = 3\nLower = 4\n"
                "def f():\n    return _RULE\n",
        "b.py": "from .a import USED\nx = USED\n",
    }, ["from rirkit.a import TESTED\nassert TESTED == 3\n"]) == ["a.py line 2: DEAD"]


def test_no_dead_constants():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert dead_constants(sources, readers) == []
