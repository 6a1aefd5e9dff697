"""Every global name a module reads is bound, imported or builtin, and
every name it imports is read.

A stdlib stand-in for a linter's undefined-name check: ``symtable`` lists,
per scope, the names read as globals; each must be bound at module level
(by assignment, def, class, import, or a ``global`` statement that assigns
it), be a builtin, or be one of the attributes every module is given.

And for its unused-import check: ``ast`` lists the names each import binds,
and each must be read somewhere in the module, quoted annotations included.
``from __future__`` imports and the names a module re-exports in its
``__all__`` are exempt.

And for a dead-code check: every private (underscore-prefixed) function or
class a library module defines at module level must be read, as a name or
an attribute, by some library module, so no library helper serves tests
alone.
"""

import ast
import builtins
import symtable
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/preopt/*.py"))
SOURCES = LIBRARY + sorted(ROOT.glob("tests/*.py"))

#: names the import system gives every module, plus the builtins
PROVIDED = set(dir(builtins)) | set(vars(types.ModuleType("m"))) | {
    "__file__", "__cached__", "__builtins__",
}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def unbound_globals(path: Path) -> list[tuple[str, str]]:
    """(scope, name) for every global read that nothing in the module binds."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {sym.get_name() for sym in top.get_symbols() if sym.is_assigned() or sym.is_imported()}
    scopes = list(_scopes(top))
    for scope in scopes:
        bound |= {
            sym.get_name()
            for sym in scope.get_symbols()
            if sym.is_declared_global() and sym.is_assigned()
        }
    return [
        (scope.get_name(), sym.get_name())
        for scope in scopes
        for sym in scope.get_symbols()
        if sym.is_referenced()
        and (sym.is_global() or scope is top)
        and sym.get_name() not in bound | PROVIDED
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unbound_global_names(path):
    assert unbound_globals(path) == []


def test_scan_finds_an_unbound_name(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from m import LABELS\n"
        "X = 1\n"
        "def f(a):\n"
        "    return [IN_U for _ in LABELS] + [a, X, len(a)]\n"
        "Y = UNDEFINED + X\n"
    )
    assert sorted(name for _, name in unbound_globals(source)) == ["IN_U", "UNDEFINED"]


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read inside quoted annotations, such as ``"Instance"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations = [node.annotation]
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations = [node.returns]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    quoted = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unread_imports(path: Path) -> list[str]:
    """Every name the module's imports bind that the module never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read - _annotation_names(tree) - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_imports(path):
    assert unread_imports(path) == []


def test_scan_finds_an_unread_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from m import A, B as C, D, E\n"
        "__all__ = ['D']\n"
        "def f(x: A, y: 'E') -> np.ndarray:\n"
        "    return x\n"
    )
    assert unread_imports(source) == ["C", "os"]


def unread_helpers(paths: list[Path]) -> list[str]:
    """``module.name`` for every private module-level function or class
    that none of the modules reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
        and node.name.startswith("_")
        and node.name not in read
    )


def test_no_library_helper_left_unread():
    assert unread_helpers(LIBRARY) == []


def test_scan_finds_an_unread_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used(): pass\n"
        "def _by_attribute(): pass\n"
        "def _unused(): pass\n"
        "class _Dead: pass\n"
        "def public(): return _used()\n"
        "def _nested():\n"
        "    def _inner(): pass\n"
    )
    (tmp_path / "b.py").write_text("import a\nX = a._by_attribute\nY = a._nested\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_helpers(paths) == ["a._Dead", "a._unused"]
