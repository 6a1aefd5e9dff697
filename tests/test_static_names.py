"""Every global name a module reads is bound, imported or builtin.

A stdlib stand-in for a linter's undefined-name check: ``symtable`` lists,
per scope, the names read as globals; each must be bound at module level
(by assignment, def, class, import, or a ``global`` statement that assigns
it), be a builtin, or be one of the attributes every module is given.
"""

import builtins
import symtable
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/preopt/*.py")) + sorted(ROOT.glob("tests/*.py"))

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
