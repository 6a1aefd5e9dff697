"""Every top-level function and class in src/preopt is reached by the library.

The roots are the names in ``preopt.__all__``, the commands registered on
``cli.main`` and the names README's Python example reads. A reached def or
class reaches every name its body (decorators included) reads, and so does
each module's top-level code other than imports, which runs on import.
Names resolve through the module's own defs and its relative imports
(``from .x import y`` and ``from . import x`` with ``x.y``). A function or
class that nothing reaches is a helper only tests call; it belongs beside
the tests.

Methods and properties of the classes ``preopt.__all__`` does not export
are checked by name: one is reached when the package, README's example or
``perfbench/`` reads its name as an attribute. ``self.name`` and
``cls.name`` inside a class reach only that class's member. Dunders are
exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node) -> tuple[set[str], set[tuple[str, str]]]:
    """Names a node reads, and the (name, attribute) pairs of ``name.attr``."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            attrs.add((sub.value.id, sub.attr))
    return names, attrs


def _readme_example(readme: Path) -> ast.Module:
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    return ast.parse("\n".join(blocks))


def _exported(init: ast.Module) -> list[str]:
    return next(
        ast.literal_eval(s.value)
        for s in init.body
        if isinstance(s, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in s.targets)
    )


def _attribute_reads(tree) -> tuple[set[str], set[tuple[ast.ClassDef, str]]]:
    """Attribute names a tree reads on any receiver, and the (class, name)
    pairs of ``self.name`` and ``cls.name`` reads inside a class."""
    anywhere, own = set(), set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                if owner is not None and getattr(child.value, "id", None) in ("self", "cls"):
                    own.add((owner, child.attr))
                else:
                    anywhere.add(child.attr)
            visit(child, child if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return anywhere, own


def unreached(package: Path, readme: Path) -> list[str]:
    """``module.name`` of every top-level def or class no root reaches."""
    trees = {  # the package itself is module ""
        "" if p.stem == "__init__" else p.stem: ast.parse(p.read_text())
        for p in sorted(package.glob("*.py"))
    }
    defs, imports = {}, {}
    for mod, tree in trees.items():
        defs[mod] = {s.name: s for s in tree.body if isinstance(s, DEFS)}
        imports[mod] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None:  # from . import x: a module
                        imports[mod][local] = (alias.name, None)
                    else:
                        imports[mod][local] = (stmt.module, alias.name)

    def resolve(mod: str, name: str):
        """The (module, def) a name in mod stands for, or None."""
        while name not in defs.get(mod, {}):
            if name not in imports.get(mod, {}):
                return None
            mod, name = imports[mod][name]
            if name is None:
                return None
        return mod, name

    def targets(mod: str, node) -> set[tuple[str, str]]:
        names, attrs = _reads(node)
        found = {resolve(mod, name) for name in names}
        for base, attr in attrs:
            target = imports.get(mod, {}).get(base)
            if target is not None and target[1] is None:
                found.add(resolve(target[0], attr))
        return found - {None}

    exported = _exported(trees[""])
    frontier = {resolve("", name) for name in exported}
    frontier |= {
        ("cli", name)
        for name, node in defs["cli"].items()
        for deco in getattr(node, "decorator_list", [])
        if "main.command" in ast.unparse(deco)
    }
    example = _readme_example(readme)
    defs["<readme>"], imports["<readme>"] = {}, {}
    for stmt in ast.walk(example):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "preopt":
            for alias in stmt.names:
                target = (alias.name, None) if alias.name in trees else ("", alias.name)
                imports["<readme>"][alias.asname or alias.name] = target
    frontier |= targets("<readme>", example)
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, DEFS + (ast.Import, ast.ImportFrom)):
                frontier |= targets(mod, stmt)

    reached = set()
    frontier.discard(None)  # an exported name that is no def
    while frontier:
        key = frontier.pop()
        reached.add(key)
        mod, name = key
        frontier |= targets(mod, defs[mod][name]) - reached
    return sorted(
        f"{mod or 'preopt'}.{name}"
        for mod in trees
        for name in defs[mod]
        if (mod, name) not in reached
    )


def unreached_members(package: Path, readme: Path, tools: Path) -> list[str]:
    """``module.Class.member`` of every non-dunder method or property of a
    class outside ``__all__`` whose name no attribute read in the package,
    README's example or the ``tools`` tree reaches."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    exported = _exported(trees["__init__"])
    sources = [*trees.values(), _readme_example(readme)]
    sources += [ast.parse(p.read_text()) for p in sorted(tools.rglob("*.py"))]
    anywhere, own = set(), set()
    for tree in sources:
        names, pairs = _attribute_reads(tree)
        anywhere |= names
        own |= pairs
    return sorted(
        f"{mod}.{cls.name}.{member.name}"
        for mod, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name not in exported
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in anywhere
        and (cls, member.name) not in own
    )


def test_library_holds_only_reached_code():
    assert unreached(ROOT / "src" / "preopt", ROOT / "README.md") == []


def test_library_holds_only_reached_members():
    assert unreached_members(ROOT / "src" / "preopt", ROOT / "README.md", ROOT / "perfbench") == []


def test_scan_finds_an_unreached_helper(tmp_path):
    package = tmp_path / "preopt"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .core import run\n__all__ = ['run']\n"
    )
    (package / "core.py").write_text(
        "from . import extra\n"
        "LIMIT = 3\n"
        "def run():\n    return _step() + extra.used()\n"
        "def _step():\n    return LIMIT\n"
        "def only_tests():\n    return _step()\n"
    )
    (package / "extra.py").write_text(
        "def used():\n    return 1\n"
        "def shown():\n    return 2\n"
        "class Orphan:\n    pass\n"
    )
    (package / "cli.py").write_text(
        "import click\n"
        "@click.group()\ndef main():\n    pass\n"
        "@main.command()\ndef go():\n    pass\n"
        "def _unused():\n    pass\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("```python\nfrom preopt import extra\nextra.shown()\n```\n")
    assert unreached(package, readme) == [
        "cli._unused", "core.only_tests", "extra.Orphan",
    ]


def test_scan_finds_an_unreached_member(tmp_path):
    package = tmp_path / "preopt"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .core import Public, run\n__all__ = ['Public', 'run']\n"
    )
    (package / "core.py").write_text(
        "class Public:\n    def only_tests(self):\n        return 1\n"
        "class Helper:\n"
        "    def __init__(self):\n        self.size = self.total()\n"
        "    def total(self):\n        return 2\n"
        "    @property\n    def shown(self):\n        return 3\n"
        "    def traced(self):\n        return 4\n"
        "    def count(self):\n        return 5\n"
        "    def only_tests(self):\n        return 6\n"
        "class Other:\n"
        "    def calls_count(self):\n        return self.count()\n"
        "def run():\n    return Helper().total() + Other().calls_count()\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("```python\nfrom preopt import core\ncore.Helper().shown\n```\n")
    tools = tmp_path / "perfbench"
    tools.mkdir()
    (tools / "trace.py").write_text("def probe(h):\n    return h.traced()\n")
    assert unreached_members(package, readme, tools) == [
        "core.Helper.count", "core.Helper.only_tests",
    ]
