"""No module of the library imports a name it never uses, and no
module-level private name goes unread.

A deletion that leaves its import, or the helper only it called, behind
goes unnoticed by every other test; these read each module's syntax tree
and fail on such a name.
"""

import ast
from pathlib import Path

import packclass

SRC = Path(packclass.__file__).parent
# (module, name) pairs bound only to be read by importers.
RE_EXPORTS = {("__init__", "PackclassError")}


def unused_imports(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind, anywhere in it, that
    no expression in it reads; a dotted `import a.b` binds `a`."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}: {name}" for name in unused_imports(tree) if (path.stem, name) not in RE_EXPORTS]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "import os, os.path as p\n"
        "from .graph import Graph, bits\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, bits(1), p\n"
    )
    assert unused_imports(tree) == ["Graph", "json"]


def private_names(tree: ast.Module) -> list[str]:
    """The private names (one leading underscore, not a dunder) that the
    module's top level binds with a function, a class or an assignment."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, ast.Assign):
            bound += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.append(node.target.id)
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """The names the module's expressions read, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def test_every_private_name_is_read_by_some_module():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    unread = [f"{name}: {private}" for name, tree in trees.items() for private in private_names(tree) if private not in read]
    assert unread == []


def test_an_unread_private_name_is_caught():
    tree = ast.parse(
        "_CAP = 3\n"
        "_LIMIT: int = 4\n"
        "__all__ = []\n"
        "def _dead(): return _CAP\n"
        "class _Used: pass\n"
        "def public(x): return x._LIMIT, _Used\n"
    )
    assert private_names(tree) == ["_CAP", "_LIMIT", "_dead", "_Used"]
    assert {"_CAP", "_LIMIT", "_Used"} <= read_names(tree) and "_dead" not in read_names(tree)
