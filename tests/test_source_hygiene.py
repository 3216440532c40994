"""No module of the library imports a name it never uses.

A deletion that leaves its import behind goes unnoticed by every other
test; this one reads each module's syntax tree and fails on such a name.
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
