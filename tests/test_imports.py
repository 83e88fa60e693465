"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import qblue

PACKAGE = Path(qblue.__file__).parent


def unused_imports(source):
    """Names a module binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\n"
              "import scipy.sparse\nfrom .expr import Atom, Seq as S\n"
              "scipy.sparse.eye(2)\nS\n")
    assert unused_imports(source) == ["Atom", "os"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so it is not scanned
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = unused_imports(path.read_text())
        if names and path.name != "__init__.py":
            found[path.name] = names
    assert found == {}
