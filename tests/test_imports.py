"""Every module of the package reads each name it imports, and every public
definition has a caller in the package."""

import ast
from collections import Counter
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


# Public definitions with no caller in the package that stay: the entry
# point, the dense reference the tests compare against, and the single-site
# constructors and graded tensor product that build trees by hand.
NO_CALLER_NEEDED = {"cli.main", "linalg.expr_to_matrix", "expr.create",
                    "expr.annihilate", "expr.identity", "expr.tensor"}


def definitions(tree):
    """(qualified name, node) of each public module-level function and
    class, and of each public method, dunders excluded, of a public class."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def names_read(node):
    """Counter of the names and attribute names read under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced(sources):
    """Definitions of sources (module name -> text) that nothing outside
    their own body names, as sorted "module.name".  A name is matched as
    text, so an attribute of the same name elsewhere counts as a caller."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((names_read(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if total[name] == names_read(node)[name]:
                found.append(f"{module}.{qualname}")
    return sorted(found)


def test_the_scan_finds_unreferenced_definitions():
    sources = {
        "a": ("def used():\n    return helper()\n"
              "def helper():\n    return helper()\n"
              "def dead(n):\n    return dead(n - 1)\n"
              "def _private():\n    pass\n"
              "class Box:\n"
              "    def size(self):\n        return 1\n"
              "    def grow(self):\n        return self.size()\n"
              "    def __len__(self):\n        return 0\n"),
        "b": "from a import Box, used\nused(Box())\n",
    }
    assert unreferenced(sources) == ["a.Box.grow", "a.dead"]


def test_every_public_definition_has_a_caller_in_the_package():
    # __init__ names everything to re-export it, so it is no caller
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    assert sorted(set(unreferenced(sources)) - NO_CALLER_NEEDED) == []
