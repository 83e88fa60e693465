"""Every module of the package reads each name it imports, and every
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


# Definitions with no caller in the package that stay: the entry point, the
# dense reference the tests compare against, the single-site constructors
# and graded tensor product that build trees by hand, and the override
# argparse calls back.  What only these reach stays too.
NO_CALLER_NEEDED = {"cli.main", "linalg.expr_to_matrix", "expr.create",
                    "expr.annihilate", "expr.identity", "expr.tensor",
                    "cli._ArgumentParser.error"}


def definitions(tree):
    """(qualified name, node) of each module-level function and class, and
    of each method of a class, dunders excluded."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item


def names_read(node, skip):
    """Counter of the names and attribute names read under node, leaving
    out the subtrees whose id is in skip."""
    read, stack = Counter(), [node]
    while stack:
        n = stack.pop()
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name):
            read[n.id] += 1
        elif isinstance(n, ast.Attribute):
            read[n.attr] += 1
        stack.extend(ast.iter_child_nodes(n))
    return read


def unreferenced(sources, live=frozenset()):
    """Definitions of sources (module name -> text) that nothing names but
    their own body and the bodies of other such definitions, as sorted
    "module.name".  The scan repeats with the bodies found so far left out
    until nothing new turns up, so a function only dead code calls is found
    too.  The definitions in live are never left out, so what they call
    counts as called.  A name is matched as text, so an attribute of the
    same name elsewhere counts as a caller."""
    trees = [ast.parse(text) for text in sources.values()]
    defs = {f"{module}.{qualname}": node
            for module, tree in zip(sources, trees)
            for qualname, node in definitions(tree)}
    dead: dict = {}
    while True:
        skip = set(map(id, dead.values()))
        total = sum((names_read(tree, skip) for tree in trees), Counter())
        new = {}
        for key, node in defs.items():
            owner, name = key.rsplit(".", 1)
            # the body of a method of a dead class is already left out
            own = Counter() if owner in dead else names_read(node, skip)
            if (key not in dead and key not in live
                    and total[name] == own[name]):
                new[key] = node
        if not new:
            return sorted(dead)
        dead.update(new)


def test_the_scan_finds_unreferenced_definitions():
    sources = {
        "a": ("def used():\n    return helper()\n"
              "def helper():\n    return helper()\n"
              "def dead(n):\n    return dead(n - 1) + middle()\n"
              "def middle():\n    return leaf()\n"
              "def leaf():\n    return 0\n"
              "def _private():\n    pass\n"
              "def gone():\n    return _hidden()\n"
              "def _hidden():\n    return tail()\n"
              "def tail():\n    return 0\n"
              "def entry():\n    return _reached()\n"
              "def _reached():\n    return 0\n"
              "class Box:\n"
              "    def size(self):\n        return 1\n"
              "    def grow(self):\n        return self.size()\n"
              "    def __len__(self):\n        return 0\n"),
        "b": "from a import Box, used\nused(Box())\n",
    }
    # middle and leaf are called only from dead code, one step after the
    # other, as are _hidden and tail after gone, and Box.size only from the
    # dead Box.grow; the live entry keeps _reached
    assert unreferenced(sources, {"a.entry"}) == [
        "a.Box.grow", "a.Box.size", "a._hidden", "a._private", "a.dead",
        "a.gone", "a.leaf", "a.middle", "a.tail"]


def test_every_public_definition_has_a_caller_in_the_package():
    # __init__ names everything to re-export it, so it is no caller
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    assert unreferenced(sources, NO_CALLER_NEEDED) == []
