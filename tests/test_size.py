"""The front end pays per term, not per term x site: a size guard that
counts tree nodes and canonical-term sites instead of timing anything."""

import pytest

from qblue.expr import Atom
from qblue.parser import parse
from qblue.typecheck import canonicalize


def spin_chain(n):
    return parse(f"sites {', '.join(['t(2)'] * n)};\n"
                 f"H = sum j in 0..{n - 2} "
                 "{ 0.9 * Z(j) Z(j+1) + 0.8 * X(j+1) };\n").defs["H"]


def nodes(e):
    """Every node of the tree, walked over the n-ary children."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, Atom):
            stack.extend(node.children)
    return out


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_spin_chain_tree_and_terms_grow_with_the_bonds(n):
    e = spin_chain(n)
    tree = nodes(e)
    assert len(tree) <= 40 * n
    # each indexed atom is one node that lists its own site only
    atoms = [node for node in tree if isinstance(node, Atom)]
    assert all(len(atom.ops) == 1 for atom in atoms)
    assert all(atom.layout is e.layout for atom in atoms)
    # Z = 2 |1><1| - I on t(2), so Z(j) Z(j+1) is 4 n(j) n(j+1) - 2 n(j)
    # - 2 n(j+1) + I with n = |1><1|, and X(j+1) is |1><0| + |0><1|: the
    # bonds' identities merge into one term, and so do the n(j) of the two
    # bonds at a site
    number = [((j, (1, 1)),) for j in range(n)]
    bonds = [((j, (1, 1)), (j + 1, (1, 1))) for j in range(n - 1)]
    flips = [((j, unit),) for j in range(1, n) for unit in ((0, 1), (1, 0))]
    form = canonicalize(e)
    assert [term.units for term in form.terms] == sorted(
        [()] + number + bonds + flips)


@pytest.mark.parametrize("n", [4, 32])
def test_spin_chain_builds_each_atom_once(n, monkeypatch):
    # a literal prefix such as 0.9 * Z(j) folds into the atoms as they are
    # built, so no atom is built and then rebuilt by scale
    built = []
    post_init = Atom.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Atom, "__post_init__", counting)
    tree = [node for node in nodes(spin_chain(n)) if isinstance(node, Atom)]
    assert len(built) == len(tree) == 10 * (n - 1)
