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
    # Z(j) Z(j+1) gives four terms on the bond, X(j+1) two on one site
    form = canonicalize(e)
    assert len(form.terms) == 6 * (n - 1)
    for term in form.terms:
        sites = [s for s, _ in term.factors]
        monomials = [len(m) for _, m in term.factors]
        assert (len(sites), monomials) in ((2, [2, 2]), (1, [1]))
        assert sites == list(range(sites[0], sites[0] + len(sites)))


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
