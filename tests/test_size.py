"""The front end pays per term, not per term x site, the canonical form
per meeting pair of terms, not per pair, the dense lowering per diagonal,
not per term, and verify, which compares on 4 seeded states, per state,
not per dimension: a size guard that counts tree nodes, canonical-term
sites, unit products, diagonals, eigh shapes and peak bytes instead of
timing anything.  --out
rewrites its files in place: the guard reads the flags they are opened with,
since truncating a file that holds data is the slow step."""

import importlib
import os
import tracemalloc

import pytest

from qblue import circuit, linalg
from qblue.circuit import format_circuit, parse_circuit
from qblue.cli import main
from qblue.expr import Atom
from qblue.parser import parse
from qblue.trotter import compile_digital, encode_hermitian, verify_circuit
from qblue.typecheck import canonicalize

import oracle
from helpers import run_counts

# the package re-exports the function typecheck under the module's name
typecheck_module = importlib.import_module("qblue.typecheck")


def spin_chain(n):
    return parse(f"sites {', '.join(['t(2)'] * n)};\n"
                 f"H = sum j in 0..{n - 2} "
                 "{ 0.9 * Z(j) Z(j+1) + 0.8 * X(j+1) };\n").defs["H"]


def hopping_chain(n):
    """Fermion hops between neighbours and a chemical potential."""
    return parse(f"sites {', '.join(['F'] * n)};\n"
                 f"H = sum j in 0..{n - 2} "
                 "{ 0.9 * adag(j) a(j+1) + 0.9 * adag(j+1) a(j)"
                 " + 0.3 * adag(j) a(j) };\n").defs["H"]


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
    # each indexed atom is one node that names its own site only, and
    # each Z(j) holds one identity atom: two per bond, every other atom a
    # ladder
    atoms = [node for node in tree if isinstance(node, Atom)]
    assert sum(atom.ladder is None for atom in atoms) == 2 * (n - 1)
    assert all(atom.layout is e.layout for atom in atoms)
    # Z = 2 |1><1| - I on t(2), so Z(j) Z(j+1) is 4 n(j) n(j+1) - 2 n(j)
    # - 2 n(j+1) + I with n = |1><1|, and X(j+1) is |1><0| + |0><1|: the
    # bonds' identities merge into one term, and so do the n(j) of the two
    # bonds at a site
    number = [((j, (1, 1)),) for j in range(n)]
    bonds = [((j, (1, 1)), (j + 1, (1, 1))) for j in range(n - 1)]
    flips = [((j, unit),) for j in range(1, n) for unit in ((0, 1), (1, 0))]
    form = canonicalize(e)
    assert list(form.terms) == sorted(
        [()] + number + bonds + flips)


@pytest.mark.parametrize("n", [4, 32])
def test_spin_chain_builds_each_atom_once(n, monkeypatch):
    # a literal prefix such as 0.9 * Z(j) folds into the atoms as they are
    # built, so no atom is built and then rebuilt by scale
    built = []
    init = Atom.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Atom, "__init__", counting)
    tree = [node for node in nodes(spin_chain(n)) if isinstance(node, Atom)]
    assert len(built) == len(tree) == 8 * (n - 1)


@pytest.mark.parametrize("n", [8, 32])
def test_a_spin_bond_costs_three_products(n, monkeypatch):
    # Z(j) is 2 adag(j) a(j) - I(j), one product, and Z(j) Z(j+1) one more:
    # a bond's three products meet no |0><0| = I - |1><1| from an a adag
    calls = {"_product": 0, "_zero_projector": 0}
    for name in calls:
        def counting(*args, name=name, f=getattr(typecheck_module, name)):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(typecheck_module, name, counting)
    canonicalize(spin_chain(n))
    assert calls == {"_product": 3 * (n - 1), "_zero_projector": 0}


@pytest.mark.parametrize("chain", [spin_chain, hopping_chain])
@pytest.mark.parametrize("n", [8, 12])
def test_the_lowering_pays_per_diagonal(chain, n):
    # a bond's flips or hops move the occupation index by plus or minus the
    # stride of site j+1, and Z(j) Z(j+1) or a number term moves it by none:
    # 2n - 1 shifts, each one diagonal however many terms land on it
    assert len(linalg._lower(chain(n), {})) == 2 * n - 1


@pytest.mark.parametrize("power", [2, 4])
def test_a_one_site_factor_meets_each_term_once(power, monkeypatch):
    # each term of adag(0)^k on t(200) has a unit |n+k><n| at site 0, and
    # the next adag(0) has one unit whose column is that row: one unit
    # product per term, not one per pair of the two forms' terms
    products = []
    unit_product = typecheck_module._unit_product

    def counting(*args):
        products.append(args)
        return unit_product(*args)

    monkeypatch.setattr(typecheck_module, "_unit_product", counting)
    form = canonicalize(parse("sites t(200);\nH = " + "adag(0) " * power
                              + ";\n").defs["H"])
    assert len(form.terms) == 200 - power
    assert len(products) <= sum(200 - k for k in range(1, power))


def hopping_bonds(site, n, onsite=""):
    """0.8 (adag(j) a(j+1) + adag(j+1) a(j)) between neighbours of n sites
    of one type, plus 1.2 times the on-site term at every site."""
    text = (f"sites {', '.join([site] * n)};\nH = sum j in 0..{n - 2} "
            "{ 0.8 * adag(j) a(j+1) + 0.8 * adag(j+1) a(j) }")
    if onsite:
        text += f" + sum j in 0..{n - 1} {{ 1.2 * {onsite} }}"
    return parse(text + ";\n").defs["H"]


@pytest.mark.parametrize("e, gates, runs, built, applied", [
    (hopping_bonds("t(4)", 3, "adag(j) adag(j) a(j) a(j)"), 608,
     [(2, 4, 152), (0, 4, 152)], 2, 4),
    (hopping_bonds("F", 8), 252,
     [(4, 4, 54), (1, 4, 54), (0, 2, 18)], 3, 6)], ids=["bh-3", "hop-8"])
def test_a_two_step_circuit_applies_in_a_few_runs(e, gates, runs, built,
                                                  applied):
    # the second step holds the first step's gate objects, so each run of
    # one step is built once and applied in both steps; a run holds whole
    # weight-4 gadgets: the Bose-Hubbard chain's 152-gate bond gadgets, or
    # three neighbouring hopping bonds
    c, _ = compile_digital(e, 0.7, 2)
    assert len(c.gates) == gates
    assert circuit._period(c.gates) == gates // 2
    step = c.gates[:gates // 2]
    assert [(lo, k, len(run)) for lo, k, run in circuit._runs(step)] == runs
    u, *counts = run_counts(c)
    assert counts == [built, applied]
    # the text format shares one gate per line, so a read circuit repeats too
    assert run_counts(parse_circuit(format_circuit(c)))[1:] == (built, applied)
    gate_list = [(g.name, g.qubits, g.angle) for g in c.gates]
    reference = oracle.circuit_unitary(gate_list, c.width, c.global_phase)
    assert oracle.max_norm(u, reference) < 1e-12


def test_verify_builds_no_dim_by_dim_array(monkeypatch):
    # from LANCZOS_MIN_DIM on, the exact side reads e^{-iht} psi from a
    # Krylov space per state, and the circuit applies its runs to the
    # block of states: eigh sees no matrix above that space's tridiagonal,
    # and the peak holds no float dim x dim array
    cases = [(chain, n) for n in (8, 10, 12)
             for chain in (spin_chain, hopping_chain)]
    shapes = []
    eigh = linalg.np.linalg.eigh

    def recording(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(linalg.np.linalg, "eigh", recording)
    for i, (chain, n) in enumerate([cases[0], *cases]):
        assert 2 ** n >= linalg.LANCZOS_MIN_DIM
        c, _ = compile_digital(chain(n), 0.5, 2)
        hs, _ = encode_hermitian(chain(n))
        tracemalloc.start()   # the first run, untraced, loads what it uses
        try:
            distance = verify_circuit(c, hs, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < distance < 1
        assert not i or peak < 4 ** n * 8, (chain.__name__, n, peak)
    assert max(shape[-1] for shape in shapes) < 64


def test_compile_out_opens_its_files_without_truncating(tmp_path, capsys,
                                                       monkeypatch):
    # the circuit and its report are written over and cut to length, so a
    # file rewritten by the next compile keeps its blocks
    prog, out = tmp_path / "h.qb", tmp_path / "h.circ"
    prog.write_text("sites t(2), t(2);\nH = Z(0) Z(1) + 0.8 * X(1);\n")
    flags = {}
    os_open = os.open

    def recording(path, flag, *args, **kwargs):
        flags[str(path)] = flag
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    for _ in range(2):
        assert main(["compile", str(prog), "--t", "0.5", "--n", "1",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n" * 2
    written = [str(out), f"{out}.encoding.json"]
    assert [flags[path] & (os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            for path in written] == [os.O_WRONLY | os.O_CREAT] * 2
