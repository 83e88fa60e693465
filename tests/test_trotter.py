import pytest

from qblue.encodings import encode_for_compile
from qblue.parser import parse
from qblue.trotter import compile_digital, verify_circuit


def spin_chain(n):
    sites = ", ".join(["t(2)"] * n)
    return parse(f"sites {sites};\n"
                 f"H = sum j in 0..{n - 2} {{ Z(j) Z(j+1) + 0.8 * X(j+1) }};"
                 ).defs["H"]


def hopping_chain(n):
    sites = ", ".join(["F"] * n)
    return parse(f"sites {sites};\n"
                 f"H = sum j in 0..{n - 2} {{ 0.7 * adag(j) a(j+1)"
                 f" + 0.7 * adag(j+1) a(j) + 0.3 * adag(j) a(j) }};"
                 ).defs["H"]


def anticommute(p, q):
    """Pauli strings anticommute when they differ non-trivially on an odd
    number of qubits."""
    clashes = sum(1 for a, b in zip(p, q) if "I" not in (a, b) and a != b)
    return clashes % 2 == 1


def commutator_bound(hs, t, n):
    """(t^2 / 2n) sum_{j<k} ||[c_j P_j, c_k P_k]||, where an anticommuting
    pair contributes 2 |c_j c_k| and a commuting pair nothing (Childs, Su,
    Tran, Wiebe, Zhu, PRX 11, 011020 (2021))."""
    terms = hs.terms
    total = sum(2 * abs(cj * ck)
                for j, (cj, pj) in enumerate(terms)
                for ck, pk in terms[j + 1:] if anticommute(pj, pk))
    return t * t / (2 * n) * total


@pytest.mark.parametrize("chain", [spin_chain, hopping_chain])
@pytest.mark.parametrize("sites", [3, 4, 5, 6])
@pytest.mark.parametrize("steps", [1, 2])
def test_verify_distance_within_commutator_bound(chain, sites, steps):
    e = chain(sites)
    t = 0.6
    circuit, _ = compile_digital(e, t, steps)
    hs, _ = encode_for_compile(e)
    bound = commutator_bound(hs, t, steps)
    dist = verify_circuit(circuit, hs, t)
    assert bound > 0
    assert 0 <= dist <= bound + 1e-12


@pytest.mark.parametrize("source", [
    "sites t(2), t(2), t(2); H = 0.7 * Z(0) Z(2);",
    "sites F, F, F; H = 0.4 * adag(0) a(0);",
    "sites t(2), t(2); H = 1.3 * X(0) Y(1);",
])
def test_single_term_is_exact(source):
    e = parse(source).defs["H"]
    circuit, _ = compile_digital(e, 0.9, 1)
    hs, _ = encode_for_compile(e)
    assert verify_circuit(circuit, hs, 0.9) < 1e-9
