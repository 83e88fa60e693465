import math

import pytest
from hypothesis import given, strategies as st

from qblue.circuit import Circuit
from qblue.encodings import encode_for_compile
from qblue.expr import LadderKind
from qblue.parser import parse
from qblue.pauli import PauliSum, identity_sum, pauli_allclose, pauli_sum
from qblue.trotter import (
    TrotterPlan, compile_digital, fit_machine, ibm_machine, plan_to_circuit,
    schedule_to_pauli, synthesize_term, verify_circuit,
)
from qblue.typecheck import canonicalize


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
    hs, _ = encode_for_compile(canonicalize(e))
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
    hs, _ = encode_for_compile(canonicalize(e))
    assert verify_circuit(circuit, hs, 0.9) < 1e-9


@st.composite
def plans(draw):
    qubits = draw(st.integers(1, 4))
    strings = st.text("IXYZ", min_size=qubits, max_size=qubits).filter(
        lambda p: p != "I" * qubits)
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    step = draw(st.lists(st.tuples(strings, angles), max_size=6))
    steps = draw(st.integers(1, 3))
    phase = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    return TrotterPlan(qubits, steps, tuple(step) * steps, phase)


@given(plans())
def test_plan_to_circuit_is_the_fold_of_gadgets(plan):
    folded = Circuit(plan.qubits, (), plan.identity_phase)
    for string, angle in plan.slices:
        folded = folded + synthesize_term(string, angle)
    circuit = plan_to_circuit(plan)
    assert circuit.gates == folded.gates
    assert circuit.global_phase == folded.global_phase


def per_term_fold(e, z_string):
    """The Pauli sum of e's canonical terms, added one term at a time with
    a -> (X+iY)/2 and a^dag -> (X-iY)/2 (Z strings for Jordan-Wigner)."""
    form = canonicalize(e)
    w = len(form.layout)
    total = PauliSum(w, ())
    for term in form.terms:
        acc = identity_sum(w, term.coeff)
        for q, monomial in term.factors:
            for kind in monomial:
                pad = ("Z" if z_string else "I") * q
                rest = "I" * (w - q - 1)
                sign = -1j if kind is LadderKind.CREATE else 1j
                acc = pauli_sum(w, [(0.5, pad + "X" + rest),
                                    (0.5 * sign, pad + "Y" + rest)]) * acc
        total = total + acc
    return total


@pytest.mark.parametrize("sites", [3, 4])
@pytest.mark.parametrize("chain, method", [
    (spin_chain, "direct"), (hopping_chain, "jw"),
])
def test_encoding_equals_per_term_fold(chain, method, sites):
    e = chain(sites)
    hs, report = encode_for_compile(canonicalize(e))
    assert report.method == method
    assert hs.terms == per_term_fold(e, z_string=method == "jw").terms


coefficients = st.floats(-2, 2, allow_nan=False, allow_subnormal=False)


@given(st.integers(3, 8).flatmap(lambda n: st.lists(
    st.tuples(coefficients, coefficients), min_size=n - 1, max_size=n - 1)))
def test_fitted_schedule_realizes_the_spin_chain(bonds):
    # sum_j J_j Z(j) Z(j+1) + h_j X(j+1) fits the ZZ and right-X templates
    n = len(bonds) + 1
    body = " + ".join(f"{J!r} * Z({j}) Z({j + 1}) + {h!r} * X({j + 1})"
                      for j, (J, h) in enumerate(bonds))
    e = parse(f"sites {', '.join(['t(2)'] * n)};\nH = {body};").defs["H"]
    hs, _ = encode_for_compile(canonicalize(e))
    machine = ibm_machine()
    assert pauli_allclose(schedule_to_pauli(fit_machine(hs, machine), machine),
                          hs)
