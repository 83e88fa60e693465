import math

import pytest
from hypothesis import given, strategies as st

from qblue.encodings import encode_for_compile
from qblue.errors import FitError
from qblue.parser import parse
from qblue.pauli import pauli_sum
from qblue import trotter
from qblue.trotter import (
    IBM, TrotterPlan, compile_digital, fit_machine, plan_to_circuit,
    synthesize_term, trotterize, verify_circuit,
)
from qblue.typecheck import canonicalize

from helpers import pauli_allclose


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
    folded = ()
    for string, angle in plan.slices:
        folded += synthesize_term(string, angle).gates
    circuit = plan_to_circuit(plan)
    assert circuit.gates == folded
    assert circuit.global_phase == plan.identity_phase


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_steps_share_the_first_steps_gates(steps, monkeypatch):
    hs, _ = encode_for_compile(canonicalize(hopping_chain(4)))
    plan = trotterize(hs, 0.6, steps)
    width = len(plan.slices) // steps
    first = plan_to_circuit(TrotterPlan(plan.qubits, 1, plan.slices[:width]))
    calls = []

    def counting(string, angle):
        calls.append((string, angle))
        return synthesize_term(string, angle)

    monkeypatch.setattr(trotter, "synthesize_term", counting)
    gates = plan_to_circuit(plan).gates
    assert gates == first.gates * steps
    assert sorted(calls) == sorted(set(plan.slices)) == sorted(
        plan.slices[:width])
    # later steps hold the very gate objects of the first
    assert all(g is h for g, h in zip(gates, gates[len(first):]))


def hand_derived_sum(chain, n):
    """The Pauli sum of an n-site chain, term by term: J Z(j) Z(j+1) and
    h X(j+1) are one string each, t (adag(j) a(j+1) + adag(j+1) a(j)) is
    (t/2)(XX + YY) on qubits j, j+1 (adjacent sites leave no Z string),
    and mu adag(j) a(j) = (mu/2)(I - Z) on qubit j."""
    def string(letters):
        return "".join(letters.get(q, "I") for q in range(n))

    terms = []
    for j in range(n - 1):
        if chain is spin_chain:
            terms += [(1.0, string({j: "Z", j + 1: "Z"})),
                      (0.8, string({j + 1: "X"}))]
        else:
            terms += [(0.35, string({j: "X", j + 1: "X"})),
                      (0.35, string({j: "Y", j + 1: "Y"})),
                      (0.15, string({})), (-0.15, string({j: "Z"}))]
    return pauli_sum(n, terms)


@pytest.mark.parametrize("sites", [3, 4])
@pytest.mark.parametrize("chain, method", [
    (spin_chain, "direct"), (hopping_chain, "jw"),
])
def test_encoding_equals_the_hand_derived_sum(chain, method, sites):
    hs, report = encode_for_compile(canonicalize(chain(sites)))
    assert report.method == method
    assert hs == hand_derived_sum(chain, sites)


def schedule_to_pauli(schedule, spec):
    """The Pauli sum a schedule realizes."""
    terms = []
    patterns = dict(spec.templates)
    for j, slots in schedule.assignments:
        for slot, coeff in slots:
            if coeff == 0.0:
                continue
            left, right = patterns[slot]
            string = ["I"] * schedule.width
            if left != "I":
                string[j] = left
            if right != "I":
                string[j + 1] = right
            terms.append((coeff, "".join(string)))
    return pauli_sum(schedule.width, terms)


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
    assert pauli_allclose(schedule_to_pauli(fit_machine(hs, IBM), IBM), hs)


def test_fit_leaves_a_lone_letter_without_its_side_uncovered():
    # Z sits on the left of a pair and X on the right, so a lone Z on the
    # last qubit and a lone X on qubit 0 have no template
    hs = pauli_sum(3, [(0.5, "IIZ"), (0.25, "XII"), (1.0, "ZXI")])
    with pytest.raises(FitError) as err:
        fit_machine(hs, IBM)
    assert err.value.uncovered == ((0.5, "IIZ"), (0.25, "XII"))


def test_fit_leaves_the_identity_term_out():
    # the identity term is a global phase, as in trotterize
    e = parse("sites t(2), t(2), t(2);\nH = sum j in 0..1 "
              "{ 0.7 * Z(j) Z(j+1) + 0.3 * X(j+1) } + 0.5 * I(0);").defs["H"]
    hs, _ = encode_for_compile(canonicalize(e))
    assert [c for c, s in hs.terms if s == "III"] == [pytest.approx(0.5)]
    want = pauli_sum(3, [(c, s) for c, s in hs.terms if s != "III"])
    assert pauli_allclose(schedule_to_pauli(fit_machine(hs, IBM), IBM), want)
