import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from qblue.circuit import Circuit, Gate
from qblue.encodings import encode_for_compile
from qblue.errors import CompileError
from qblue.parser import parse
from qblue.pauli import pauli_sum, pauli_to_matrix
from qblue import trotter
from qblue.trotter import (
    IBM, MachineSpec, TrotterPlan, compile_digital, fit_machine,
    plan_to_circuit, synthesize_term, trotterize, verify_circuit,
)
from qblue.typecheck import canonicalize

from helpers import pauli_allclose, unitary


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


def bose_hubbard_chain(n):
    sites = ", ".join(["t(4)"] * n)
    return parse(f"sites {sites};\n"
                 f"H = sum j in 0..{n - 2} {{ 0.8 * adag(j) a(j+1)"
                 f" + 0.8 * adag(j+1) a(j) + 1.2 * adag(j) adag(j) a(j) a(j)"
                 f" }};").defs["H"]


def anticommute(p, q):
    """Pauli strings anticommute when they differ non-trivially on an odd
    number of qubits."""
    clashes = sum(1 for a, b in zip(p, q) if "I" not in (a, b) and a != b)
    return clashes % 2 == 1


def commutator_bound(hs, t, n):
    """(t^2 / 2n) sum_{j<k} ||[c_j P_j, c_k P_k]||, where an anticommuting
    pair contributes 2 |c_j c_k| and a commuting pair nothing (Childs, Su,
    Tran, Wiebe, Zhu, PRX 11, 011020 (2021))."""
    # each |c t| is the scale-free rotation angle, so a tiny c at a huge t
    # neither overflows nor underflows
    terms = [(abs(c * t), p) for c, p in hs.terms]
    total = sum(2 * aj * ak
                for j, (aj, pj) in enumerate(terms)
                for ak, pk in terms[j + 1:] if anticommute(pj, pk))
    return total / (2 * n)


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


@pytest.mark.parametrize("chain, sites", [
    (spin_chain, 4), (spin_chain, 8), (hopping_chain, 5), (hopping_chain, 8),
    (bose_hubbard_chain, 3), (bose_hubbard_chain, 4)])
def test_the_state_distance_is_at_most_the_operator_distance(chain, sites):
    # up to 8 qubits, on either side of LANCZOS_MIN_DIM: the figure on the
    # seeded states, then the spectral norm of C - U, then the bound
    e = chain(sites)
    t, steps = 0.7, 2
    circuit, _ = compile_digital(e, t, steps)
    hs, _ = encode_for_compile(canonicalize(e))
    exact = scipy.linalg.expm(-1j * t * pauli_to_matrix(hs).toarray())
    operator = np.linalg.norm(unitary(circuit) - exact, 2)
    assert (1e-3 < verify_circuit(circuit, hs, t) <= operator
            <= commutator_bound(hs, t, steps) + 1e-12)


@pytest.mark.parametrize("sites", [6, 8])
def test_a_retargeted_cx_puts_the_distance_above_the_bound(sites):
    # the first cx of the spin chain's circuit, cx j j+1, made cx j j-1
    e = spin_chain(sites)
    t, steps = 0.5, 8
    circuit, _ = compile_digital(e, t, steps)
    hs, _ = encode_for_compile(canonicalize(e))
    bound = commutator_bound(hs, t, steps)
    assert verify_circuit(circuit, hs, t) <= bound
    i, (j, _) = next((i, g.qubits) for i, g in enumerate(circuit.gates)
                     if g.name == "cx")
    gates = list(circuit.gates)
    gates[i] = Gate("cx", (j, j - 1))
    faulty = Circuit(circuit.width, tuple(gates), circuit.global_phase)
    assert verify_circuit(faulty, hs, t) > 2 * bound


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
    return TrotterPlan(qubits, steps, tuple(step), phase)


@given(plans())
def test_plan_to_circuit_is_the_fold_of_gadgets(plan):
    folded = ()
    for string, angle in plan.slices:
        folded += synthesize_term(string, angle, {})
    circuit = plan_to_circuit(plan)
    assert circuit.gates == folded * plan.steps
    assert circuit.global_phase == plan.identity_phase


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_steps_share_the_first_steps_gates(steps, monkeypatch):
    hs, _ = encode_for_compile(canonicalize(hopping_chain(4)))
    plan = trotterize(hs, 0.6, steps)
    # the plan lists one step: a slice per non-identity string
    assert [s for s, _ in plan.slices] == [s for _, s in hs.terms
                                          if s.strip("I")]
    first = plan_to_circuit(TrotterPlan(plan.qubits, 1, plan.slices))
    calls = []

    def counting(string, angle, gates):
        calls.append((string, angle))
        return synthesize_term(string, angle, gates)

    monkeypatch.setattr(trotter, "synthesize_term", counting)
    gates = plan_to_circuit(plan).gates
    assert gates == first.gates * steps
    assert calls == list(plan.slices)
    # later steps hold the very gate objects of the first
    assert all(g is h for g, h in zip(gates, gates[len(first):]))


def bose_hubbard_chain(n):
    sites = ", ".join(["t(4)"] * n)
    return parse(f"sites {sites};\n"
                 f"H = sum j in 0..{n - 2} {{ 0.8 * adag(j) a(j+1)"
                 f" + 0.8 * adag(j+1) a(j)"
                 f" + 1.2 * adag(j) adag(j) a(j) a(j) }};").defs["H"]


@pytest.mark.parametrize("sites", [3, 4])
def test_gadgets_share_one_object_per_angle_free_gate(sites):
    circuit, _ = compile_digital(bose_hubbard_chain(sites), 0.7, 2)
    fixed = [g for g in circuit.gates if g.angle is None]
    # an h, s, sdg or cx recurs in many gadgets of a step
    assert len(fixed) > 4 * len(set(fixed))
    assert len({id(g) for g in fixed}) == len(set(fixed))


def test_two_compiles_share_no_gate():
    e = bose_hubbard_chain(3)
    first, _ = compile_digital(e, 0.7, 2)
    second, _ = compile_digital(e, 0.7, 2)
    assert first == second
    assert not {id(g) for g in first.gates} & {id(g) for g in second.gates}


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
    assert report["method"] == method
    assert hs == hand_derived_sum(chain, sites)


def schedule_to_pauli(schedule, spec, qubits):
    """The Pauli sum on qubits that a schedule realizes."""
    terms = []
    patterns = dict(spec.templates)
    for j, slots in schedule:
        for slot, coeff in slots:
            if coeff == 0.0:
                continue
            left, right = patterns[slot]
            string = ["I"] * qubits
            if left != "I":
                string[j] = left
            if right != "I":
                string[j + 1] = right
            terms.append((coeff, "".join(string)))
    return pauli_sum(qubits, terms)


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
    assert pauli_allclose(
        schedule_to_pauli(fit_machine(hs, IBM), IBM, hs.qubits), hs)


def test_fit_leaves_a_lone_letter_without_its_side_uncovered():
    # Z sits on the left of a pair and X on the right, so a lone Z on the
    # last qubit and a lone X on qubit 0 have no template
    hs = pauli_sum(3, [(0.5, "IIZ"), (0.25, "XII"), (1.0, "ZXI")])
    with pytest.raises(CompileError) as err:
        fit_machine(hs, IBM)
    assert str(err.value).endswith("no template for: +0.5 IIZ, +0.25 XII")


def test_a_lone_letter_takes_the_template_with_its_letter_on_the_left():
    # Z on qubit q fits ("Z", "I") at pair q and ("I", "Z") at pair q - 1;
    # the left-letter template wins wherever both pairs exist
    spec = MachineSpec("both", (("right", ("I", "Z")), ("left", ("Z", "I"))))
    hs = pauli_sum(3, [(0.5, "ZII"), (0.25, "IZI"), (0.125, "IIZ")])
    assert fit_machine(hs, spec) == (
        (0, (("right", 0.0), ("left", 0.5))),
        (1, (("right", 0.125), ("left", 0.25))))


def template_strings(spec, qubits):
    """The strings some template of spec makes at some pair: a string fits
    (left, right) at pair j when it holds those letters there and I
    elsewhere."""
    return {s for s in map("".join, itertools.product("IXYZ", repeat=qubits))
            for _, (left, right) in spec.templates
            for j in range(qubits - 1)
            if (s[j], s[j + 1]) == (left, right)
            and not (s[:j] + s[j + 2:]).strip("I")}


SPECS = [IBM, MachineSpec("both", (("a", ("Z", "I")), ("b", ("I", "Z")),
                                   ("c", ("X", "Y")), ("d", ("I", "X"))))]


@st.composite
def fit_cases(draw):
    """(spec, sum) with strings drawn from the spec's templates, lone
    letters and any letters, on 1 to 5 qubits."""
    spec = draw(st.sampled_from(SPECS))
    qubits = draw(st.integers(1, 5))
    letters = st.text("IXYZ", min_size=qubits, max_size=qubits)
    if qubits > 1:
        placed = st.builds(
            lambda tpl, j: "I" * j + "".join(tpl[1]) + "I" * (qubits - j - 2),
            st.sampled_from(spec.templates), st.integers(0, qubits - 2))
        letters = st.one_of(letters, placed)
    terms = draw(st.lists(st.tuples(st.sampled_from([0.25, -0.5, 1.5]),
                                    letters), min_size=1, max_size=6))
    return spec, pauli_sum(qubits, terms)


@given(fit_cases())
def test_fit_realizes_the_sum_or_lists_what_no_template_makes(case):
    spec, hs = case
    fits = template_strings(spec, hs.qubits)
    uncovered = [s for _, s in hs.terms if s.strip("I") and s not in fits]
    if not uncovered:
        want = pauli_sum(hs.qubits, [(c, s) for c, s in hs.terms
                                     if s.strip("I")])
        assert pauli_allclose(
            schedule_to_pauli(fit_machine(hs, spec), spec, hs.qubits), want)
        return
    with pytest.raises(CompileError) as err:
        fit_machine(hs, spec)
    listing = str(err.value).split("no template for: ")[1]
    assert [term.split()[1] for term in listing.split(", ")] == uncovered


def test_fit_leaves_the_identity_term_out():
    # the identity term is a global phase, as in trotterize
    e = parse("sites t(2), t(2), t(2);\nH = sum j in 0..1 "
              "{ 0.7 * Z(j) Z(j+1) + 0.3 * X(j+1) } + 0.5 * I(0);").defs["H"]
    hs, _ = encode_for_compile(canonicalize(e))
    assert [c for c, s in hs.terms if s == "III"] == [pytest.approx(0.5)]
    want = pauli_sum(3, [(c, s) for c, s in hs.terms if s != "III"])
    assert pauli_allclose(
        schedule_to_pauli(fit_machine(hs, IBM), IBM, hs.qubits), want)
