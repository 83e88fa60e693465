"""First-order Trotterization, gate gadget synthesis, and machine fitting.

A Hermitian Pauli sum splits into per-term rotations e^{-i c (t/n) P}
repeated n times.  Each rotation synthesizes to a basis-change + CX-ladder
+ RZ gadget; alternatively the sum can be fitted onto an analog machine's
per-pair interaction templates instead of gates.

A compile builds each gate once: every gadget of the circuit takes its
angle-free gates (h, s, sdg, cx) from one table per ``plan_to_circuit``
call, keyed by (name, qubits), and every Trotter step repeats the first
step's gate objects.  Each rotation is built once per slice.  No table
outlives its call, so two compiles share no gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, apply_circuit
from .errors import COEFF_EQ_TOL, CompileError, NonHermitianError, negligible
from .encodings import encode_for_compile
from .expr import HamExpr
from .linalg import evolve
from .pauli import PauliSum, is_hermitian_pauli, pauli_to_matrix
from .typecheck import hermiticity_report


@dataclass(frozen=True)
class TrotterPlan:
    """``steps`` repetitions of per-term rotations; angle = 2 * coeff * t / n.

    ``slices`` lists (pauli_string, angle) for one step in order; every
    step repeats it.  Identity terms carry no rotation; their accumulated
    phase is kept in ``identity_phase`` (the e^{i phase} factor of the full
    product).
    """

    qubits: int
    steps: int
    slices: tuple            # tuple[tuple[str, float], ...]
    identity_phase: float = 0.0


def trotterize(hs: PauliSum, t: float, n: int) -> TrotterPlan:
    """Split e^{-i hs t} into n sweeps of single-term rotations.

    Term order inside a sweep is the canonical (lexicographic) sum order.
    """
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if not is_hermitian_pauli(hs):
        raise NonHermitianError(
            "trotterization requires a Hermitian Pauli sum (real coefficients)")
    step_terms = []
    phase = 0.0
    identity = "I" * hs.qubits
    for coeff, string in hs.terms:
        if string == identity:
            phase += -coeff.real * t
        else:
            step_terms.append((string, 2.0 * coeff.real * t / n))
    return TrotterPlan(hs.qubits, n, tuple(step_terms), phase)


def synthesize_term(string: str, angle: float, gates: dict) -> tuple:
    """The gates of e^{-i (angle/2) P} up to global phase, in order.

    Non-identity qubits enter a basis change (X: H; Y: Sdg then H), a CX
    chain carries the parity onto the last active qubit where RZ(angle)
    applies, then everything uncomputes in reverse.  gates is the
    compile's table {(name, qubits): Gate} of angle-free gates (h, s, sdg,
    cx): each is taken from it, or built and stored there on first use.
    A rotation carries this slice's angle and is built here.
    """
    active = [q for q, letter in enumerate(string) if letter != "I"]
    if not active:
        raise ValueError("identity string has no rotation; fold the "
                         "coefficient into the global phase instead")
    if len(active) == 1 and string[active[0]] in "XY":
        # lone X/Y terms are plain axis rotations
        name = "rx" if string[active[0]] == "X" else "ry"
        return (Gate(name, (active[0],), float(angle)),)
    # the basis change in qubit order, and its inverse listed back to front
    enter, leave = [], []
    for q in active:
        if string[q] == "X":
            enter.append(("h", (q,)))
            leave.append(("h", (q,)))
        elif string[q] == "Y":
            enter += ("sdg", (q,)), ("h", (q,))
            leave += ("s", (q,)), ("h", (q,))
    ladder = [("cx", pair) for pair in zip(active, active[1:])]
    keys = enter + ladder + ladder[::-1] + leave[::-1]
    out = [gates.get(k) or gates.setdefault(k, Gate(*k)) for k in keys]
    out.insert(len(enter) + len(ladder),
               Gate("rz", (active[-1],), float(angle)))
    return tuple(out)


def plan_to_circuit(plan: TrotterPlan) -> Circuit:
    """The plan as one circuit: each slice's gadget in slice order, with
    the identity phase as the global phase.

    Each slice is synthesized once, and the one step's gates repeat
    ``steps`` times, so every later step holds the first step's gate
    objects.  Within the step, the gadgets take their angle-free gates
    from one table made for this call, so the circuit holds one object
    per distinct (name, qubits) of them; the table dies with the call.
    """
    gates: dict = {}
    step = tuple(g for string, angle in plan.slices
                 for g in synthesize_term(string, angle, gates))
    return Circuit(plan.qubits, step * plan.steps, plan.identity_phase)


def encode_hermitian(e: HamExpr):
    """(PauliSum, report dict) of an expression certified Hermitian.

    The one step from a program to qubits that ``compile``, ``fit`` and
    ``verify`` share: the Hermiticity certificate decides flag h, and the
    encoder takes the canonical form the certificate built, on the method
    the layout's site types pick.  Flag p raises CompileError.  The
    certificate is the one Hermiticity verdict on this path, so the sum
    keeps the real part of each encoded coefficient, and a string drops
    when that part is ``negligible`` at COEFF_EQ_TOL against its |c|: what
    remains of an imaginary part is the rounding of a cancellation.
    """
    hermitian, form = hermiticity_report(e)
    if not hermitian:
        raise CompileError(
            "only Hermitian programs (flag h) are executable; this one "
            "certifies only flag p")
    hs, report = encode_for_compile(form)
    return PauliSum(hs.qubits, tuple(
        (complex(c.real), s) for c, s in hs.terms
        if not negligible(c.real, abs(c), COEFF_EQ_TOL))), report


def compile_digital(e: HamExpr, t: float, n: int):
    """Compile a Hermitian expression to a digital circuit.

    Encodes onto qubits with ``encode_hermitian``, Trotterizes with n steps,
    and concatenates one gadget per term.  Returns (Circuit, report dict).
    The circuit approximates e^{-i M t} for the encoded Hamiltonian matrix M,
    which equals the expression's own matrix for direct and jw encodings.
    """
    hs, report = encode_hermitian(e)
    return plan_to_circuit(trotterize(hs, t, n)), report


VERIFY_STATES = 4   # the seeded states verify compares on


def verify_circuit(circuit: Circuit, hs: PauliSum, t: float) -> float:
    """The distance of the circuit from e^{-i hs t} on VERIFY_STATES
    normalized Gaussian states psi_j of fixed seed: d = ||A - e^{i alpha}
    B||_F / sqrt(m) for the circuit's block A = C psi and the exact block
    B = e^{-i hs t} psi, at alpha = arg tr(B^dag A), the phase that
    minimizes it.  Each column of (C - e^{i alpha} U) psi has norm at most
    ||C - e^{i alpha} U||_2, so d is at most the operator distance, and
    the commutator bound of the Trotter error bounds it too.
    The exact side is ``linalg.evolve`` on the Sparse of hs, checked
    Hermitian on its stored entries."""
    h = pauli_to_matrix(hs)
    states = np.random.default_rng(0).standard_normal((h.dim, VERIFY_STATES))
    states /= np.linalg.norm(states, axis=0)
    exact = evolve(h, states, t)
    applied = apply_circuit(circuit, states)
    # d from the difference: 2 - 2 |tr| / m cancels to the square root of
    # the rounding, about 1e-8
    aligned = np.exp(1j * np.angle(np.vdot(exact, applied))) * exact
    return float(np.linalg.norm(applied - aligned)) / math.sqrt(VERIFY_STATES)


# ---------------------------------------------------------------------------
# Analog machine templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MachineSpec:
    """Named per-adjacent-pair interaction templates with free coefficients.

    Each template maps a slot name to a two-letter pattern over the pair
    (j, j+1); 'I' marks the unused side of a single-qubit template.
    """

    name: str
    templates: tuple  # tuple[tuple[str, tuple[str, str]], ...]


# ZX and ZZ interactions plus Z-on-left / X-on-right rotations
IBM = MachineSpec("ibm", (
    ("z1", ("Z", "X")),
    ("z2", ("Z", "Z")),
    ("z3", ("Z", "I")),
    ("z4", ("I", "X")),
))


def fit_machine(hs: PauliSum, spec: MachineSpec) -> tuple:
    """The assignments ((j, ((slot, coeff), ...)), ...) of hs: for each
    pair (j, j+1), the summed coefficient of every template slot.

    One table maps the full-width string of each template at each pair to
    that (pair, slot), and a term fits exactly when its string is a key.
    The templates whose left letter is I enter first, so a lone letter that
    both (L, I) at its own pair and (I, L) at the pair before could host
    goes to the left-letter one.  Exact cover is required: any other term
    raises CompileError listing the uncovered terms (they would need a
    further Trotter split into machine-sized pieces).  The identity term is
    a global phase, as in ``trotterize``; no template realizes it and the
    schedule leaves it out.
    """
    if not is_hermitian_pauli(hs):
        raise NonHermitianError("machine fitting requires a Hermitian sum")
    width = hs.qubits
    table = {"I" * j + left + right + "I" * (width - j - 2): (j, slot)
             for slot, (left, right) in sorted(spec.templates,
                                               key=lambda t: t[1][0] != "I")
             for j in range(width - 1)}
    table.pop("I" * width, None)   # an (I, I) template takes no identity
    sums, uncovered = {}, []   # sums: (pair, slot) -> coefficient
    for coeff, string in hs.terms:
        if string in table:
            sums[table[string]] = sums.get(table[string], 0.0) + coeff.real
        elif string.strip("I"):   # the identity term is a global phase
            uncovered.append((coeff, string))
    if uncovered:
        listing = ", ".join(f"{c.real:+g} {s}" for c, s in uncovered)
        raise CompileError(
            f"machine '{spec.name}' has no template for: {listing}")
    return tuple((j, tuple((slot, sums.get((j, slot), 0.0))
                           for slot, _ in spec.templates))
                 for j in range(width - 1))


def format_schedule(assignments: tuple) -> str:
    lines = []
    for j, slots in assignments:
        body = " ".join(f"{slot}={coeff:g}" for slot, coeff in slots)
        lines.append(f"pair {j} {j + 1}: {body}")
    return "\n".join(lines) + "\n"
