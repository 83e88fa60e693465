"""First-order Trotterization, gate gadget synthesis, and machine fitting.

A Hermitian Pauli sum splits into per-term rotations e^{-i c (t/n) P}
repeated n times.  Each rotation synthesizes to a basis-change + CX-ladder
+ RZ gadget; alternatively the sum can be fitted onto an analog machine's
per-pair interaction templates instead of gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, circuit_to_matrix
from .errors import CompileError, FitError, NonHermitianError
from .expr import Flag, HamExpr
from .pauli import PauliSum, is_hermitian_pauli, pauli_to_matrix
from .typecheck import typecheck


@dataclass(frozen=True)
class TrotterPlan:
    """n repetitions of per-term rotations; angle = 2 * coeff * t / n.

    ``slices`` lists (pauli_string, angle) for all n steps in order.
    Identity terms carry no rotation; their accumulated phase is kept in
    ``identity_phase`` (the e^{i phase} factor of the full product).
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
    return TrotterPlan(hs.qubits, n, tuple(step_terms) * n, phase)


def plan_matrix(plan: TrotterPlan) -> np.ndarray:
    """Exact product of the plan's per-term exponentials (oracle helper)."""
    from .pauli import pauli_sum
    from .linalg import matrix_exp_sim
    dim = 2 ** plan.qubits
    u = np.exp(1j * plan.identity_phase) * np.eye(dim, dtype=complex)
    for string, angle in plan.slices:
        m = pauli_to_matrix(pauli_sum(plan.qubits, [(1.0, string)]))
        u = matrix_exp_sim(m, angle / 2.0) @ u
    return u


def synthesize_term(string: str, angle: float) -> Circuit:
    """Circuit for e^{-i (angle/2) P} up to global phase.

    Non-identity qubits enter a basis change (X: H; Y: Sdg then H), a CX
    chain carries the parity onto the last active qubit where RZ(angle)
    applies, then everything uncomputes in reverse.
    """
    width = len(string)
    active = [q for q, letter in enumerate(string) if letter != "I"]
    if not active:
        raise ValueError("identity string has no rotation; fold the "
                         "coefficient into the global phase instead")
    if len(active) == 1 and string[active[0]] in "XY":
        # lone X/Y terms are plain axis rotations
        name = "rx" if string[active[0]] == "X" else "ry"
        return Circuit(width, (Gate(name, (active[0],), float(angle)),))
    enter: list[Gate] = []
    for q in active:
        if string[q] == "X":
            enter.append(Gate("h", (q,)))
        elif string[q] == "Y":
            enter.append(Gate("sdg", (q,)))
            enter.append(Gate("h", (q,)))
    ladder = [Gate("cx", (a, b)) for a, b in zip(active, active[1:])]
    gates = enter + ladder
    gates.append(Gate("rz", (active[-1],), float(angle)))
    gates += reversed(ladder)
    for q in reversed(active):
        if string[q] == "X":
            gates.append(Gate("h", (q,)))
        elif string[q] == "Y":
            gates.append(Gate("h", (q,)))
            gates.append(Gate("s", (q,)))
    return Circuit(width, tuple(gates))


def plan_to_circuit(plan: TrotterPlan) -> Circuit:
    gates = []
    for string, angle in plan.slices:
        gates.extend(synthesize_term(string, angle).gates)
    return Circuit(plan.qubits, tuple(gates), plan.identity_phase)


def compile_digital(e: HamExpr, t: float, n: int, method: str = "auto",
                    hp_level: int | None = None):
    """Compile a Hermitian expression to a digital circuit.

    Encodes onto qubits (unary boson truncation for t(2^(k+1)) sites,
    Jordan-Wigner for fermions, direct for t(2)), Trotterizes with n steps,
    and concatenates one gadget per term.  Returns (Circuit, EncodingReport).
    The circuit approximates e^{-i M t} for the encoded Hamiltonian matrix M,
    which equals the expression's own matrix for direct and jw encodings.
    """
    from .encodings import encode_for_compile
    ty = typecheck(e)
    if ty.flag is not Flag.H:
        raise CompileError(
            "only Hermitian programs (flag h) are executable; this one "
            "certifies only flag p")
    hs, report = encode_for_compile(e, method, hp_level)
    if not is_hermitian_pauli(hs):
        raise CompileError("encoding produced a non-Hermitian Pauli sum")
    plan = trotterize(hs, t, n)
    return plan_to_circuit(plan), report


def verify_circuit(circuit: Circuit, hs: PauliSum, t: float) -> float:
    """Global-phase-minimized max-norm distance from e^{-i hs t}."""
    from .linalg import matrix_exp_sim, phase_aligned_distance
    exact = matrix_exp_sim(pauli_to_matrix(hs), t)
    return phase_aligned_distance(circuit_to_matrix(circuit), exact)


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


def ibm_machine() -> MachineSpec:
    """ZX and ZZ interactions plus Z-on-left / X-on-right rotations."""
    return MachineSpec("ibm", (
        ("z1", ("Z", "X")),
        ("z2", ("Z", "Z")),
        ("z3", ("Z", "I")),
        ("z4", ("I", "X")),
    ))


MACHINES = {"ibm": ibm_machine}


@dataclass(frozen=True)
class AnalogSchedule:
    """Per-pair coefficient assignment for every template slot."""

    machine: str
    width: int
    assignments: tuple  # tuple[tuple[int, tuple[tuple[str, float], ...]], ...]

    def coefficient(self, pair: int, slot: str) -> float:
        for p, slots in self.assignments:
            if p == pair:
                return dict(slots).get(slot, 0.0)
        return 0.0


def fit_machine(hs: PauliSum, spec: MachineSpec) -> AnalogSchedule:
    """Assign every term of hs to a matching template slot.

    Exact cover is required: any term whose support or letters fit no
    template raises FitError listing the uncovered terms (they would need a
    further Trotter split into machine-sized pieces).
    """
    if not is_hermitian_pauli(hs):
        raise NonHermitianError("machine fitting requires a Hermitian sum")
    width = hs.qubits
    pairs = {j: {slot: 0.0 for slot, _ in spec.templates}
             for j in range(max(width - 1, 0))}
    uncovered = []
    for coeff, string in hs.terms:
        support = [q for q, letter in enumerate(string) if letter != "I"]
        slot = None
        if len(support) == 2 and support[1] == support[0] + 1:
            j = support[0]
            pattern = (string[j], string[j + 1])
            slot = _match_slot(spec, pattern, pair_only=True)
        elif len(support) == 1:
            q = support[0]
            letter = string[q]
            # a single-qubit term sits on whichever pair side hosts it
            if _match_slot(spec, (letter, "I")) and q + 1 < width:
                j, slot = q, _match_slot(spec, (letter, "I"))
            elif _match_slot(spec, ("I", letter)) and q - 1 >= 0:
                j, slot = q - 1, _match_slot(spec, ("I", letter))
        if slot is None or (len(support) == 2 and support[0] not in pairs):
            uncovered.append((coeff, string))
            continue
        pairs[j][slot] += coeff.real
    if uncovered:
        listing = ", ".join(f"{c.real:+g} {s}" for c, s in uncovered)
        raise FitError(
            f"machine '{spec.name}' has no template for: {listing}", uncovered)
    assignments = tuple(
        (j, tuple((slot, pairs[j][slot]) for slot, _ in spec.templates))
        for j in sorted(pairs))
    return AnalogSchedule(spec.name, width, assignments)


def _match_slot(spec: MachineSpec, pattern, pair_only: bool = False):
    for slot, tpl in spec.templates:
        if pair_only and "I" in tpl:
            continue
        if tpl == pattern:
            return slot
    return None


def schedule_to_pauli(schedule: AnalogSchedule, spec: MachineSpec) -> PauliSum:
    """Reconstruct the Pauli sum a schedule realizes (soundness check)."""
    from .pauli import pauli_sum
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


def format_schedule(schedule: AnalogSchedule) -> str:
    lines = []
    for j, slots in schedule.assignments:
        body = " ".join(f"{slot}={coeff:g}" for slot, coeff in slots)
        lines.append(f"pair {j} {j + 1}: {body}")
    return "\n".join(lines) + "\n"
