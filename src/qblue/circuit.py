"""Gate-list circuits with a global-phase accumulator.

Supported gates: h, s, sdg, cx, rx, ry, rz (half-angle rotation convention,
e.g. rz(t) = diag(e^{-it/2}, e^{it/2})).  Circuits convert to dense
unitaries for verification and serialize to a line-oriented text format.
The unitary is built by applying each gate in place to the identity, viewed
with one axis per qubit: a single-qubit gate is a 2x2 product on its axis
and CX swaps two quarter slices, so a gate costs O(4^n) time and no gate is
ever formed as a 2^n x 2^n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QUBIT_CAP, DimensionCapError

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = np.diag([1, -1j]).astype(complex)


def _rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]).astype(complex)


GATE_NAMES = ("h", "s", "sdg", "cx", "rx", "ry", "rz")
_ROTATIONS = ("rx", "ry", "rz")


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple          # (q,) or (control, target)
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.name == "cx":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"cx needs two distinct qubits, got {self.qubits}")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.name} acts on one qubit, got {self.qubits}")
        if (self.angle is None) == (self.name in _ROTATIONS):
            raise ValueError(f"gate {self.name} angle mismatch")


def h(q):
    return Gate("h", (q,))


def s(q):
    return Gate("s", (q,))


def sdg(q):
    return Gate("sdg", (q,))


def cx(control, target):
    return Gate("cx", (control, target))


def rx(angle, q):
    return Gate("rx", (q,), float(angle))


def ry(angle, q):
    return Gate("ry", (q,), float(angle))


def rz(angle, q):
    return Gate("rz", (q,), float(angle))


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple = ()
    global_phase: float = 0.0

    def __post_init__(self):
        for g in self.gates:
            if any(not 0 <= q < self.width for q in g.qubits):
                raise ValueError(f"gate {g} out of range for width {self.width}")

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.width != other.width:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.width, self.gates + other.gates,
                       self.global_phase + other.global_phase)

    def __len__(self):
        return len(self.gates)


def _single_matrix(g: Gate) -> np.ndarray:
    fixed = {"h": _H, "s": _S, "sdg": _SDG}.get(g.name)
    if fixed is not None:
        return fixed
    return {"rx": _rx, "ry": _ry, "rz": _rz}[g.name](g.angle)


def circuit_to_matrix(c: Circuit) -> np.ndarray:
    """Product of the gate matrices in application order, times the phase.

    Each gate acts in place on the rows of the running unitary, never as a
    2^n x 2^n matrix: a single-qubit gate is a 2x2 product on that qubit's
    row axis, and CX swaps the target halves inside the control = 1 rows.
    """
    if c.width > QUBIT_CAP:
        raise DimensionCapError(f"width {c.width} exceeds cap {QUBIT_CAP}")
    n = c.width
    dim = 2 ** n
    # row index bits, qubit 0 most significant, then the column index
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in c.gates:
        if g.name == "cx":
            control, target = g.qubits
            lo = [slice(None)] * n
            lo[control], lo[target] = 1, 0
            hi = lo[:target] + [1] + lo[target + 1:]
            lo, hi = tuple(lo), tuple(hi)
            u[lo], u[hi] = u[hi], u[lo].copy()
        else:
            q = g.qubits[0]
            u = (_single_matrix(g) @ u.reshape(2 ** q, 2, -1)).reshape(u.shape)
    return np.exp(1j * c.global_phase) * u.reshape(dim, dim)


# ---------------------------------------------------------------------------
# Text format:
#   qubits 3; phase 0.0;
#   cx 0 1
#   rz 0.125 1
# ---------------------------------------------------------------------------

def format_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.width}; phase {c.global_phase!r};"]
    for g in c.gates:
        if g.angle is not None:
            lines.append(f"{g.name} {g.angle!r} {g.qubits[0]}")
        else:
            lines.append(f"{g.name} " + " ".join(str(q) for q in g.qubits))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits"):
        raise ValueError("circuit text must start with a 'qubits N; phase P;' header")
    head = lines[0].replace(";", " ").split()
    width = int(head[1])
    phase = float(head[3]) if len(head) > 3 else 0.0
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        name = parts[0]
        if name in _ROTATIONS:
            gates.append(Gate(name, (int(parts[2]),), float(parts[1])))
        elif name == "cx":
            gates.append(Gate(name, (int(parts[1]), int(parts[2]))))
        else:
            gates.append(Gate(name, (int(parts[1]),)))
    return Circuit(width, tuple(gates), phase)
