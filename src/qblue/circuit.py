"""Gate-list circuits with a global-phase accumulator.

Supported gates: h, s, sdg, cx, rx, ry, rz (half-angle rotation convention,
e.g. rz(t) = diag(e^{-it/2}, e^{it/2})).  Circuits convert to dense
unitaries for verification and serialize to a line-oriented text format.
A ``Gate`` is frozen, so one gate object may appear many times in a
circuit, and in several circuits: a Trotter circuit shares each gadget's
gates across its steps (``trotter.plan_to_circuit``), and
``format_circuit`` writes the line of each distinct gate object once.
The unitary is built by applying each gate to the identity, viewed with one
axis per qubit: a diagonal gate scales the two halves of its axis in place,
another single-qubit gate is a 2x2 product on its axis and CX swaps two
quarter slices, so a gate costs O(4^n) time and no gate is ever formed as a
2^n x 2^n matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import QUBIT_CAP, DimensionCapError, ParseError

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


GATE_NAMES = ("h", "s", "sdg", "cx", "rx", "ry", "rz")
_ROTATIONS = ("rx", "ry", "rz")
_DIAGONAL = ("s", "sdg", "rz")


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
            raise ValueError(f"{self.name} needs an angle"
                             if self.angle is None else
                             f"{self.name} takes no angle, got {self.angle}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.name} angle {self.angle} is not finite")


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple = ()
    global_phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.global_phase):
            raise ValueError(f"global phase {self.global_phase} is not finite")
        # one pass over the flattened qubits; only a failure scans gate by
        # gate, to name the first gate out of range
        qubits = list(chain.from_iterable(map(attrgetter("qubits"),
                                              self.gates)))
        if qubits and not (0 <= min(qubits) and max(qubits) < self.width):
            i, g = next((i, g) for i, g in enumerate(self.gates)
                        if not all(0 <= q < self.width for q in g.qubits))
            raise ValueError(
                f"gate {i} ({g}) out of range for width {self.width}")

    def __len__(self):
        return len(self.gates)


def _single_matrix(g: Gate) -> np.ndarray:
    return _H if g.name == "h" else {"rx": _rx, "ry": _ry}[g.name](g.angle)


def _diagonal(g: Gate) -> tuple:
    """The two diagonal entries of an s, sdg or rz gate."""
    if g.name == "rz":
        return np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)
    return 1, (1j if g.name == "s" else -1j)


def circuit_to_matrix(c: Circuit) -> np.ndarray:
    """Product of the gate matrices in application order, times the phase.

    Each gate acts on the rows of the running unitary, never as a 2^n x 2^n
    matrix: a diagonal gate (s, sdg, rz) scales the two halves of its
    qubit's row axis in place, another single-qubit gate is a 2x2 product
    on that axis, and CX swaps the target halves inside the control = 1
    rows.
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
        elif g.name in _DIAGONAL:
            halves = u.reshape(2 ** g.qubits[0], 2, -1)
            d0, d1 = _diagonal(g)
            if d0 != 1:
                halves[:, 0] *= d0
            halves[:, 1] *= d1
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
    """The header line, then one line per gate; each distinct gate object
    is formatted once, however often it recurs."""
    distinct = dict(zip(map(id, c.gates), c.gates))
    text = {key: (f"{g.name} {g.angle!r} {g.qubits[0]}"
                  if g.angle is not None else
                  f"{g.name} " + " ".join(map(str, g.qubits)))
            for key, g in distinct.items()}
    lines = [f"qubits {c.width}; phase {c.global_phase!r};"]
    lines += map(text.__getitem__, map(id, c.gates))
    return "\n".join(lines) + "\n"


_FIELD_RE = re.compile(r"[^\s;]+")   # semicolons separate fields like spaces


def parse_circuit(text: str) -> Circuit:
    """Read the format that ``format_circuit`` writes.

    Lines with no field are skipped.  A malformed line raises ParseError at
    its line and the 1-based column of the first wrong field, or one past
    the last field when one is missing: a header other than ``qubits N``
    with an optional ``phase P``, an unknown gate name, a wrong number of
    fields, a field that is not a finite number, a qubit outside the
    header's width, or a cx whose two qubits are equal.
    """
    lines = [(number, fields)
             for number, ln in enumerate(text.splitlines(), 1)
             if (fields := _fields(ln))]
    if not lines:
        raise ParseError("empty circuit; expected a 'qubits N; phase P;' "
                         "header", 1, 1)
    (number, fields), *body = lines
    finite = _checked(float, math.isfinite)
    spec = [("'qubits'", _checked(str, "qubits".__eq__)),
            ("a qubit count", _checked(int, lambda n: n >= 0))]
    if len(fields) > 2:
        spec += [("'phase'", _checked(str, "phase".__eq__)),
                 ("a finite phase", finite)]
    _, width, *phase = _convert(number, fields, spec)
    qubit = (f"a qubit below {width}",
             _checked(int, range(width).__contains__))
    gates = []
    for number, fields in body:
        col, name = fields[0]
        if name in _ROTATIONS:
            spec = [("a finite angle", finite), qubit]
        elif name == "cx":
            spec = [qubit, qubit]
        elif name in GATE_NAMES:
            spec = [qubit]
        else:
            raise ParseError(f"unknown gate {name!r}", number, col)
        _, *values = _convert(number, fields, [("a gate", str)] + spec)
        angle = values.pop(0) if name in _ROTATIONS else None
        try:
            gates.append(Gate(name, tuple(values), angle))
        except ValueError as exc:
            raise ParseError(str(exc), number, col) from None
    return Circuit(width, tuple(gates), phase[-1] if phase else 0.0)


def _fields(line: str) -> list:
    """(1-based column, text) of each field of a line."""
    return [(m.start() + 1, m.group()) for m in _FIELD_RE.finditer(line)]


def _convert(number: int, fields: list, spec: list) -> list:
    """Convert a line's fields by spec, a list of (what, convert) pairs, one
    per field; a field that fails to convert, a missing one or an extra one
    raises ParseError at its column."""
    values = []
    for (col, field), (what, convert) in zip(fields, spec):
        try:
            values.append(convert(field))
        except ValueError:
            raise ParseError(f"expected {what}, found {field!r}",
                             number, col) from None
    if len(fields) < len(spec):
        col, field = fields[-1]
        raise ParseError(f"expected {spec[len(fields)][0]}, found the end "
                         "of the line", number, col + len(field))
    if len(fields) > len(spec):
        col, field = fields[len(spec)]
        raise ParseError(f"unexpected {field!r} after the last field",
                         number, col)
    return values


def _checked(convert, ok):
    """convert, raising ValueError unless ok holds for the result."""
    def checked(field: str):
        value = convert(field)
        if not ok(value):
            raise ValueError(field)
        return value
    return checked
