"""Gate-list circuits with a global-phase accumulator.

Supported gates: h, s, sdg, cx, rx, ry, rz (half-angle rotation convention,
e.g. rz(t) = diag(e^{-it/2}, e^{it/2})).  Circuits convert to dense
unitaries for verification and serialize to a line-oriented text format.
A ``Gate`` is frozen, so one gate object may appear many times in a
circuit, and in several circuits: a compiled Trotter circuit holds one
object per distinct angle-free gate and per slice's rotation, repeated
across its steps (``trotter.plan_to_circuit``), and ``format_circuit``
writes the line of each distinct gate object once.
The unitary is built from runs of gates on k <= ``FUSE`` qubits: a run
multiplies into one 2^k x 2^k unitary that is applied once to the 2^n x 2^n
matrix, so a run, not a gate, costs O(2^k 4^n) time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import (
    QUBIT_CAP, DimensionCapError, ParseError, finite_float, natural,
)

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


# Runs hold at most FUSE qubits: 4 fits a weight-4 Bose-Hubbard gadget (bh
# N=4, n=1: 4.1 ms, 30.6 ms at 3), and 5 is slower at 6-8 qubits (2 cores).
FUSE = 4


def circuit_to_matrix(c: Circuit) -> np.ndarray:
    """Product of the gate matrices in application order, times the phase.

    Each run of ``_runs`` contracts with the k row axes of its qubits; the
    trailing column axis may be any block of columns.
    """
    if c.width > QUBIT_CAP:
        raise DimensionCapError(f"width {c.width} exceeds cap {QUBIT_CAP}")
    n, dim = c.width, 2 ** c.width
    # row index bits, qubit 0 most significant, then the column index
    u = np.exp(1j * c.global_phase) * np.eye(dim).reshape((2,) * n + (dim,))
    for axes, gates in _runs(c.gates):
        k, qubits = len(axes), list(axes)
        run = _unitary(k, gates, axes).reshape((2,) * 2 * k)
        u = np.moveaxis(np.tensordot(run, u, (range(k, 2 * k), qubits)),
                        range(k), qubits)
    return u.reshape(dim, dim)


def _runs(gates):
    """Cut gates, in order, into greedy runs that touch at most FUSE qubits
    together, as (axes, gates): axes maps each qubit to its axis in the
    run's unitary, in the order the run first touches them."""
    axes, run = {}, []
    for g in gates:
        fresh = [q for q in g.qubits if q not in axes]
        if len(axes) + len(fresh) > FUSE:
            yield axes, run
            axes, run, fresh = {}, [], g.qubits
        for q in fresh:
            axes[q] = len(axes)
        run.append(g)
    if run:
        yield axes, run


def _unitary(k: int, gates, axes: dict) -> np.ndarray:
    """The 2^k x 2^k product of gates, qubit q on row axis axes[q]: a
    diagonal gate (s, sdg, rz) scales the two halves of its axis in place,
    another single-qubit gate is a 2x2 product on that axis, and CX swaps
    the target halves inside the control = 1 rows."""
    u = np.eye(2 ** k, dtype=complex).reshape((2,) * k + (2 ** k,))
    for g in gates:
        if g.name == "cx":
            control, target = axes[g.qubits[0]], axes[g.qubits[1]]
            lo = [slice(None)] * k
            lo[control], lo[target] = 1, 0
            hi = lo[:target] + [1] + lo[target + 1:]
            lo, hi = tuple(lo), tuple(hi)
            u[lo], u[hi] = u[hi], u[lo].copy()
        elif g.name in _DIAGONAL:
            halves = u.reshape(2 ** axes[g.qubits[0]], 2, -1)
            d0, d1 = _diagonal(g)
            if d0 != 1:
                halves[:, 0] *= d0
            halves[:, 1] *= d1
        else:
            q = axes[g.qubits[0]]
            u = (_single_matrix(g) @ u.reshape(2 ** q, 2, -1)).reshape(u.shape)
    return u.reshape(2 ** k, 2 ** k)


# ---------------------------------------------------------------------------
# Text format:
#   qubits 3; phase 0.0;
#   cx 0 1
#   rz 0.125 1
# Its numbers are in the digits 0-9 by errors.finite_float and errors.natural.
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

    Cost: each line is split once into its fields' texts, which key it;
    only a key not seen before is located column by column (``_fields``)
    and converted to its Gate, so a circuit of L lines and K distinct
    gates pays L splits and dict lookups and K conversions.
    """
    lines = [(number, ln, key)
             for number, ln in enumerate(text.splitlines(), 1)
             if (key := tuple(ln.replace(";", " ").split()))]
    if not lines:
        raise ParseError("empty circuit; expected a 'qubits N; phase P;' "
                         "header", 1, 1)
    (number, ln, _), *body = lines
    fields = _fields(ln)
    spec = [("'qubits'", ["qubits"].index), ("a qubit count", natural)]
    if len(fields) > 2:
        spec += [("'phase'", ["phase"].index),
                 ("a finite phase", finite_float)]
    _, width, *phase = _convert(number, fields, spec)
    qubit = (f"a qubit below {width}",
             lambda field: range(width).index(natural(field)))
    gates, parsed = [], {}   # a line's field texts to its Gate, if it parsed
    for number, ln, key in body:
        if key not in parsed:
            fields = _fields(ln)
            col, name = fields[0]
            if name in _ROTATIONS:
                spec = [("a finite angle", finite_float), qubit]
            elif name == "cx":
                spec = [qubit, qubit]
            elif name in GATE_NAMES:
                spec = [qubit]
            else:
                raise ParseError(f"unknown gate {name!r}", number, col)
            _, *values = _convert(number, fields, [("a gate", str)] + spec)
            angle = values.pop(0) if name in _ROTATIONS else None
            try:
                parsed[key] = Gate(name, tuple(values), angle)
            except ValueError as exc:
                raise ParseError(str(exc), number, col) from None
        gates.append(parsed[key])
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
