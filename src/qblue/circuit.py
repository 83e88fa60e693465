"""Gate-list circuits with a global-phase accumulator.

Supported gates: h, s, sdg, cx, rx, ry, rz (half-angle rotation convention,
e.g. rz(t) = diag(e^{-it/2}, e^{it/2})).  Circuits apply to a block of
states for verification (the identity block gives the unitary) and
serialize to a line-oriented text format.
A ``Gate`` is frozen, so one gate object may appear many times in a
circuit: a compiled Trotter circuit repeats the first step's gate objects in
every step (``trotter.plan_to_circuit``), ``parse_circuit`` shares one
object per distinct line, and ``format_circuit`` formats each object once.
``apply_circuit`` finds the repeating step by that identity and cuts one
step into runs on contiguous spans of k <= ``FUSE`` qubits: each distinct
run is built once, and each application of it to a 2^n x m block costs
O(2^k 2^n m).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, is_

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


# Runs span at most FUSE qubits: the nine bench verify circuits take 11.7 ms
# at 3, 9.7 at 4 and 9.9 at 5 (1 thread); at 12 qubits 5 is about 8% faster.
FUSE = 4


def apply_circuit(c: Circuit, states: np.ndarray) -> np.ndarray:
    """The circuit's gates in application order, times its phase, applied
    to a 2^width x m block of states; ``np.eye(2 ** c.width)`` gives its
    unitary.  Each run of one step (``_period``, ``_runs``) is built once
    and applied in every step by one batched matmul (a far cx's run in
    place)."""
    if c.width > QUBIT_CAP:
        raise DimensionCapError(f"width {c.width} exceeds cap {QUBIT_CAP}")
    p = _period(c.gates)
    runs = [(lo, k, _apply(run, np.eye(2 ** k, dtype=complex), lo)
             if k <= FUSE else run) for lo, k, run in _runs(c.gates[:p])]
    # a new C-ordered block, since _apply writes into it
    u = np.multiply(np.exp(1j * c.global_phase), states, order="C")
    for lo, k, r in runs * (len(c.gates) // p):
        u = (np.matmul(r, u.reshape(2 ** lo, 2 ** k, -1)).reshape(u.shape)
             if k <= FUSE else _apply(r, u, 0))
    return u


def _period(gates) -> int:
    """The smallest p dividing len(gates) with gate i + p the very object
    gate i for every i: len(gates) if no smaller one, 1 for no gates."""
    n = len(gates)
    return next((p for p in range(1, n) if n % p == 0
                 and all(map(is_, gates[p:], gates))), n or 1)


def _runs(gates):
    """Cut gates, in order, into runs (lo, k, gates) on the qubit span
    [lo, lo + k): a run grows while its span fits in FUSE qubits, and a
    gate wider than FUSE (a far cx) is a run of its own."""
    run = []
    for g in gates:
        a, b = min(g.qubits), max(g.qubits)
        if run and max(b, hi) - min(a, lo) >= FUSE:
            yield lo, hi - lo + 1, run
            run = []
        lo, hi = (min(a, lo), max(b, hi)) if run else (a, b)
        run.append(g)
    if run:
        yield lo, hi - lo + 1, run


def _apply(gates, u: np.ndarray, lo: int) -> np.ndarray:
    """u with gates applied to its rows in order, qubit q on row bit q - lo
    (the first bit most significant): s, sdg and rz scale the halves of
    their bit and CX swaps the target halves inside the control = 1 rows,
    in place; h, rx and ry are a 2x2 product on their bit."""
    for g in gates:
        q = g.qubits[0] - lo
        if g.name == "cx":
            t = g.qubits[1] - lo
            v = u.reshape(2 ** min(q, t), 2, 2 ** abs(q - t) // 2, 2, -1)
            x = v[:, int(q < t), :, int(q > t)]   # control 1, target 0
            x[...], v[:, 1, :, 1] = v[:, 1, :, 1], x.copy()
        elif g.name in _DIAGONAL:
            halves, (d0, d1) = u.reshape(2 ** q, 2, -1), _diagonal(g)
            halves[:, 0] *= d0
            halves[:, 1] *= d1
        else:
            u = (_single_matrix(g) @ u.reshape(2 ** q, 2, -1)).reshape(u.shape)
    return u


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
            message = f"expected {what}, found {field!r}"
            if field.isascii() and field.isdigit():
                try:   # digits too long to convert, named by their length
                    natural(field)
                except ValueError as exc:
                    message = str(exc)
            raise ParseError(message, number, col) from None
    if len(fields) < len(spec):
        col, field = fields[-1]
        raise ParseError(f"expected {spec[len(fields)][0]}, found the end "
                         "of the line", number, col + len(field))
    if len(fields) > len(spec):
        col, field = fields[len(spec)]
        raise ParseError(f"unexpected {field!r} after the last field",
                         number, col)
    return values
