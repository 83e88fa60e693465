import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qblue import circuit
from qblue.circuit import (
    GATE_NAMES, Circuit, Gate, apply_circuit, format_circuit, parse_circuit,
)
from qblue.errors import DimensionCapError, ParseError
from qblue.trotter import compile_digital

import oracle
from helpers import op, run_counts, unitary

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def circuits(draw, widths=(1, 5), sizes=(0, 24)):
    width = draw(st.integers(*widths))
    names = [g for g in GATE_NAMES if g != "cx" or width > 1]
    gates = []
    for _ in range(draw(st.integers(*sizes))):
        name = draw(st.sampled_from(names))
        if name == "cx":
            control, target = draw(st.permutations(range(width)))[:2]
            gates.append(Gate("cx", (control, target)))
        elif name in ("rx", "ry", "rz"):
            gates.append(Gate(name, (draw(st.integers(0, width - 1)),),
                              draw(ANGLES)))
        else:
            gates.append(Gate(name, (draw(st.integers(0, width - 1)),)))
    phase = draw(st.floats(-math.pi, math.pi).filter(lambda p: p != 0))
    return Circuit(width, tuple(gates), phase)


def reference(c: Circuit) -> np.ndarray:
    gates = [(g.name, g.qubits, g.angle) for g in c.gates]
    return oracle.circuit_unitary(gates, c.width, c.global_phase)


@given(circuits())
def test_circuit_matrix_matches_oracle(c):
    assert oracle.max_norm(unitary(c), reference(c)) < 1e-12


@settings(max_examples=30)
@given(circuits(widths=(5, 7), sizes=(30, 60)))
def test_fused_runs_match_oracle_at_five_to_seven_qubits(c):
    # wider than a run, so the runs' unitaries contract with the matrix
    assert oracle.max_norm(unitary(c), reference(c)) < 1e-12


def test_a_step_is_cut_into_contiguous_spans_each_built_once():
    step = (Gate("h", (3,)), Gate("cx", (2, 3)), Gate("ry", (1,), 0.9),
            Gate("cx", (5, 0)), Gate("rz", (5,), 1.1), Gate("cx", (4, 5)),
            Gate("s", (2,)), Gate("rx", (0,), -0.4))
    c = Circuit(6, step * 3, -0.3)
    assert circuit._period(c.gates) == len(step)
    # equal gates that are other objects are no repeat
    copies = tuple(Gate(g.name, g.qubits, g.angle) for g in step)
    assert circuit._period(step + copies) == 2 * len(step)
    # a span grows to FUSE = 4 qubits, and rx on qubit 0 would widen the
    # third run to six; cx 5 0 spans six, so it is a run of its own
    runs = [(lo, k, len(run)) for lo, k, run in circuit._runs(step)]
    assert runs == [(1, 3, 3), (0, 6, 1), (2, 4, 3), (0, 1, 1)]
    # three runs built, four applied in each of three steps
    u, built, applied = run_counts(c)
    assert (built, applied) == (3, 12)
    assert oracle.max_norm(u, reference(c)) < 1e-12


@st.composite
def repeated_steps(draw):
    """1-4 copies of one step, the very gate objects, at 1-8 qubits: the
    step draws its gates from a few objects, as a compiled step shares its
    angle-free gates, and from 5 qubits on it holds a cx wider than FUSE."""
    pool = draw(circuits(widths=(1, 8), sizes=(1, 8)))
    width = pool.width
    step = draw(st.lists(st.sampled_from(pool.gates), max_size=16))
    if width > circuit.FUSE:
        lo = draw(st.integers(0, width - 1 - circuit.FUSE))
        far = (lo, draw(st.integers(lo + circuit.FUSE, width - 1)))
        step.insert(draw(st.integers(0, len(step))),
                    Gate("cx", far[::draw(st.sampled_from([1, -1]))]))
    return Circuit(width, tuple(step) * draw(st.integers(1, 4)),
                   pool.global_phase)


@given(repeated_steps())
def test_a_repeated_step_matches_oracle(c):
    assert oracle.max_norm(unitary(c), reference(c)) < 1e-12


@settings(max_examples=50)
@given(repeated_steps(), st.integers(1, 5))
def test_a_block_of_states_takes_the_unitary(c, m):
    # the states as the columns of a transposed, Fortran-ordered array:
    # the circuit writes into its own copy, and leaves them as they were
    rows = np.random.default_rng(m).standard_normal((m, 2 ** c.width))
    states = rows.T
    out = apply_circuit(c, states)
    assert np.array_equal(rows, np.random.default_rng(m).standard_normal(
        (m, 2 ** c.width)))
    assert oracle.max_norm(out, reference(c) @ states) < 1e-12


def test_every_gate_and_both_cx_orders_match_oracle():
    gates = (Gate("h", (0,)), Gate("s", (1,)), Gate("sdg", (3,)),
             Gate("cx", (0, 2)), Gate("cx", (3, 1)), Gate("rx", (2,), 0.7),
             Gate("ry", (1,), -1.3), Gate("rz", (0,), 2.9), Gate("cx", (2, 0)),
             Gate("h", (3,)), Gate("cx", (1, 3)))
    c = Circuit(4, gates, 0.4)
    assert oracle.max_norm(unitary(c), reference(c)) < 1e-12


def test_cx_is_the_basis_map():
    # |c t> = |1 0> goes to |1 1> with qubit 0 as the control
    u = unitary(Circuit(2, (Gate("cx", (0, 1)),)))
    assert u[3, 2] == 1 and u[2, 3] == 1 and u[0, 0] == 1 and u[1, 1] == 1
    u = unitary(Circuit(2, (Gate("cx", (1, 0)),)))
    assert u[3, 1] == 1 and u[1, 3] == 1 and u[0, 0] == 1 and u[2, 2] == 1


def test_empty_circuit_is_the_phase():
    u = unitary(Circuit(3, (), 0.25))
    assert oracle.max_norm(u, np.exp(0.25j) * np.eye(8)) == 0


@given(circuits())
def test_text_format_roundtrip(c):
    assert parse_circuit(format_circuit(c)) == c


# The reader before lines were keyed by their split fields: every line is
# located column by column, then converted when its fields are new.
REFERENCE_FIELD_RE = re.compile(r"[^\s;]+")
# Its numbers, written apart from the package's rule: ASCII digits only, a
# float with an optional sign, digits on both sides of a point or after a
# leading one, and an optional exponent; a count or a qubit digits alone.
REFERENCE_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d+|\.\d+|\d+)([eE][+-]?\d+)?",
                                re.ASCII)
REFERENCE_INT_RE = re.compile(r"\d+", re.ASCII)


def reference_number(pattern, convert):
    def number(field):
        if not pattern.fullmatch(field):
            raise ValueError(field)
        return convert(field)
    return number


def reference_parse_circuit(text):
    lines = [(number, fields)
             for number, ln in enumerate(text.splitlines(), 1)
             if (fields := reference_fields(ln))]
    if not lines:
        raise ParseError("empty circuit; expected a 'qubits N; phase P;' "
                         "header", 1, 1)
    (number, fields), *body = lines
    finite = reference_checked(reference_number(REFERENCE_FLOAT_RE, float),
                               math.isfinite)
    integer = reference_number(REFERENCE_INT_RE, int)
    spec = [("'qubits'", reference_checked(str, "qubits".__eq__)),
            ("a qubit count", integer)]
    if len(fields) > 2:
        spec += [("'phase'", reference_checked(str, "phase".__eq__)),
                 ("a finite phase", finite)]
    _, width, *phase = reference_convert(number, fields, spec)
    qubit = (f"a qubit below {width}",
             reference_checked(integer, range(width).__contains__))
    gates, parsed = [], {}
    for number, fields in body:
        key = tuple(field for _, field in fields)
        if key not in parsed:
            col, name = fields[0]
            if name in ("rx", "ry", "rz"):
                spec = [("a finite angle", finite), qubit]
            elif name == "cx":
                spec = [qubit, qubit]
            elif name in GATE_NAMES:
                spec = [qubit]
            else:
                raise ParseError(f"unknown gate {name!r}", number, col)
            _, *values = reference_convert(number, fields,
                                           [("a gate", str)] + spec)
            angle = values.pop(0) if name in ("rx", "ry", "rz") else None
            try:
                parsed[key] = Gate(name, tuple(values), angle)
            except ValueError as exc:
                raise ParseError(str(exc), number, col) from None
        gates.append(parsed[key])
    return Circuit(width, tuple(gates), phase[-1] if phase else 0.0)


def reference_fields(line):
    return [(m.start() + 1, m.group()) for m in REFERENCE_FIELD_RE.finditer(line)]


def reference_convert(number, fields, spec):
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


def reference_checked(convert, ok):
    def checked(field):
        value = convert(field)
        if not ok(value):
            raise ValueError(field)
        return value
    return checked


# field separators, Unicode whitespace among them, and fields that are
# wrong somewhere: unknown names, non-finite numbers, qubits out of range,
# numbers in other digits, with underscores or with signs
SEPARATORS = [" ", "  ", "\t", ";", " ; ", ";;", "\xa0", "\u3000", "\x1f"]
ODD_FIELDS = ["qubits", "phase", "cx", "rz", "h", "u3", "nan", "1e999", "-1",
              "0", "1", "7", "0.5", "x", "3;", "٣", "1_0", "٠", "-0", "+1",
              "0_5"]


@st.composite
def circuit_texts(draw):
    """A formatted circuit with a few fields and lines mutated, some gate
    lines repeated, and every line re-spaced."""
    lines = [ln.split(" ") for ln in
             format_circuit(draw(circuits(sizes=(0, 8)))).splitlines()]
    for _ in range(draw(st.integers(0, 2))):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(fields)))
        odd = draw(st.sampled_from(ODD_FIELDS))
        action = draw(st.sampled_from(["replace", "drop", "insert"]))
        if action == "insert":
            fields.insert(at, odd)
        elif at < len(fields):
            fields[at:at + 1] = [] if action == "drop" else [odd]
    lines += [lines[draw(st.integers(0, len(lines) - 1))]
              for _ in range(draw(st.integers(0, 3)))]
    text = []
    for fields in lines:
        seps = draw(st.lists(st.sampled_from(SEPARATORS),
                             min_size=len(fields) + 1,
                             max_size=len(fields) + 1))
        text.append(draw(st.sampled_from(["", " ", ";"])) + "".join(
            sep + field for sep, field in zip(seps, fields)) + seps[-1])
        text += [draw(st.sampled_from(["", " ;", "\t"]))] * draw(
            st.integers(0, 1))
    return "\n".join(text) + draw(st.sampled_from(["", "\n", "\r\n"]))


def reading(read, text):
    """A reader's circuit, with which of its gates are one object, or its
    error with message, line and column."""
    try:
        c = read(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    first = {}
    return c, [first.setdefault(id(g), i) for i, g in enumerate(c.gates)]


@settings(max_examples=400)
@given(circuit_texts())
def test_parse_circuit_matches_the_reference(text):
    assert reading(parse_circuit, text) == reading(reference_parse_circuit,
                                                   text)


@pytest.mark.parametrize("text", [
    "", "\n ;\n", "qubits", "qubits 2; phase", "qubits 2\nh 0 1",
    "qubits 2\nh 2", "qubits 2\n rz 0.5", "qubits 2\ncx 1 1",
    "qubits 2\nu3 0", "qubits 2;phase 0.1;\nh 0;;h\t0\nh 1\nh 0",
    "qubits 1\nrz nan 0", "qubits 1; phase inf",
    "qubits \u0662\nh 0", "qubits 2\nh -0", "qubits 2\nh +1",
    "qubits 2\nh \u0660", "qubits 1\nrz 0_5 0", "qubits 1; phase 1_0",
    "qubits 1; phase +0.5\nrz -.5e-3 0", "qubits 1\nrz 1. 0",
])
def test_parse_circuit_matches_the_reference_on(text):
    assert reading(parse_circuit, text) == reading(reference_parse_circuit,
                                                   text)


def test_parsed_steps_share_the_first_steps_gates():
    e = op("F, F, F", "0.9 * adag(0) a(1) + 0.9 * adag(1) a(0)"
                      " + 0.4 * adag(1) a(2) + 0.4 * adag(2) a(1)")
    c, _ = compile_digital(e, 0.6, 4)
    parsed = parse_circuit(format_circuit(c))
    assert parsed == c
    step = len(c) // 4
    first, last = parsed.gates[:step], parsed.gates[3 * step:]
    assert len(last) == step and all(g is h for g, h in zip(first, last))


def test_width_cap():
    with pytest.raises(DimensionCapError):
        apply_circuit(Circuit(13, (Gate("h", (0,)),)),
                      np.zeros((2 ** 13, 1)))


@pytest.mark.parametrize("name, qubits, angle, message", [
    ("u3", (0,), None, "unknown gate 'u3'"),
    ("cx", (0,), None, "cx needs two distinct qubits, got (0,)"),
    ("cx", (1, 1), None, "cx needs two distinct qubits, got (1, 1)"),
    ("h", (0, 1), None, "h acts on one qubit, got (0, 1)"),
    ("s", (0,), 0.5, "s takes no angle, got 0.5"),
    ("rz", (0,), None, "rz needs an angle"),
], ids=["unknown-name", "cx-one-qubit", "cx-equal-qubits",
        "one-qubit-gate-on-two", "angle-on-non-rotation", "rotation-no-angle"])
def test_gate_rejects_a_malformed_gate(name, qubits, angle, message):
    with pytest.raises(ValueError) as info:
        Gate(name, qubits, angle)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [Gate("h", (-1,)), Gate("cx", (0, 3))],
                         ids=["qubit-minus-one", "qubit-equal-to-width"])
def test_circuit_names_the_first_gate_out_of_range(bad):
    message = f"gate 1 ({bad}) out of range for width 3"
    for tail in [(), (Gate("h", (7,)),)]:
        gates = (Gate("h", (0,)), bad, Gate("rz", (2,), 0.5), *tail)
        with pytest.raises(ValueError) as info:
            Circuit(3, gates)
        assert str(info.value) == message


def test_circuit_accepts_every_qubit_below_its_width():
    gates = (Gate("cx", (2, 0)), Gate("h", (1,)))
    assert Circuit(3, gates).gates == gates
    with pytest.raises(ValueError):
        Circuit(2, gates)
