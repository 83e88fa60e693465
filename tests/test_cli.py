import importlib
import json
import warnings

import numpy as np
import pytest

from qblue.cli import main
from qblue.fock import format_state, parse_state
from qblue.parser import parse
from qblue.pauli import pauli_sum

import oracle
from test_trotter import commutator_bound

# the package re-exports the function typecheck under the module's name
typecheck_module = importlib.import_module("qblue.typecheck")


def chain_program(family, n):
    """Program text of an n-site chain and its hand-counted gadget cost:
    (qubits, gates per Trotter step, CX per Trotter step)."""
    bonds = n - 1
    if family == "spin":
        site, body = "t(2)", "Z(j) Z(j+1) + 0.8 * X(j+1)"
        cost = (n, 4 * bonds, 2 * bonds)
    elif family == "hop":
        site, body = "F", "0.7 * adag(j) a(j+1) + 0.7 * adag(j+1) a(j)"
        cost = (n, 18 * bonds, 4 * bonds)
    else:
        site = "t(4)"
        body = ("0.9 * adag(j) a(j+1) + 0.9 * adag(j+1) a(j)"
                " + 1.3 * adag(j) adag(j) a(j) a(j)")
        cost = (2 * n, 152 * bonds, 48 * bonds)
    text = (f"sites {', '.join([site] * n)};\n"
            f"H = sum j in 0..{n - 2} {{ {body} }};\n")
    return text, cost


@pytest.mark.parametrize("family", ["spin", "hop", "bh"])
def test_compile_gate_counts_per_step(family, tmp_path, capsys):
    text, (qubits, gates, cx) = chain_program(family, 4)
    prog = tmp_path / "h.qb"
    prog.write_text(text)
    out = tmp_path / "h.circ"
    steps = 2
    code = main(["--json", "compile", str(prog), "--t", "0.5",
                 "--n", str(steps), "--out", str(out)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["qubits"] == qubits
    assert record["gates"] == steps * gates
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"qubits {qubits};")
    assert len(lines) - 1 == steps * gates
    assert sum(ln.startswith("cx ") for ln in lines) == steps * cx


def test_check_reports_certificate_verdict_once(tmp_path, capsys,
                                                monkeypatch):
    prog = tmp_path / "h.qb"
    prog.write_text("sites t(2), t(2);\nH = adag(0) a(1) + adag(1) a(0);\n")
    calls = []
    canonicalize = typecheck_module.canonicalize

    def counting(e):
        calls.append(e)
        return canonicalize(e)

    monkeypatch.setattr(typecheck_module, "canonicalize", counting)
    assert main(["--json", "check", str(prog)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["flag"] == "h"
    assert record["hermitian"] is True
    assert record["decided_by"] == "syntactic"
    assert record["type"] == "F[h](t(2) (x) t(2))"
    # the certificate compares the canonical form of H with its adjoint,
    # which it computes from the form
    assert len(calls) == 1


def test_parse_error_exits_2(tmp_path, capsys):
    prog = tmp_path / "bad.qb"
    prog.write_text("sites t(2);\nH = adag(0) + ;\n")
    assert main(["--json", "check", str(prog)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["code"] == "parse"
    assert record["line"] == 2


@pytest.mark.parametrize("body, line, col", [
    ("1e999 * a(0)", 2, 5),
    ("-1e999i * a(0)", 2, 5),
    ("X(0)\n  + 2 * 1e300 * 1e300 * a(0)", 3, 9),
    ("1e200 * 1e200 * (X(0) + Z(0))", 2, 5),
], ids=["literal", "negative-imaginary", "prefix-chain", "chain-on-group"])
def test_an_overflowing_literal_is_a_parse_error(body, line, col, tmp_path,
                                                 capsys):
    prog = tmp_path / "h.qb"
    prog.write_text(f"sites t(2);\nH = {body};\n")
    assert main(["--json", "check", str(prog)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    record = json.loads(err)
    assert (record["code"], record["line"], record["col"]) == (
        "parse", line, col)
    assert "overflows" in record["message"]


def eval_kets(tmp_path, capsys, program, state):
    prog, st, out = (tmp_path / "h.qb", tmp_path / "in.state",
                     tmp_path / "out.state")
    prog.write_text(program)
    st.write_text(state)
    code = main(["--json", "eval", str(prog), "--state", str(st),
                 "--out", str(out)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    kets = {tuple(occ): complex(re, im) for re, im, occ in record["kets"]}
    return kets, parse_state(out.read_text())


def assert_kets(got, want):
    assert set(got) == set(want)
    for occ, amp in want.items():
        assert got[occ] == pytest.approx(amp, abs=1e-12)


def test_eval_hopping_chain_with_chemical_potential(tmp_path, capsys):
    t0, t1, t2, mu = 0.5, 0.75, 1.25, -0.3
    program = ("sites F, F, F, F;\nH = "
               + " + ".join(f"{t} * adag({j}) a({j + 1}) + "
                            f"{t} * adag({j + 1}) a({j})"
                            for j, t in enumerate((t0, t1, t2)))
               + "".join(f" + {mu} * adag({j}) a({j})" for j in range(4))
               + ";\n")
    state = "sites: F, F, F, F\n(1.0,0.0) |1,0,1,0>\n(0.0,0.5) |0,1,0,1>\n"
    got, written = eval_kets(tmp_path, capsys, program, state)
    # a hop between neighbours passes no occupied site, so it has no sign:
    # H|1010> = t0|0110> + t1|1100> + t2|1001> + 2 mu|1010>
    # H|0101> = t0|1001> + t1|0011> + t2|0110> + 2 mu|0101>
    assert_kets(got, {(0, 1, 1, 0): t0 + 0.5j * t2, (1, 1, 0, 0): t1,
                      (1, 0, 0, 1): t2 + 0.5j * t0, (1, 0, 1, 0): 2 * mu,
                      (0, 0, 1, 1): 0.5j * t1, (0, 1, 0, 1): 1j * mu})
    assert {k.occ: k.amp for k in written.terms} == got


def test_eval_squared_spin_chain(tmp_path, capsys):
    h = 0.5
    body = f"sum j in 0..1 {{ Z(j) Z(j+1) + {h} * X(j+1) }}"
    program = f"sites t(2), t(2), t(2);\nH2 = ({body}) ({body});\n"
    state = "sites: t(2), t(2), t(2)\n(1.0,0.0) |0,0,0>\n"
    got, written = eval_kets(tmp_path, capsys, program, state)
    # Z|0> = -|0>, so H|000> = 2|000> + h|010> + h|001>, and
    # H|010> = -2|010> + h|000> + h|011>, H|001> = h|011> + h|000>;
    # the |010> amplitudes 2h - 2h cancel
    assert_kets(got, {(0, 0, 0): 4 + 2 * h * h, (0, 0, 1): 2 * h,
                      (0, 1, 1): 2 * h * h})
    assert {k.occ: k.amp for k in written.terms} == got


def test_sum_of_1200_terms_is_certified(tmp_path, capsys):
    # a sum is one n-ary node, so its length costs no recursion depth
    prog = tmp_path / "long.qb"
    prog.write_text("sites t(2), t(2);\n"
                    "H = sum j in 0..1199 { 0.001 * Z(0) Z(1) };\n")
    assert main(["--json", "check", str(prog)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["flag"] == "h"
    assert record["decided_by"] == "syntactic"


def test_sum_of_10001_terms_compiles(tmp_path, capsys):
    prog = tmp_path / "long.qb"
    prog.write_text("sites t(2), t(2);\n"
                    "H = sum j in 0..10000 { 0.001 * Z(0) Z(1) };\n")
    out = tmp_path / "long.circ"
    assert main(["--json", "compile", str(prog), "--t", "0.5", "--n", "1",
                 "--out", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    # 10001 copies of 0.001 ZZ merge into one ZZ rotation: cx, rz, cx
    assert (record["qubits"], record["gates"]) == (2, 3)
    rz = [ln for ln in out.read_text().splitlines() if ln.startswith("rz")]
    assert len(rz) == 1
    # "rz <angle> <qubit>", angle 2 c t / n
    assert float(rz[0].split()[1]) == pytest.approx(2 * 10.001 * 0.5,
                                                    rel=1e-12)


def test_deep_nesting_exits_1_without_traceback(tmp_path, capsys):
    prog = tmp_path / "deep.qb"
    prog.write_text("sites t(2), t(2);\n"
                    f"H = {'(' * 2000}Z(0) + Z(1){')' * 2000};\n")
    assert main(["check", str(prog)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qblue: error:")
    assert "recursion" in lines[0]
    assert "Traceback" not in captured.err + captured.out


SPIN = [(0.9, 0.8), (-0.6, 0.5), (1.1, -0.35)]   # (J_j, h_j) per bond


def spin_program(tmp_path, bonds=SPIN):
    """sum_j J_j Z(j) Z(j+1) + h_j X(j+1) and its Pauli terms; Z = a^dag a
    - a a^dag encodes to -Z, so Z Z encodes to +Z Z."""
    n = len(bonds) + 1
    body = " + ".join(f"{J} * Z({j}) Z({j + 1}) + {h} * X({j + 1})"
                      for j, (J, h) in enumerate(bonds))
    prog = tmp_path / "spin.qb"
    prog.write_text(f"sites {', '.join(['t(2)'] * n)};\nH = {body};\n")
    terms = []
    for j, (J, h) in enumerate(bonds):
        zz, x = ["I"] * n, ["I"] * n
        zz[j] = zz[j + 1] = "Z"
        x[j + 1] = "X"
        terms += [(J, "".join(zz)), (h, "".join(x))]
    return str(prog), terms


def run_json(capsys, argv):
    code = main(["--json", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_of_spin_chain(tmp_path, capsys):
    prog, terms = spin_program(tmp_path)
    code, out, _ = run_json(capsys, ["energy", prog])
    assert code == 0
    h = sum(c * oracle.pauli_string_matrix(s) for c, s in terms)
    want = np.linalg.eigvalsh(h)[0]
    assert abs(json.loads(out)["energy"] - want) <= 1e-10


@pytest.mark.parametrize("family", ["spin", "hop"])
def test_energy_of_twelve_sites_runs_no_dense_eigh(family, tmp_path, capsys,
                                                   monkeypatch):
    linalg = importlib.import_module("qblue.linalg")
    eigh = np.linalg.eigh

    def small_eigh(m, *args, **kwargs):
        assert m.shape[0] < linalg.LANCZOS_MIN_DIM, m.shape
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    monkeypatch.setattr(linalg, "expr_to_matrix", None)
    text, _ = chain_program(family, 12)
    prog = tmp_path / "h.qb"
    prog.write_text(text)
    code, out, _ = run_json(capsys, ["energy", str(prog)])
    assert code == 0
    record = json.loads(out)
    if family == "hop":
        # free fermions: the negative levels of the one-particle matrix
        one = np.diag(np.full(11, 0.7), 1)
        w = np.linalg.eigvalsh(one + one.T)
        assert abs(record["energy"] - w[w < 0].sum()) <= 1e-10
    v = np.zeros(2 ** 12, dtype=complex)
    for re, im, occ in record["state"]:
        v[int("".join(map(str, occ)), 2)] = re + 1j * im
    e = next(iter(parse(text).defs.values()))
    h = linalg.expr_to_sparse(e)
    assert np.linalg.norm(h @ v - record["energy"] * v) <= 1e-9


def test_fit_assigns_the_pair_coefficients(tmp_path, capsys):
    prog, _ = spin_program(tmp_path)
    code, out, _ = run_json(capsys, ["fit", prog])
    assert code == 0
    pairs = json.loads(out)["pairs"]
    assert [j for j, _ in pairs] == [0, 1, 2]
    for (j, slots), (J, h) in zip(pairs, SPIN):
        # ZZ on the pair, X on its right qubit
        assert slots["z2"] == pytest.approx(J, abs=1e-12)
        assert slots["z4"] == pytest.approx(h, abs=1e-12)
        assert slots["z1"] == slots["z3"] == 0


def test_verify_of_compiled_circuit_within_commutator_bound(tmp_path, capsys):
    prog, terms = spin_program(tmp_path)
    circ = str(tmp_path / "spin.circ")
    t, steps = 0.7, 2
    code, _, _ = run_json(capsys, ["compile", prog, "--t", str(t),
                                   "--n", str(steps), "--out", circ])
    assert code == 0
    code, out, _ = run_json(capsys, ["verify", circ, prog, "--t", str(t)])
    assert code == 0
    bound = commutator_bound(pauli_sum(4, terms), t, steps)
    assert 0 < json.loads(out)["distance"] <= bound


@pytest.mark.parametrize("text, line, col", [
    ("qubits\n", 1, 7),
    ("qubits 2; phase\n", 1, 16),
    ("qubits 2; phase 0.0;\nrz 0.5\n", 2, 7),
    ("qubits 2; phase 0.0;\ncx 0\n", 2, 5),
    ("qubits 2; phase 0.0;\nrz half 1\n", 2, 4),
    ("qubits 2; phase 0.0;\nh 0\n\nswap 0 1\n", 4, 1),
    ("qubits 2; phase 0.0;\ncx 1 1\n", 2, 1),
    ("qubits 2; phase 0.0;\nh 2\n", 2, 3),
    ("qubits 2; phase 0.0;\nh x\n", 2, 3),
    ("qubits 2; phase 0.0;\n  h 0 1\n", 2, 7),
    ("h 0\n", 1, 1),
], ids=["bare-qubits", "phase-without-value", "rotation-without-qubit",
        "cx-one-qubit", "non-numeric-angle", "unknown-gate", "cx-equal-qubits",
        "qubit-out-of-range", "non-numeric-qubit", "extra-field",
        "no-header"])
def test_verify_reports_a_malformed_circuit_line(text, line, col, tmp_path,
                                                 capsys):
    prog, circ = tmp_path / "h.qb", tmp_path / "bad.circ"
    prog.write_text("sites t(2), t(2);\nH = Z(0) Z(1);\n")
    circ.write_text(text)
    argv = ["verify", str(circ), str(prog), "--t", "0.5"]
    code, out, err = run_json(capsys, argv)
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert (record["code"], record["line"], record["col"]) == ("parse", line,
                                                               col)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("qblue: error: ") and err.count("\n") == 1
    assert err.endswith(f"(line {line}, column {col})\n")


@pytest.mark.parametrize("argv, source, code, kind", [
    (["energy"], "sites t(2);\nH = adag(0);\n", 3, "type"),
    (["fit"], "sites t(2), t(2);\nH = X(0) X(1);\n", 4, "compile"),
    (["energy"], "sites " + ", ".join(["t(2)"] * 13) + ";\nH = sum j in 0..11"
     " { Z(j) Z(j+1) + 0.8 * X(j+1) };\n", 5, "dimension"),
], ids=["energy-not-hermitian", "fit-uncovered-term", "energy-over-cap"])
def test_failure_exit_codes(argv, source, code, kind, tmp_path, capsys):
    prog = tmp_path / "h.qb"
    prog.write_text(source)
    got, out, err = run_json(capsys, [*argv, str(prog)])
    assert got == code
    assert out == ""
    assert json.loads(err)["code"] == kind


@pytest.mark.parametrize("source, line, col, message", [
    # there is no tensor operator: a program has the one declared layout
    ("sites t(2), t(2);\nH = X(0) +\n  a(0) # a(1);\n", 3, 8,
     "unexpected character '#'"),
    ("sites t(0);\nH = a(0);\n", 1, 9, "site dimension must be at least 1"),
], ids=["hash", "dimension-zero"])
def test_a_parse_error_reports_its_position(source, line, col, message,
                                            tmp_path, capsys):
    prog = tmp_path / "h.qb"
    prog.write_text(source)
    code, out, err = run_json(capsys, ["check", str(prog)])
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert (record["code"], record["line"], record["col"]) == ("parse", line,
                                                               col)
    assert message in record["message"]


@pytest.mark.parametrize("state, line, col, message", [
    ("sites: t(2)\n(abc,0) |0>\n", 2, 2, "could not convert"),
    ("sites: t(0)\n(1,0) |0>\n", 1, 8, "boson dimension must be >= 1"),
    ("sites: t(2)\n\n(1,0) |0>\n(1,0) |7>\n", 4, 8,
     "occupation 7 out of range for site t(2)"),
    ("sites: t(2)\n(1e999,0) |1>\n", 2, 2, "is not finite"),
    ("sites: t(2)\n(0,nan) |1>\n", 2, 4, "is not finite"),
    ("sites: t(2)\n(1,0) |0,1>\n", 2, 8, "arity does not match"),
], ids=["non-numeric-amplitude", "zero-dimension", "occupation-out-of-range",
        "infinite-amplitude", "nan-amplitude", "occupation-arity"])
def test_a_malformed_state_is_a_parse_error(state, line, col, message,
                                            tmp_path, capsys):
    prog, st = tmp_path / "h.qb", tmp_path / "in.state"
    prog.write_text("sites t(2);\nH = adag(0) a(0);\n")
    st.write_text(state)
    code, out, err = run_json(capsys, ["eval", str(prog), "--state", str(st)])
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert (record["code"], record["line"], record["col"]) == ("parse", line,
                                                               col)
    assert record["message"].endswith(f" (line {line}, column {col})")
    assert message in record["message"]


@pytest.mark.parametrize("argv, value", [
    ("compile {prog} --t {t} --n 1", "nan"),
    ("compile {prog} --t {t} --n 1", "inf"),
    ("verify h.circ {prog} --t {t}", "nan"),
    ("verify h.circ {prog} --t={t}", "-inf"),
], ids=["compile-nan", "compile-inf", "verify-nan", "verify-minus-inf"])
def test_a_non_finite_time_is_a_usage_error(argv, value, tmp_path, capsys):
    prog, _ = spin_program(tmp_path)
    assert main(["--json", *argv.format(prog=prog, t=value).split()]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --t: invalid finite_float value: {value!r}" in err


@pytest.mark.parametrize("body, message", [
    ("1.5 * Z(0) Z(1) + 2 * I(0)", "rz angle inf is not finite"),
    ("2 * I(0)", "global phase -inf is not finite"),
], ids=["angle", "phase"])
def test_compile_to_a_non_finite_angle_or_phase_exits_1(body, message,
                                                        tmp_path, capsys):
    prog, out = tmp_path / "h.qb", tmp_path / "h.circ"
    prog.write_text(f"sites t(2), t(2);\nH = {body};\n")
    argv = ["compile", str(prog), "--t", "1e308", "--n", "1", "--out",
            str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"qblue: error: {message}\n")
    assert list(tmp_path.iterdir()) == [prog]


def test_verify_of_a_phase_past_the_float_range_exits_1(tmp_path, capsys):
    # w t of the exact exponential overflows: no nan distance, no warning
    prog, circ = tmp_path / "h.qb", tmp_path / "h.circ"
    prog.write_text("sites t(2), t(2);\nH = 1.5 * Z(0) Z(1) + 2 * X(1);\n")
    assert main(["compile", str(prog), "--t", "0.5", "--n", "1", "--out",
                 str(circ)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_json(
            capsys, ["verify", str(circ), str(prog), "--t", "1e308"])
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (
        "the phases w t of e^(-i h t) overflow at t = 1e+308")


@pytest.mark.parametrize("text, line, col, what", [
    ("qubits 2; phase 0.0;\nrz nan 1\n", 2, 4, "a finite angle, found 'nan'"),
    ("qubits 2; phase inf;\nrz 0.5 1\n", 1, 17, "a finite phase, found 'inf'"),
], ids=["nan-angle", "infinite-phase"])
def test_verify_of_a_non_finite_angle_or_phase_exits_2(text, line, col, what,
                                                       tmp_path, capsys):
    prog, circ = tmp_path / "h.qb", tmp_path / "bad.circ"
    prog.write_text("sites t(2), t(2);\nH = Z(0) Z(1);\n")
    circ.write_text(text)
    code, out, err = run_json(
        capsys, ["verify", str(circ), str(prog), "--t", "0.5"])
    assert (code, out) == (2, "")
    record = json.loads(err)   # no NaN reaches the JSON
    assert (record["code"], record["line"], record["col"]) == ("parse", line,
                                                               col)
    assert record["message"] == f"expected {what} (line {line}, column {col})"


def test_fit_treats_the_identity_term_as_a_global_phase(tmp_path, capsys):
    body = "sum j in 0..1 { 0.7 * Z(j) Z(j+1) + 0.3 * X(j+1) }"
    plain, offset = tmp_path / "plain.qb", tmp_path / "offset.qb"
    plain.write_text(f"sites t(2), t(2), t(2);\nH = {body};\n")
    offset.write_text(f"sites t(2), t(2), t(2);\nH = {body} + 0.5 * I(0);\n")
    code, want, err = run_json(capsys, ["fit", str(plain)])
    assert (code, err) == (0, "")
    code, got, err = run_json(capsys, ["fit", str(offset)])
    assert (code, err) == (0, "")
    assert got == want
    pairs = json.loads(got)["pairs"]
    assert [j for j, _ in pairs] == [0, 1]
    for _, slots in pairs:
        assert slots["z2"] == pytest.approx(0.7, abs=1e-12)
        assert slots["z4"] == pytest.approx(0.3, abs=1e-12)
        assert slots["z1"] == slots["z3"] == 0


def test_argument_parser_is_built_once(tmp_path, capsys, monkeypatch):
    cli = importlib.import_module("qblue.cli")
    built = []

    class Counting(cli._ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "qblue":
                built.append(self)

    monkeypatch.setattr(cli, "_ArgumentParser", Counting)
    prog = tmp_path / "h.qb"
    prog.write_text("sites t(2), t(2);\nH = adag(0) a(1) + adag(1) a(0);\n")
    text = "H : F[h](t(2) (x) t(2))  [hermitian, syntactic]\n"
    assert main(["check", str(prog)]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["frobnicate", str(prog)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: qblue")
    assert "qblue: usage error: argument command: invalid choice: " \
           "'frobnicate'" in err
    assert main(["--json", "check", str(prog)]) == 0
    assert json.loads(capsys.readouterr().out)["decided_by"] == "syntactic"
    # neither the usage error nor --json carries over to the next call
    assert main(["check", str(prog)]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["compile", str(prog)]) == 1
    assert "the following arguments are required: --t, --n" in \
        capsys.readouterr().err
    assert len(built) <= 1


def test_eval_and_energy_format_the_state_only_to_show_it(tmp_path, capsys,
                                                          monkeypatch):
    cli = importlib.import_module("qblue.cli")
    calls = []

    def counting(state):
        calls.append(state)
        return format_state(state)

    monkeypatch.setattr(cli, "format_state", counting)
    prog, st, out = (tmp_path / "h.qb", tmp_path / "in.state",
                     tmp_path / "out.state")
    prog.write_text("sites t(2), t(2);\nH = X(0) + 0.5 * Z(1);\n")
    st.write_text("sites: t(2), t(2)\n(1.0,0.0) |0,1>\n(0.0,0.5) |1,1>\n")
    # X(0) takes |0,1> to |1,1> and back; Z(1) is +1 on an occupied site
    text = "sites: t(2), t(2)\n(0.5,0.5) |0,1>\n(1.0,0.25) |1,1>\n"
    assert main(["--json", "eval", str(prog), "--state", str(st)]) == 0
    assert capsys.readouterr() == (
        '{"def": "H", "zero": false, "kets": '
        '[[0.5, 0.5, [0, 1]], [1.0, 0.25, [1, 1]]]}\n', "")
    one_site = tmp_path / "z.qb"
    one_site.write_text("sites t(2);\nH = Z(0);\n")
    assert main(["--json", "energy", str(one_site)]) == 0
    assert capsys.readouterr() == (
        '{"def": "H", "energy": -1.0, "state": [[1.0, 0.0, [0]]]}\n', "")
    assert calls == []
    # text mode prints the state and --out writes it, as before
    assert main(["eval", str(prog), "--state", str(st)]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["eval", str(prog), "--state", str(st), "--out",
                 str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")
    assert out.read_text() == text
    assert main(["energy", str(one_site)]) == 0
    assert capsys.readouterr() == (
        "energy -1.0\nsites: t(2)\n(1.0,0.0) |0>\n", "")
    assert len(calls) == 3


def test_fourteen_sites_certify_and_compile(tmp_path, capsys):
    # i (a adag + adag a - 1) is zero on t(2), so the chain is Hermitian
    # above any dense size, and it compiles to the plain hopping circuit
    sites = ", ".join(["t(2)"] * 14)
    hop = "adag(j) a(j+1) + adag(j+1) a(j)"
    zero = "1i * (a(j) adag(j) + adag(j) a(j) - I(j))"
    prog, plain = tmp_path / "h.qb", tmp_path / "plain.qb"
    prog.write_text(f"sites {sites};\n"
                    f"H = sum j in 0..12 {{ {hop} + {zero} }};\n")
    plain.write_text(f"sites {sites};\nH = sum j in 0..12 {{ {hop} }};\n")
    code, out, err = run_json(capsys, ["check", str(prog)])
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["flag"], record["decided_by"]) == ("h", "syntactic")
    circuits = []
    for path in (prog, plain):
        assert main(["compile", str(path), "--t", "0.5", "--n", "1"]) == 0
        circuits.append(capsys.readouterr().out)
    assert circuits[0] == circuits[1]
    assert circuits[0].startswith("qubits 14;")


def test_check_builds_no_matrix(tmp_path, capsys, monkeypatch):
    linalg = importlib.import_module("qblue.linalg")

    def refuse(*args):
        raise AssertionError("check built a dense matrix")

    # _lower is the step every dense lowering of an expression takes
    monkeypatch.setattr(linalg, "expr_to_matrix", refuse)
    monkeypatch.setattr(linalg, "_lower", refuse)
    z, zbar = "(0.5+0.3i)", "(0.5-0.3i)"
    defs = {
        "Hdag": (f"{z} * adag(0) a(1) + dag({z} * adag(0) a(1))", True),
        "Hcplx": (f"{z} * adag(1) a(2) + {zbar} * adag(2) a(1)", True),
        "Hskew": (f"{z} * adag(0) a(1) + {z} * adag(1) a(0)", False),
        "Himag": ("0.8i * X(0) Z(1)", False),
        "Hsqrt": ("sqrt(2) * X(0) + sqrt(3) * Z(1) Z(2)", True),
        "Hsum": ("sum j in 0..2 { Z(j) Z(j+1) - X(j+1) }", True),
        "Hneg": ("-Z(0) + 0.8 * X(3)", True),
    }
    prog = tmp_path / "constructs.qb"
    prog.write_text("sites t(2), t(2), t(2), t(2);\n" + "".join(
        f"{name} = {body};\n" for name, (body, _) in defs.items()))
    code, out, err = run_json(capsys, ["check", str(prog)])
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert {r["def"]: r["hermitian"] for r in records} == {
        name: verdict for name, (_, verdict) in defs.items()}
    # a one-way hop is not Hermitian at any length
    for n in (4, 6, 8):
        body = " + ".join(f"{0.5 + 0.1 * j} * adag({j}) a({j + 1})"
                          for j in range(n - 1))
        prog.write_text(f"sites {', '.join(['F'] * n)};\nH = {body};\n")
        code, out, err = run_json(capsys, ["check", str(prog)])
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert (record["flag"], record["decided_by"]) == ("p", "syntactic")


def test_compile_and_fit_format_their_text_only_to_show_it(tmp_path, capsys,
                                                           monkeypatch):
    cli = importlib.import_module("qblue.cli")
    trotter = importlib.import_module("qblue.trotter")
    calls = []
    format_circuit, format_schedule = cli.format_circuit, \
        trotter.format_schedule

    def counting(format_text):
        def wrapped(obj):
            calls.append(obj)
            return format_text(obj)
        return wrapped

    monkeypatch.setattr(cli, "format_circuit", counting(format_circuit))
    monkeypatch.setattr(trotter, "format_schedule", counting(format_schedule))
    prog, _ = spin_program(tmp_path)
    commands = [["compile", prog, "--t", "0.5", "--n", "2"], ["fit", prog]]
    for argv in commands:
        code, out, err = run_json(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["def"] == "H"
    assert calls == []
    # text mode prints the text and --out writes the same text
    for argv in commands:
        assert main(argv) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{argv[0]}.out"
        assert main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {path}")
        assert path.read_text() == text
    assert len(calls) == 4


BIG = "1" * 5000   # more digits than Python converts to an integer


@pytest.mark.parametrize("source, line, col", [
    (f"sites t(2);\nH = a({BIG});\n", 2, 7),
    (f"sites t({BIG});\nH = a(0);\n", 1, 9),
    (f"sites t(2);\nH = sum j in 0..{BIG} {{ a(0) }};\n", 2, 17),
], ids=["site-index", "site-dimension", "sum-bound"])
def test_an_integer_too_long_to_convert_is_a_parse_error(source, line, col,
                                                         tmp_path, capsys):
    prog = tmp_path / "h.qb"
    prog.write_text(source)
    code, out, err = run_json(capsys, ["check", str(prog)])
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert (record["code"], record["line"], record["col"]) == (
        "parse", line, col)
    assert "5000 digits" in record["message"]


NINES = "9" * 4300   # the sum of two has more digits than Python prints


@pytest.mark.parametrize("body", [f"a({NINES} + {NINES})",
                                  f"sum j in 0..0 {{ a({NINES} + {NINES}) }}"],
                         ids=["bare", "sum-body"])
def test_an_index_too_long_to_print_is_a_parse_error(body, tmp_path, capsys):
    prog = tmp_path / "h.qb"
    prog.write_text(f"sites t(2), t(2);\nH = {body};\n")
    code, out, err = run_json(capsys, ["check", str(prog)])
    assert (code, out) == (2, "")
    record = json.loads(err)
    # at the atom, as for any other site index out of range
    assert (record["code"], record["line"], record["col"]) == (
        "parse", 2, 5 + body.index("a("))
    assert "out of range for 2 sites" in record["message"]


def test_compile_fit_and_verify_share_one_certified_encode(tmp_path, capsys,
                                                           monkeypatch):
    trotter = importlib.import_module("qblue.trotter")
    calls = []
    encode_hermitian = trotter.encode_hermitian

    def counting(e):
        calls.append(e)
        return encode_hermitian(e)

    monkeypatch.setattr(trotter, "encode_hermitian", counting)
    prog, _ = spin_program(tmp_path)
    circ = str(tmp_path / "spin.circ")
    for argv in (["compile", prog, "--t", "0.5", "--n", "1", "--out", circ],
                 ["fit", prog], ["verify", circ, prog, "--t", "0.5"]):
        code, _, err = run_json(capsys, argv)
        assert (code, err) == (0, "")
    assert len(calls) == 3


def test_a_program_certified_only_p_exits_4_before_any_matrix(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    def refuse(*args):
        raise AssertionError("built a dense matrix")

    for module in ("pauli", "trotter"):
        monkeypatch.setattr(importlib.import_module(f"qblue.{module}"),
                            "pauli_to_matrix", refuse)
    for module in ("circuit", "trotter"):
        monkeypatch.setattr(importlib.import_module(f"qblue.{module}"),
                            "circuit_to_matrix", refuse)
    prog, circ = tmp_path / "h.qb", tmp_path / "h.circ"
    prog.write_text("sites F, F;\nH = 0.7 * adag(0) a(1);\n")
    circ.write_text("qubits 2; phase 0.0;\nh 0\n")
    messages = set()
    for argv in (["verify", str(circ), str(prog), "--t", "0.5"],
                 ["compile", str(prog), "--t", "0.5", "--n", "1"],
                 ["fit", str(prog)]):
        code, out, err = run_json(capsys, argv)
        assert (code, out) == (4, "")
        record = json.loads(err)
        assert record["code"] == "compile"
        messages.add(record["message"])
    # fit and verify say what compile says
    assert messages == {"only Hermitian programs (flag h) are executable; "
                        "this one certifies only flag p"}


@pytest.mark.parametrize("argv", [
    "compile {prog} --t 0.5 --n 1 --encode jw",
    "fit {prog} --machine ibm",
    "verify h.circ {prog} --t 0.5 --encode auto",
], ids=["compile-encode", "fit-machine", "verify-encode"])
def test_the_removed_options_are_usage_errors(argv, tmp_path, capsys):
    # the site types pick the encoding, and ibm is the one machine
    prog, _ = spin_program(tmp_path)
    argv = argv.format(prog=prog).split()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("sites, body, message", [
    ("t(3), t(3)", "adag(0) a(1) + adag(1) a(0)",
     "boson dimension 3 is not a power of two >= 4"),
    ("t(2), t(4)", "adag(0) a(0) + adag(1) a(1)",
     "boson sites must share one dimension to encode"),
    ("F, t(2)", "adag(0) a(0) + Z(1)",
     "mixed fermion/boson layouts are not encodable"),
    ("t(1)", "adag(0) a(0)",
     "boson dimension 1 is not a power of two >= 4"),
], ids=["t3-t3", "t2-t4", "F-t2", "t1"])
def test_compile_names_why_the_layout_has_no_encoding(sites, body, message,
                                                      tmp_path, capsys):
    prog = tmp_path / "h.qb"
    prog.write_text(f"sites {sites};\nH = {body};\n")
    code, out, err = run_json(capsys, ["compile", str(prog), "--t", "0.5",
                                       "--n", "1"])
    assert (code, out) == (4, "")
    assert json.loads(err) == {"level": "error", "code": "compile",
                               "message": message}
