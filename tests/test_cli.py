import importlib
import json

import numpy as np
import pytest

from qblue.cli import main
from qblue.fock import parse_state
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


def test_fit_assigns_the_pair_coefficients(tmp_path, capsys):
    prog, _ = spin_program(tmp_path)
    code, out, _ = run_json(capsys, ["fit", prog, "--machine", "ibm"])
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


def test_layout_error_reports_definition_and_position(tmp_path, capsys):
    prog = tmp_path / "h.qb"
    prog.write_text("sites t(2), t(2);\nH = X(0) +\n  a(0) # a(1);\n")
    code, out, err = run_json(capsys, ["check", str(prog)])
    assert (code, out) == (3, "")
    record = json.loads(err)
    assert record["code"] == "type"
    assert (record["path"], record["line"], record["col"]) == ("H", 3, 3)
    assert record["right_sites"] == ["t(2)"] * 4
