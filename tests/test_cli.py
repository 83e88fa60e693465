import importlib
import json

import pytest

from qblue.cli import main
from qblue.fock import parse_state

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
    # the certificate compares the canonical forms of H and dag(H), once
    assert len(calls) == 2


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


def test_deep_sum_exits_1_without_traceback(tmp_path, capsys):
    prog = tmp_path / "deep.qb"
    prog.write_text("sites t(2), t(2);\n"
                    "H = sum j in 0..1199 { 0.001 * Z(0) Z(1) };\n")
    assert main(["check", str(prog)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qblue: error:")
    assert "recursion" in lines[0]
    assert "Traceback" not in captured.err + captured.out
