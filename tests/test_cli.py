import importlib
import json

import pytest

from qblue.cli import main

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
