"""Properties of the whole command line, over drawn programs.

Each property writes a drawn program to a file and runs commands through
``main([...])``, as a shell would.  A temporary directory is made in the
test body: hypothesis runs the body many times per test, so a
function-scoped fixture such as ``tmp_path`` would be shared between draws.
"""

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qblue import cli
from qblue.cli import main
from qblue.fock import parse_state
from qblue.parser import parse
from qblue.trotter import encode_hermitian

from helpers import expr_to_matrix, parsed, state_to_vector
from strategies import DIMS, layouts, on
from test_trotter import commutator_bound

# the exit codes of the cli docstring: "Exit codes: 0 ok, 1 usage, ..."
DOCUMENTED = {int(code) for code in re.findall(
    r"(\d) [a-z]", re.search(r"Exit codes: ([^.]*)\.", cli.__doc__)[1])}

# literals of extreme and of exactly scaling amplitudes, with their values
AMPLITUDES = [("1", 1.0), ("1e200", 1e200), ("1e-200", 1e-200),
              (str(2 ** 70), 2.0 ** 70), (repr(2.0 ** -70), 2.0 ** -70)]


def run(*argv):
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, err):
    assert code in DOCUMENTED
    if code:
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err


@st.composite
def scaled_programs(draw, max_dim=32, hermitian=False):
    """A drawn program scaled by one of AMPLITUDES, half the time added to
    or multiplied by a second part at another scale, written A + dag(A)
    when hermitian and otherwise half the time; with the largest scale."""
    sites = draw(layouts(max_dim=max_dim))
    scales = draw(st.lists(st.sampled_from(AMPLITUDES), min_size=1,
                           max_size=2))
    drawn, *rest = [draw(on(sites)).times(literal, value)
                    for literal, value in scales]
    for part in rest:
        drawn = drawn + part if draw(st.booleans()) else drawn @ part
    if hermitian or draw(st.booleans()):
        drawn = drawn + drawn.adjoint()
    return drawn, max(value for _, value in scales)


@st.composite
def states(draw, sites):
    """The text of a state on sites: one to three kets with amplitudes of
    either sign and of any of AMPLITUDES' magnitudes."""
    dims = [DIMS[s] for s in sites]
    kets = draw(st.lists(st.tuples(
        st.tuples(*(st.integers(0, d - 1) for d in dims)),
        st.sampled_from([v for _, v in AMPLITUDES]),
        st.sampled_from([1, -1, 1j, -0.5j])), min_size=1, max_size=3))
    lines = [f"sites: {', '.join(sites)}"]
    for occ, magnitude, phase in kets:
        amp = complex(magnitude * phase)
        lines.append(f"({amp.real!r},{amp.imag!r}) "
                     f"|{','.join(map(str, occ))}>")
    return "\n".join(lines) + "\n"


@settings(max_examples=60)
@given(scaled_programs())
def test_every_command_exits_with_a_documented_code(case):
    drawn, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        prog, state, circ = (Path(tmp) / name
                             for name in ("h.qb", "in.state", "h.circ"))
        prog.write_text(drawn.text)
        zeros = ",".join("0" * len(drawn.sites))
        state.write_text(f"sites: {', '.join(drawn.sites)}\n(1.0,0.0) "
                         f"|{zeros}>\n")
        codes = {}
        for argv in (["check", prog], ["eval", prog, "--state", state],
                     ["energy", prog],
                     ["compile", prog, "--t", "0.5", "--n", "1",
                      "--out", circ],
                     ["fit", prog]):
            code, _, err = run(*argv)
            assert_one_error_line(code, err)
            codes[argv[0]] = code
        if codes["compile"] == 0:
            code, _, err = run("verify", circ, prog, "--t", "0.5")
            assert_one_error_line(code, err)
            # the circuit the CLI wrote, the CLI reads
            assert code == 0
    # a drawn program parses, so only a command's own check fails it
    assert codes["check"] == 0
    assert 2 not in codes.values()


@st.composite
def programs_and_states(draw):
    """(program text, state text, magnitudes of the program's matrix) on
    one drawn layout."""
    drawn, _ = draw(scaled_programs())
    return drawn.text, draw(states(drawn.sites)), drawn.magnitudes


@settings(max_examples=80)
@given(programs_and_states())
@example(("sites t(2);\nH = 1e200 * X(0) 1e200 * X(0);\n",
          "sites: t(2)\n(1.0,0.0) |0>\n", np.diag([np.inf, np.inf])))
def test_eval_is_the_matrix_times_the_state_and_reads_back(case):
    program, text, magnitudes = case
    v = state_to_vector(parse_state(text))
    # only the state's own columns: an entry that overflows elsewhere in
    # the matrix meets no amplitude
    cols = v != 0
    with np.errstate(over="ignore", invalid="ignore"):
        # the magnitudes summed into each amplitude of the result
        scale = magnitudes[:, cols] @ abs(v[cols])
        want = expr_to_matrix(parse(program).defs["H"])[:, cols] @ v[cols]
    with tempfile.TemporaryDirectory() as tmp:
        prog, state, out = (Path(tmp) / name
                            for name in ("h.qb", "in.state", "out.state"))
        prog.write_text(program)
        state.write_text(text)
        code, stdout, err = run("--json", "eval", prog, "--state", state,
                                "--out", out)
        assert_one_error_line(code, err)
        if code:
            # an amplitude overflows on the way: no state holds it, and
            # none is written
            assert code == 1 and "overflows" in err
            assert not out.exists()
            return
        kets = {tuple(occ): complex(re, im)
                for re, im, occ in json.loads(stdout)["kets"]}
        written = parse_state(out.read_text())
    # the file the CLI wrote reads back to the state it printed
    assert {k.occ: k.amp for k in written.terms} == kets
    # the matrix meets the state only once it is built, so an entry of it
    # below 1e-300 may have underflowed: (1e-200 a) (1e-200 adag) is 0
    tol = 1e-12 * scale + 1e-300 * abs(v).sum()
    assert (abs(state_to_vector(written) - want) <= tol).all()


@settings(max_examples=60)
@given(scaled_programs(hermitian=True))
def test_energy_is_the_smallest_eigenvalue(case):
    drawn, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        prog = Path(tmp) / "h.qb"
        prog.write_text(drawn.text)
        code, out, err = run("--json", "energy", prog)
    assert_one_error_line(code, err)
    if code == 0 and len(drawn.matrix) < 256:
        want = np.linalg.eigvalsh(drawn.matrix)[0]
        norm = abs(drawn.matrix).sum(axis=1).max()
        assert abs(json.loads(out)["energy"] - want) <= 1e-10 * norm


@settings(max_examples=60)
@given(scaled_programs(max_dim=16, hermitian=True), st.floats(0.2, 0.8),
       st.integers(1, 2))
def test_a_compiled_circuit_verifies_within_the_trotter_bound(case, tau,
                                                              steps):
    drawn, value = case
    t = tau / value   # the same evolution angle at every amplitude scale
    with tempfile.TemporaryDirectory() as tmp:
        prog, circ = Path(tmp) / "h.qb", Path(tmp) / "h.circ"
        prog.write_text(drawn.text)
        code, _, err = run("compile", prog, "--t", repr(t), "--n", steps,
                           "--out", circ)
        assert_one_error_line(code, err)
        if code:
            return
        code, out, err = run("--json", "verify", circ, prog, "--t", repr(t))
    assert code == 0, err
    hs, _ = encode_hermitian(parsed(drawn))
    assert json.loads(out)["distance"] <= (commutator_bound(hs, t, steps)
                                           + 1e-9)
