"""Workload inputs for the qblue benchmark and the answers they must produce.

Every expected answer here is derived without importing qblue: Pauli terms,
gate and CX counts per Trotter step are written out by hand for each chain
family, ground energies come from numpy (the free-fermion closed form for the
hopping chain, a dense numpy build for the others), `verify` distances are
checked against the first-order commutator bound of Childs, Su, Tran, Wiebe
and Zhu (PRX 11, 011020, 2021), and `eval` results come from a small
occupation-dictionary interpreter written per family.

The seed draws every coefficient, the evolution time, the eval states and
the order of the ops in a pass.  The size ladder of each workload is fixed,
so that the cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("compile_chain", "verify_dense", "check_eval")

ENERGY_TOL = 1e-8
AMP_TOL = 1e-9
BOUND_SLACK = 1e-9


class Mismatch(Exception):
    """An op's output disagrees with the benchmark's own answer."""


@dataclass
class Op:
    """One closed-loop call of `qblue.cli.main(argv)` and its output check.

    `check(stdout)` runs after a zero exit code; it raises Mismatch on a wrong
    output and returns the figures it observed (gates, cx, depth, distance).
    """

    label: str
    argv: list
    check: Callable[[str], dict]


@dataclass
class Workload:
    name: str
    ops: list        # one pass, in run order
    warmup: list     # the smallest op group of each kind, run once untimed
    probes: list     # known-defect ops


# ---------------------------------------------------------------------------
# Chain families
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(round(x, 4))


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


@dataclass
class Chain:
    """One chain Hamiltonian: its program text and hand-derived facts."""

    family: str          # spin | hop | bh
    sites: int
    coeffs: dict         # the drawn couplings
    text: str            # program source
    qubits: int          # qubits after encoding
    encoding: str        # method the compiler must report
    pauli: list          # [(|coefficient|, pauli string)], hand-derived
    gates_per_step: int
    cx_per_step: int


def spin_chain(n_sites: int, rng: random.Random) -> Chain:
    """sum_j J Z(j) Z(j+1) + h X(j+1) on t(2) sites, direct encoding.

    qblue's Z on t(2) is a^dag a - a a^dag = -Z_pauli, so ZZ keeps its sign
    and each bond gives the Pauli terms J ZZ and h X.  A ZZ rotation is
    cx, rz, cx and an X rotation one rx: 4 gates and 2 CX per bond.
    """
    J, h = _draw(rng, 0.6, 1.4), _draw(rng, 0.4, 1.2)
    text = (f"sites {', '.join(['t(2)'] * n_sites)};\n"
            f"H = sum j in 0..{n_sites - 2} "
            f"{{ {_num(J)} * Z(j) Z(j+1) + {_num(h)} * X(j+1) }};\n")
    pauli = []
    for j in range(n_sites - 1):
        pauli.append((J, _string(n_sites, {j: "Z", j + 1: "Z"})))
        pauli.append((h, _string(n_sites, {j + 1: "X"})))
    return Chain("spin", n_sites, {"J": J, "h": h}, text, n_sites, "direct",
                 pauli, 4 * (n_sites - 1), 2 * (n_sites - 1))


def hop_chain(n_sites: int, rng: random.Random, mu: float | None = None) -> Chain:
    """sum_j t_j (adag(j) a(j+1) + adag(j+1) a(j)) on F sites, Jordan-Wigner.

    Each bond maps to (t_j/2)(XX + YY) on adjacent qubits: an XX gadget is
    7 gates, a YY gadget 11, each with 2 CX.  An optional chemical potential
    mu sum_j n_j is used only by eval.
    """
    ts = [_draw(rng, 0.5, 1.5) for _ in range(n_sites - 1)]
    terms = []
    for j, t in enumerate(ts):
        terms.append(f"{_num(t)} * adag({j}) a({j + 1})")
        terms.append(f"{_num(t)} * adag({j + 1}) a({j})")
    if mu is not None:
        terms += [f"{_num(mu)} * adag({j}) a({j})" for j in range(n_sites)]
    text = f"sites {', '.join(['F'] * n_sites)};\nH = {' + '.join(terms)};\n"
    pauli = []
    for j, t in enumerate(ts):
        pauli.append((t / 2, _string(n_sites, {j: "X", j + 1: "X"})))
        pauli.append((t / 2, _string(n_sites, {j: "Y", j + 1: "Y"})))
    return Chain("hop", n_sites, {"t": ts, "mu": mu}, text, n_sites, "jw",
                 pauli, 18 * (n_sites - 1), 4 * (n_sites - 1))


def bh_chain(n_sites: int, rng: random.Random) -> Chain:
    """Bose-Hubbard chain on t(4) sites, unary encoding hp:1 (2 qubits/site).

    Hopping: sum_j J_j (adag(j) a(j+1) + h.c.); interaction U adag adag a a.
    At hp:1 the boson creator is a product of two qubit ladder operators, so
    a bond is a product of four qubit ladders plus its adjoint: the 8 Pauli
    strings over X/Y with an even number of Y, each with |coefficient| J/8.
    Every string has 4 active qubits (6 CX); a string with k Y letters costs
    15 + 2k gates, so a bond costs 8*15 + 2*(6*2 + 4) = 152 gates and 48 CX.
    U adag adag a a squares a qubit ladder, so it adds no Pauli term.
    """
    Js = [_draw(rng, 0.5, 1.5) for _ in range(n_sites - 1)]
    U = _draw(rng, 0.5, 2.0)
    terms = []
    for j, J in enumerate(Js):
        terms.append(f"{_num(J)} * adag({j}) a({j + 1})")
        terms.append(f"{_num(J)} * adag({j + 1}) a({j})")
    terms += [f"{_num(U)} * adag({j}) adag({j}) a({j}) a({j})"
              for j in range(n_sites)]
    text = f"sites {', '.join(['t(4)'] * n_sites)};\nH = {' + '.join(terms)};\n"
    width = 2 * n_sites
    pauli = []
    for j, J in enumerate(Js):
        for letters in itertools.product("XY", repeat=4):
            if letters.count("Y") % 2 == 0:
                pauli.append((J / 8, _string(
                    width, {2 * j + k: letters[k] for k in range(4)})))
    return Chain("bh", n_sites, {"J": Js, "U": U}, text, width, "hp",
                 pauli, 152 * (n_sites - 1), 48 * (n_sites - 1))


def _string(width: int, letters: dict) -> str:
    return "".join(letters.get(q, "I") for q in range(width))


# ---------------------------------------------------------------------------
# Independent answers
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _pauli_dense(terms) -> np.ndarray:
    """Dense matrix of sum_k c_k P_k for (c, string) with signed c."""
    width = len(terms[0][1])
    out = np.zeros((2 ** width, 2 ** width), dtype=complex)
    for c, string in terms:
        m = np.ones((1, 1), dtype=complex)
        for letter in string:
            m = np.kron(m, _PAULI[letter])
        out += c * m
    return out


def ground_energy(chain: Chain) -> float:
    if chain.family == "spin":
        # signed terms: J ZZ and h X, as derived in spin_chain
        J, h = chain.coeffs["J"], chain.coeffs["h"]
        n = chain.sites
        terms = [(J, _string(n, {j: "Z", j + 1: "Z"})) for j in range(n - 1)]
        terms += [(h, _string(n, {j + 1: "X"})) for j in range(n - 1)]
        return float(np.linalg.eigvalsh(_pauli_dense(terms))[0])
    if chain.family == "hop":
        # free fermions: fill every negative single-particle level
        ts = chain.coeffs["t"]
        single = np.diag(ts, 1) + np.diag(ts, -1)
        levels = np.linalg.eigvalsh(single)
        return float(levels[levels < 0].sum())
    # truncated bosons, d = 4 per site
    d, n = 4, chain.sites
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    eye = np.eye(d)

    def at(op, j):
        m = np.ones((1, 1))
        for k in range(n):
            m = np.kron(m, op if k == j else eye)
        return m

    ann = [at(a, j) for j in range(n)]
    h = sum(J * (ann[j].T @ ann[j + 1] + ann[j + 1].T @ ann[j])
            for j, J in enumerate(chain.coeffs["J"]))
    h = h + chain.coeffs["U"] * sum(x.T @ x.T @ x @ x for x in ann)
    return float(np.linalg.eigvalsh(h)[0])


def anticommute(p: str, q: str) -> bool:
    """Pauli strings anticommute iff they differ non-trivially on an odd
    number of qubits."""
    clash = sum(1 for x, y in zip(p, q) if x != "I" and y != "I" and x != y)
    return clash % 2 == 1


def trotter_bound(chain: Chain, t: float, steps: int) -> float:
    """(t^2 / 2n) sum_{j<k} ||[c_j P_j, c_k P_k]||, with the commutator norm
    2|c_j c_k| for anticommuting strings and 0 otherwise."""
    total = 0.0
    terms = chain.pauli
    for i, (ci, pi) in enumerate(terms):
        for cj, pj in terms[i + 1:]:
            if anticommute(pi, pj):
                total += 2 * abs(ci * cj)
    return t * t / (2 * steps) * total


def apply_chain(chain: Chain, state: dict) -> dict:
    """H |state> for a state {occupation tuple: amplitude}, per family."""
    out: dict = {}

    def add(occ, amp):
        out[occ] = out.get(occ, 0j) + amp

    n = chain.sites
    for occ, amp in state.items():
        if chain.family == "spin":
            J, h = chain.coeffs["J"], chain.coeffs["h"]
            z = [2 * k - 1 for k in occ]          # Z on t(2): occupation 1 -> +1
            add(occ, amp * J * sum(z[j] * z[j + 1] for j in range(n - 1)))
            for k in range(1, n):
                flipped = list(occ)
                flipped[k] ^= 1
                add(tuple(flipped), amp * h)
        elif chain.family == "hop":
            # adjacent hops pass no occupied site: the Jordan-Wigner sign is +1
            mu = chain.coeffs["mu"] or 0.0
            add(occ, amp * mu * sum(occ))
            for j, t in enumerate(chain.coeffs["t"]):
                if occ[j] != occ[j + 1]:
                    moved = list(occ)
                    moved[j], moved[j + 1] = occ[j + 1], occ[j]
                    add(tuple(moved), amp * t)
        else:
            U, top = chain.coeffs["U"], 3
            add(occ, amp * U * sum(k * (k - 1) for k in occ))
            for j, J in enumerate(chain.coeffs["J"]):
                for src, dst in ((j + 1, j), (j, j + 1)):
                    if occ[src] >= 1 and occ[dst] + 1 <= top:
                        moved = list(occ)
                        moved[src] -= 1
                        moved[dst] += 1
                        add(tuple(moved),
                            amp * J * math.sqrt(occ[src] * (occ[dst] + 1)))
    return out


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------

def circuit_figures(text: str) -> dict:
    """Width, gate, CX and rotation counts, |angles| and depth of a circuit
    in qblue's text format (header line, then one gate per line)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0][1].rstrip(";") if lines and lines[0][0] == "qubits" else None
    if head is None:
        raise Mismatch("circuit file has no 'qubits' header")
    width = int(head)
    frontier = [0] * width
    cx = 0
    angles = []
    for parts in lines[1:]:
        name = parts[0]
        if name in ("rx", "ry", "rz"):
            angles.append(abs(float(parts[1])))
            qubits = [int(parts[2])]
        else:
            qubits = [int(q) for q in parts[1:]]
            cx += name == "cx"
        level = 1 + max(frontier[q] for q in qubits)
        for q in qubits:
            frontier[q] = level
    return {"width": width, "gates": len(lines) - 1, "cx": cx,
            "angles": angles, "depth": max(frontier, default=0)}


def _json_lines(stdout: str) -> list:
    return [json.loads(ln) for ln in stdout.splitlines() if ln.strip()]


def compile_check(chain: Chain, out: Path, t: float, steps: int):
    def check(stdout: str) -> dict:
        fig = circuit_figures(out.read_text())
        report = json.loads(Path(str(out) + ".encoding.json").read_text())
        want = {"width": chain.qubits, "gates": chain.gates_per_step * steps,
                "cx": chain.cx_per_step * steps}
        got = {k: fig[k] for k in want}
        if got != want:
            raise Mismatch(f"circuit {got} != expected {want}")
        if report.get("method") != chain.encoding:
            raise Mismatch(f"encoding {report.get('method')!r} != "
                           f"{chain.encoding!r}")
        expected = sorted(2 * c * t / steps for c, _ in chain.pauli) * steps
        got_angles = sorted(fig["angles"])
        if len(got_angles) != len(expected) or any(
                abs(x - y) > 1e-9 for x, y in zip(got_angles, sorted(expected))):
            raise Mismatch(f"{len(got_angles)} rotation angles differ from "
                           f"{len(chain.pauli)} Pauli terms x {steps} steps")
        return {"gates": fig["gates"], "cx": fig["cx"], "depth": fig["depth"]}
    return check


def verify_check(chain: Chain, t: float, steps: int):
    bound = trotter_bound(chain, t, steps)

    def check(stdout: str) -> dict:
        distance = float(_json_lines(stdout)[-1]["distance"])
        if not 0.0 <= distance <= bound + BOUND_SLACK:
            raise Mismatch(f"distance {distance:.6g} outside [0, commutator "
                           f"bound {bound:.6g}]")
        return {"distance": distance}
    return check


def energy_check(chain: Chain):
    want = ground_energy(chain)

    def check(stdout: str) -> dict:
        got = float(_json_lines(stdout)[-1]["energy"])
        if abs(got - want) > ENERGY_TOL * max(1.0, abs(want)):
            raise Mismatch(f"energy {got!r} != {want!r}")
        return {}
    return check


def check_verdicts(expected: dict):
    """expected: definition name -> Hermitian verdict."""
    def check(stdout: str) -> dict:
        got = {r["def"]: r["hermitian"] for r in _json_lines(stdout)}
        if got != expected:
            wrong = sorted(k for k in set(got) | set(expected)
                           if got.get(k) != expected.get(k))
            raise Mismatch(f"hermitian verdicts differ for {wrong}: "
                           f"got {[got.get(k) for k in wrong]}")
        for r in _json_lines(stdout):
            if (r["flag"] == "h") != r["hermitian"]:
                raise Mismatch(f"{r['def']}: flag {r['flag']} contradicts "
                               f"hermitian={r['hermitian']}")
        return {}
    return check


def eval_check(want: dict):
    want = {occ: amp for occ, amp in want.items() if abs(amp) > AMP_TOL}

    def check(stdout: str) -> dict:
        record = _json_lines(stdout)[-1]
        got = {tuple(occ): complex(re, im) for re, im, occ in record["kets"]}
        if set(got) != set(want):
            raise Mismatch(f"{len(got)} kets, expected {len(want)}")
        worst = max((abs(got[k] - want[k]) for k in want), default=0.0)
        if worst > AMP_TOL * max(1.0, max(abs(a) for a in want.values())):
            raise Mismatch(f"amplitude off by {worst:.3g}")
        return {}
    return check


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

FAMILIES = {"spin": spin_chain, "hop": hop_chain, "bh": bh_chain}

# Every pass has 25 ops: 10% and 50% of a pass then fall in the middle of
# one op's samples, not on the edge between two ops of different cost, so
# the pooled p50 and p90 do not jump between neighbouring ops.

# (family, sites, Trotter steps): N = 4..32 for spin and hopping chains,
# 4..16 sites (8..32 qubits) for Bose-Hubbard, steps cycling over 1, 2, 4.
COMPILE_LADDER = [
    ("spin", 4, 1), ("spin", 5, 2), ("spin", 6, 4), ("spin", 8, 1),
    ("spin", 10, 2), ("spin", 12, 4), ("spin", 14, 2), ("spin", 16, 1),
    ("spin", 20, 2), ("spin", 24, 4), ("spin", 32, 1),
    ("hop", 4, 2), ("hop", 6, 4), ("hop", 8, 1), ("hop", 12, 2),
    ("hop", 16, 4), ("hop", 24, 1), ("hop", 32, 2),
    ("bh", 4, 1), ("bh", 5, 2), ("bh", 6, 4), ("bh", 8, 1), ("bh", 10, 2),
    ("bh", 12, 1), ("bh", 16, 2),
]

# 5..8 qubits; 9 qubits costs seconds per verify, too long for a steady pass.
# Bose-Hubbard stays at 3 sites (6 qubits): its 152-gate bonds make the
# 8-qubit verify take about 3 s.
# The last field says whether the instance also runs `energy`.
VERIFY_LADDER = [
    ("spin", 5, 1, False), ("spin", 6, 2, True), ("spin", 7, 4, True),
    ("spin", 8, 2, True), ("hop", 5, 2, True), ("hop", 6, 4, True),
    ("hop", 7, 1, True), ("hop", 8, 2, True), ("bh", 3, 2, False),
]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload `name` under `workdir` and return its ops."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"compile_chain": _compile_chain, "verify_dense": _verify_dense,
            "check_eval": _check_eval}[name]
    groups, probes = make(rng, workdir)
    # Each kind of op is listed smallest first.
    kinds: dict = {}
    for group in groups:
        kinds.setdefault(group[0].label.split(" N=")[0], group)
    rng.shuffle(groups)
    ops = [op for group in groups for op in group]
    warmup = [op for group in kinds.values() for op in group]
    return Workload(name, ops, warmup, probes)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _compile_op(chain, steps, t, prog, out):
    return Op(f"compile {chain.family} N={chain.sites} n={steps}",
              ["--json", "compile", prog, "--t", _num(t), "--n", str(steps),
               "--out", str(out)],
              compile_check(chain, out, t, steps))


def _compile_chain(rng, workdir):
    groups = []
    for i, (family, sites, steps) in enumerate(COMPILE_LADDER):
        chain = FAMILIES[family](sites, rng)
        t = _draw(rng, 0.3, 1.0)
        prog = _write(workdir / f"c{i}.qb", chain.text)
        groups.append([_compile_op(chain, steps, t, prog,
                                   workdir / f"c{i}.circ")])
    return groups, []


def _verify_dense(rng, workdir):
    groups = []
    for i, (family, sites, steps, energy) in enumerate(VERIFY_LADDER):
        chain = FAMILIES[family](sites, rng)
        t = _draw(rng, 0.3, 1.0)
        prog = _write(workdir / f"v{i}.qb", chain.text)
        circ = workdir / f"v{i}.circ"
        group = [
            _compile_op(chain, steps, t, prog, circ),
            Op(f"verify {family} N={sites} n={steps}",
               ["--json", "verify", str(circ), prog, "--t", _num(t)],
               verify_check(chain, t, steps)),
        ]
        if energy:
            group.append(Op(f"energy {family} N={sites}",
                            ["--json", "energy", prog], energy_check(chain)))
        groups.append(group)
    return groups, []


def _state_text(chain: Chain, kets: dict) -> str:
    site = {"spin": "t(2)", "hop": "F", "bh": "t(4)"}[chain.family]
    lines = [f"sites: {', '.join([site] * chain.sites)}"]
    for occ, amp in kets.items():
        lines.append(f"({amp.real!r},{amp.imag!r}) |{','.join(map(str, occ))}>")
    return "\n".join(lines) + "\n"


def _random_state(chain: Chain, rng: random.Random, nkets: int) -> dict:
    top = {"spin": 1, "hop": 1, "bh": 2}[chain.family]
    kets = {}
    while len(kets) < nkets:
        occ = tuple(rng.randint(0, top) for _ in range(chain.sites))
        kets[occ] = complex(_draw(rng, 0.2, 1.0), _draw(rng, -0.5, 0.5))
    return kets


def _squared(chain: Chain) -> str:
    """The program of chain with its definition replaced by H H."""
    head, body = chain.text.split("\nH = ", 1)
    body = body.rstrip().rstrip(";")
    return f"{head}\nH2 = ({body}) ({body});\n"


def constructs_program(rng: random.Random):
    """Definitions over four t(2) sites using every documented construct,
    each with its Hermitian verdict known by construction."""
    re_, im_ = _draw(rng, 0.2, 0.9), _draw(rng, 0.1, 0.9)
    z, zbar = f"({_num(re_)}+{_num(im_)}i)", f"({_num(re_)}-{_num(im_)}i)"
    w = _draw(rng, 0.2, 1.5)
    defs = {
        # A + dag(A) is Hermitian for any A
        "Hdag": (f"{z} * adag(0) a(1) + dag({z} * adag(0) a(1))", True),
        # z a0^dag a1 + conj(z) a1^dag a0
        "Hcplx": (f"{z} * adag(1) a(2) + {zbar} * adag(2) a(1)", True),
        # z a0^dag a1 + z a1^dag a0 with Im z != 0
        "Hskew": (f"{z} * adag(0) a(1) + {z} * adag(1) a(0)", False),
        # i w X0 Z1 is anti-Hermitian
        "Himag": (f"{_num(w)}i * X(0) Z(1)", False),
        "Hsqrt": ("sqrt(2) * X(0) + sqrt(3) * Z(1) Z(2)", True),
        # binary minus before a non-literal factor
        "Hsum": ("sum j in 0..2 { Z(j) Z(j+1) - X(j+1) }", True),
        "Hneg": (f"-Z(0) + {_num(w)} * X(3)", True),
    }
    text = "sites t(2), t(2), t(2), t(2);\n" + "".join(
        f"{name} = {body};\n" for name, (body, _) in defs.items())
    return text, {name: verdict for name, (_, verdict) in defs.items()}


def _check_eval(rng, workdir):
    groups = []
    k = 0

    def path(suffix):
        nonlocal k
        k += 1
        return workdir / f"e{k}{suffix}"

    # check: Hermitian chains (syntactic certificate) ...
    for family, sites in (("spin", 8), ("spin", 16), ("spin", 24),
                          ("hop", 16), ("hop", 32), ("bh", 8)):
        chain = FAMILIES[family](sites, rng)
        prog = _write(path(".qb"), chain.text)
        groups.append([Op(f"check {family} N={sites}",
                          ["--json", "check", prog], check_verdicts({"H": True}))])
    # ... non-Hermitian one-way hopping, decided by the dense matrix fallback
    for sites in (4, 6, 8):
        ts = [_draw(rng, 0.5, 1.5) for _ in range(sites - 1)]
        body = " + ".join(f"{_num(t)} * adag({j}) a({j + 1})"
                          for j, t in enumerate(ts))
        prog = _write(path(".qb"),
                      f"sites {', '.join(['F'] * sites)};\nH = {body};\n")
        groups.append([Op(f"check one-way hop N={sites}",
                          ["--json", "check", prog], check_verdicts({"H": False}))])
    for _ in range(2):
        text, verdicts = constructs_program(rng)
        prog = _write(path(".qb"), text)
        groups.append([Op("check constructs", ["--json", "check", prog],
                          check_verdicts(verdicts))])

    # eval: H and H H on seeded states
    evals = [("spin", 8, 1, False), ("spin", 16, 2, False), ("spin", 32, 1, False),
             ("spin", 8, 2, True), ("spin", 16, 1, True), ("spin", 24, 1, True),
             ("spin", 32, 1, True),
             ("hop", 8, 2, False), ("hop", 16, 1, False), ("hop", 32, 2, False),
             ("hop", 8, 1, True), ("hop", 16, 1, True),
             ("bh", 4, 2, False), ("bh", 8, 1, False)]
    for family, sites, nkets, squared in evals:
        if family == "hop":
            chain = hop_chain(sites, rng, mu=_draw(rng, -1.0, 1.0))
        else:
            chain = FAMILIES[family](sites, rng)
        state = _random_state(chain, rng, nkets)
        want = apply_chain(chain, state)
        text = chain.text
        if squared:
            want = apply_chain(chain, want)
            text = _squared(chain)
        prog = _write(path(".qb"), text)
        st = _write(path(".state"), _state_text(chain, state))
        groups.append([Op(f"eval {family}{'^2' if squared else ''} N={sites}",
                          ["--json", "eval", prog, "--state", st],
                          eval_check(want))])

    # Known defects, run outside the timed passes and reported on their own.
    spin = spin_chain(4, rng)
    minus = spin.text.replace(f" + {_num(spin.coeffs['h'])} * X",
                              f" - {_num(spin.coeffs['h'])} * X")
    probes = [
        Op("probe binary minus before a literal",
           ["--json", "check", _write(path(".qb"), minus)],
           check_verdicts({"H": True})),
        Op("probe sum of 1200 terms",
           ["--json", "check", _write(
               path(".qb"), "sites t(2), t(2);\n"
               "H = sum j in 0..1199 { 0.001 * Z(0) Z(1) };\n")],
           check_verdicts({"H": True})),
    ]
    return groups, probes
