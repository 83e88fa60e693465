import ast
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings, strategies as st

from qblue import linalg
from qblue.errors import (
    DIM_CAP, HERMITIAN_TOL, ZERO_TOL, DimensionCapError, NonHermitianError,
)
from qblue.expr import Boson, Fermion, dagger
from qblue.fock import format_state
from qblue.linalg import (
    LANCZOS_MIN_DIM, Sparse, check_hermitian, evolve, expr_to_sparse,
    ground_energy, sparse, vector_to_state,
)
from qblue.parser import parse

import oracle
from helpers import (
    basis_ket, expr_to_matrix, make_state, op, parsed, state_to_vector,
    to_sparse,
)
from strategies import DIMS, FAMILIES, layouts, on, program_text, programs

T2 = Boson(2)
T3 = Boson(3)
F = Fermion()

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def hadamard_generator():
    """Ladder form whose matrix is the projector onto the Hadamard
    -1 eigenvector; exp over time pi gives the Hadamard gate."""
    c = 0.5 - math.sqrt(2) / 4
    d = 0.5 + math.sqrt(2) / 4
    w = math.sqrt(2) / 4
    return op("t(2)", f"{c!r} * a(0) adag(0) + {d!r} * adag(0) a(0)"
                      f" - {w!r} * (adag(0) + a(0))")


def cnot_generator():
    """(a^dag a) (x) (I - X)/2 over two qubits; exp at pi gives CX."""
    return op("t(2), t(2)",
              "adag(0) a(0) (0.5 * I(0) - 0.5 * (adag(1) + a(1)))")


# ---------------------------------------------------------------------------
# expr_to_matrix
# ---------------------------------------------------------------------------

def test_annihilator_matrix_t2():
    m = expr_to_matrix(op("t(2)", "a(0)"))
    assert oracle.max_norm(m, np.array([[0, 1], [0, 0]])) == 0


def test_creator_matrix_t3():
    m = expr_to_matrix(op("t(3)", "adag(0)"))
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = 1
    want[2, 1] = math.sqrt(2)
    assert oracle.max_norm(m, want) == 0


def test_x_combination_block():
    x1 = op("t(2), t(2)", "adag(1) + a(1)")
    assert oracle.max_norm(expr_to_matrix(x1), np.kron(oracle.I2, oracle.X)) == 0


def test_matrix_action_matches_interpreter_on_basis():
    from qblue.fock import apply
    layout = (T3, F, T2)
    e = op("t(3), F, t(2)", "adag(0) a(2) + adag(1)")
    m = expr_to_matrix(e)
    dims = [3, 2, 2]
    for idx in range(12):
        occ = []
        rem = idx
        for d in reversed(dims):
            occ.append(rem % d)
            rem //= d
        occ = tuple(reversed(occ))
        s = basis_ket(layout, occ)
        assert oracle.max_norm(m @ state_to_vector(s),
                               state_to_vector(apply(e, s))) < 1e-12


def _jw(leaf_kind, j, sites, amp=1.0):
    """Oracle matrix of a ladder (or identity, leaf_kind None) at site j."""
    dims = [2 if site == F else site.dim for site in sites]
    if leaf_kind is None:
        return amp * np.eye(int(np.prod(dims)), dtype=complex)
    op = (oracle.create_mat if leaf_kind == "create"
          else oracle.annihilate_mat)(dims[j])
    fermionic = [site == F for site in sites]
    if fermionic[j]:
        return amp * oracle.jw_embedded(op, j, dims, fermionic)
    return amp * oracle.embedded(op, j, dims)


def test_fermion_tensor_with_odd_right_operand():
    # a product applies its last factor first: in Jordan-Wigner form the
    # later factor's Z string sees the occupations the others left
    layout = (F, F)
    m = expr_to_matrix(op("F, F", "a(1) adag(0)"))
    want = _jw("annihilate", 1, layout) @ _jw("create", 0, layout)
    assert oracle.max_norm(m, want) < 1e-12
    assert oracle.max_norm(m, -_jw("create", 0, layout)
                           @ _jw("annihilate", 1, layout)) < 1e-12
    layout = (F, T3, F, F)
    e = op("F, t(3), F, F", "adag(3) 2 * I(2) adag(1) 0.5i * a(0)")
    want = (_jw("create", 3, layout) @ _jw(None, 2, layout, 2.0)
            @ _jw("create", 1, layout) @ _jw("annihilate", 0, layout, 0.5j))
    assert oracle.max_norm(expr_to_matrix(e), want) < 1e-12


def test_tensor_of_sums_general_path():
    # a product of sums on different sites: the product is linear in each
    # factor, so the oracle is the product of the factor sums
    layout = (F, T3, F)
    e = op("F, t(3), F", "(a(2) + 2 * I(2)) (adag(1) + 1.5 * a(1))"
                         " (adag(0) + 0.5i * a(0) - 0.25 * I(0))")
    want = ((_jw("annihilate", 2, layout) + _jw(None, 2, layout, 2.0))
            @ (_jw("create", 1, layout) + _jw("annihilate", 1, layout, 1.5))
            @ (_jw("create", 0, layout) + _jw("annihilate", 0, layout, 0.5j)
               + _jw(None, 0, layout, -0.25)))
    assert oracle.max_norm(expr_to_matrix(e), want) < 1e-12


# the examples per property of the qblue-deep profile (conftest.py)
DEEP = settings.get_profile("qblue-deep").max_examples


@pytest.mark.parametrize("family", sorted(FAMILIES))
# 40 examples per family, or the deep profile's count when it is loaded
@settings(max_examples=DEEP if settings.default.max_examples == DEEP else 40)
@given(data=st.data())
def test_the_matrix_of_program_text_is_its_oracle_matrix(family, data):
    # two routes to the meaning of the text: the parsed tree's lowering,
    # and the matrix built from the parser docstring with the oracle
    drawn = data.draw(programs((family,)))
    got = expr_to_matrix(parsed(drawn))
    assert oracle.max_norm(got, drawn.matrix) <= drawn.tolerance


def oracle_layout(sites):
    return ["F" if s == "F" else DIMS[s] for s in sites]


small_layouts = layouts(("F/t(2)", "F/t(3)"), max_dim=9)
# (A, B) with B written on the sites after A's
operand_pairs = st.tuples(small_layouts, small_layouts).flatmap(
    lambda la_lb: st.tuples(on(la_lb[0]), on(la_lb[1],
                                              offset=len(la_lb[0]))))


@settings(max_examples=150)
@given(operand_pairs)
def test_tensor_is_the_graded_kronecker_product(operands):
    # (B) (A) on the concatenated layout applies A first, the graded tensor
    # product of A and B: checks the Jordan-Wigner sign of a product across
    # sites against the oracle's definition
    a, b = operands
    text = program_text(a.sites + b.sites, f"({b.body}) ({a.body})")
    want = oracle.graded_kron(a.matrix, oracle_layout(a.sites),
                              b.matrix, oracle_layout(b.sites))
    got = expr_to_matrix(parse(text).defs["H"])
    assert oracle.max_norm(got, want) <= 1e-12 * a.magnitude * b.magnitude


def test_bosons_at_top_occupation():
    for d in (3, 4):
        site = Boson(d)
        up = expr_to_matrix(op(str(site), "adag(0)"))
        down = expr_to_matrix(op(str(site), "a(0)"))
        assert oracle.max_norm(up, oracle.create_mat(d)) == 0
        assert oracle.max_norm(down, oracle.annihilate_mat(d)) == 0
        # the creator kills the top level; the annihilator takes it down
        # with amplitude sqrt(d - 1)
        assert not up[:, d - 1].any()
        assert down[d - 2, d - 1] == pytest.approx(math.sqrt(d - 1))
        n = expr_to_matrix(op(str(site), "adag(0) a(0)"))
        assert oracle.max_norm(n, np.diag(np.arange(d))) < 1e-12
    e = op("t(3), t(4)", "0.5 * adag(0) adag(1)")
    assert oracle.max_norm(
        expr_to_matrix(e),
        np.kron(0.5 * oracle.create_mat(3), oracle.create_mat(4))) < 1e-12
    assert oracle.max_norm(
        expr_to_matrix(op("t(3), t(4)", "a(1)")),
        oracle.embedded(oracle.annihilate_mat(4), 1, (3, 4))) == 0


def test_dagger_of_cross_site_seq():
    layout = (F, T3, F)
    e = op("F, t(3), F", "(0.3+0.4i) * adag(0) a(1) a(2)")
    m = (_jw("create", 0, layout, 0.3 + 0.4j) @ _jw("annihilate", 1, layout)
         @ _jw("annihilate", 2, layout))
    assert oracle.max_norm(expr_to_matrix(e), m) < 1e-12
    assert oracle.max_norm(expr_to_matrix(dagger(e)), m.conj().T) < 1e-12


@pytest.mark.parametrize("text, amp, factors", [
    ("sites t(3), t(2);\nH = adag(0) a(0) a(0);\n", 1,
     [(oracle.create_mat, 0), (oracle.annihilate_mat, 0),
      (oracle.annihilate_mat, 0)]),
    ("sites t(2), t(3);\nH = a(0) a(0) adag(0);\n", 1,
     [(oracle.annihilate_mat, 0), (oracle.annihilate_mat, 0),
      (oracle.create_mat, 0)]),
    ("sites t(3), t(2);\nH = 0.5 * a(1) adag(1) adag(1) a(0) a(0);\n", 0.5,
     [(oracle.annihilate_mat, 1), (oracle.create_mat, 1),
      (oracle.create_mat, 1), (oracle.annihilate_mat, 0),
      (oracle.annihilate_mat, 0)]),
    ("sites t(2), t(2);\nH = adag(0) adag(0) adag(0);\n", 1,
     [(oracle.create_mat, 0)] * 3),
], ids=["t3-adag-a-a", "t2-a-a-adag", "t2-t3-mixed", "t2-past-the-matrix"])
def test_product_of_atoms_where_an_inner_factor_vanishes(text, amp,
                                                         factors):
    # an inner factor leaves some columns with no nonzero, or shifts them
    # past the matrix; the composed diagonals must index in range and agree
    # with the dense product
    program = parse(text)
    dims = [site.dim for site in program.layout]
    want = amp * oracle.kron_all(*(np.eye(d) for d in dims))
    for mat, j in factors:
        want = want @ oracle.embedded(mat(dims[j]), j, dims)
    assert oracle.max_norm(expr_to_matrix(program.defs["H"]), want) < 1e-12


def test_cube_of_x_sum_on_six_sites():
    program = parse("sites t(2), t(2), t(2), t(2), t(2), t(2);\n"
                    "H = (X(0) + X(1) + X(2)) (X(0) + X(1) + X(2))"
                    " (X(0) + X(1) + X(2));")
    s = sum(oracle.pauli_string_matrix("I" * j + "X" + "I" * (5 - j))
            for j in range(3))
    assert oracle.max_norm(expr_to_matrix(program.defs["H"]),
                           s @ s @ s) < 1e-12


def test_the_csr_is_built_from_the_kept_entries_of_each_diagonal():
    # (sum_j X(j))^3 on 10 sites lowers to 681 diagonals of length 1024,
    # about 17 MiB of values and magnitudes; stacking them into (K, dim)
    # arrays on the way to the sparse matrix more than doubled the peak
    x = " + ".join(f"X({j})" for j in range(10))
    e = op(", ".join(["t(2)"] * 10), f"({x}) ({x}) ({x})")
    tracemalloc.start()
    try:
        m = expr_to_sparse(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # stored row-major, each key once
    assert m.nnz == 133120 and (np.diff(m.rows * m.dim + m.cols) > 0).all()
    assert peak < 30 * 2 ** 20


def test_a_cancellation_inside_a_product_leaves_no_residue():
    # paths through Z(j) Z(j+1) and X(j+1) cancel exactly in some entries of
    # H H; the rounding residue of such an entry is no entry of the matrix
    body = "sum j in 0..3 { 0.9 * Z(j) Z(j+1) + 0.8 * X(j+1) }"
    m = expr_to_sparse(op(", ".join(["t(2)"] * 5), f"({body}) ({body})"))
    # qblue's Z on t(2) is -Z, so Z(j) Z(j+1) is the Pauli ZZ
    h = sum(0.9 * oracle.pauli_string_matrix("I" * j + "ZZ" + "I" * (3 - j))
            + 0.8 * oracle.pauli_string_matrix("I" * (j + 1) + "X"
                                               + "I" * (3 - j))
            for j in range(4))
    want = h @ h
    assert abs(m.vals).min() > 1e-12 * abs(m.vals).max()
    assert oracle.max_norm(m.toarray(), want) <= 1e-12 * abs(want).max()


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        expr_to_matrix(op(", ".join(["t(2)"] * 13), "I(0)"))


def loop_vector_to_state(v, layout, tol=1e-14):
    """The per-index loop that vector_to_state replaced."""
    dims = [2 if site == F else site.dim for site in layout]
    kets = []
    for idx, amp in enumerate(v):
        if abs(amp) <= tol:
            continue
        occ = []
        rem = idx
        for d in reversed(dims):
            occ.append(rem % d)
            rem //= d
        kets.append((amp, tuple(reversed(occ))))
    return make_state(layout, kets)


@pytest.mark.parametrize("layout", [(F,), (T3, F, T2), (F, F, T3, T2),
                                    (T2, T3, T3, F)])
def test_vector_to_state_matches_the_index_loop(layout):
    rng = np.random.default_rng(len(layout))
    dim = int(np.prod([2 if site == F else site.dim for site in layout]))
    vectors = []
    for _ in range(5):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v[rng.random(dim) < 0.4] = 0
        v[rng.random(dim) < 0.1] = 1e-15
        # the real field's Lanczos gives a real vector; a conjugated real
        # one holds -0.0 imaginary parts
        vectors += [v, v.real.copy(), v.real.astype(complex).conj()]
    # 1e-11 is above ZERO_TOL, but negligible against 1e4: it drops
    small = np.zeros(dim)
    small[0], small[-1] = 1e4, 1e-11
    # no entry above ZERO_TOL: the zero state
    tiny = rng.uniform(-ZERO_TOL, ZERO_TOL, dim)
    for v in vectors + [small, tiny]:
        got = vector_to_state(v, layout)
        want = loop_vector_to_state(v, layout)
        assert got.terms == want.terms and got.layout == want.layout
        assert format_state(got) == format_state(want)
        assert all(type(k.amp) is complex for k in got.terms)
        assert all(type(n) is int for k in got.terms for n in k.occ)
    assert [k.amp for k in vector_to_state(small, layout).terms] == [1e4]
    assert vector_to_state(tiny, layout).is_zero


def test_state_vector_roundtrip():
    layout = (T3, T2)
    s = make_state(layout, [(0.5j, (2, 1)), (1.0, (0, 0))])
    v = state_to_vector(s)
    back = vector_to_state(v, layout)
    assert back.terms == s.terms


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def exp_matrix(h, t):
    """e^{-i h t} of the dense Hermitian h, by evolve of the identity."""
    return evolve(to_sparse(h), np.eye(len(h)), t)


def up_to_phase(a, b):
    """max |a - e^{i alpha} b| at the phase alpha of trace(b^dag a)."""
    return oracle.max_norm(a, np.exp(1j * np.angle(np.vdot(b, a))) * b)


def test_exp_of_x_is_rx():
    theta = 0.37
    u = exp_matrix(oracle.X, theta)
    want = np.array([[math.cos(theta), -1j * math.sin(theta)],
                     [-1j * math.sin(theta), math.cos(theta)]])
    assert oracle.max_norm(u, want) < 1e-12


def test_exp_of_z_is_phase_pair():
    theta = 1.1
    u = exp_matrix(oracle.Z, theta)
    want = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    assert oracle.max_norm(u, want) < 1e-12


def test_exp_of_hadamard_generator_at_pi():
    u = evolve(expr_to_sparse(hadamard_generator()), np.eye(2), math.pi)
    assert up_to_phase(u, HADAMARD) < 1e-9


def test_exp_of_cnot_generator_at_pi():
    u = evolve(expr_to_sparse(cnot_generator()), np.eye(4), math.pi)
    assert up_to_phase(u, CNOT) < 1e-9


def test_exp_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        exp_matrix(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_exp_is_unitary_and_semigroup():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        t1, t2 = rng.normal(), rng.normal()
        u = exp_matrix(h, t1)
        assert oracle.max_norm(u.conj().T @ u, np.eye(4)) < 1e-10
        prod = exp_matrix(h, t1) @ exp_matrix(h, t2)
        assert oracle.max_norm(exp_matrix(h, t1 + t2), prod) < 1e-10


def test_exp_of_real_symmetric_matches_the_complex_path():
    rng = np.random.default_rng(11)
    for n in (2, 7, 32):
        a = rng.normal(size=(n, n))
        h = (a + a.T) / 2
        w, v = np.linalg.eigh(h.astype(complex))
        for t in (0.3, -1.7):
            want = (v * np.exp(-1j * w * t)) @ v.conj().T
            assert oracle.max_norm(exp_matrix(h, t), want) < 1e-12
            assert oracle.max_norm(exp_matrix(h.astype(complex), t),
                                   want) < 1e-12


def test_exp_of_complex_hermitian():
    # Y is Hermitian with a nonzero imaginary part: e^{-i Y t} is ry(2t)
    t = 0.8
    want = np.array([[math.cos(t), -math.sin(t)],
                     [math.sin(t), math.cos(t)]])
    assert oracle.max_norm(exp_matrix(oracle.Y, t), want) < 1e-12
    rng = np.random.default_rng(12)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(h)
    u = exp_matrix(h, 0.6)
    assert oracle.max_norm(u @ v, v * np.exp(-0.6j * w)) < 1e-12


def blocks(h):
    """The number of connected components of h's sparsity pattern."""
    return scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_array(h != 0), directed=False)[0]


def chain_matrix(site, body, n=6):
    """The matrix of sum j in 0..n-2 { body } on n sites of one type."""
    return expr_to_matrix(op(", ".join([site] * n),
                             f"sum j in 0..{n - 2} {{ {body} }}"))


def interleaved(h):
    """h with its basis permuted, so each block's indices spread over the
    whole range instead of forming runs."""
    p = np.random.default_rng(3).permutation(h.shape[0])
    return h[np.ix_(p, p)]


HOPPING = "0.9 * adag(j) a(j+1) + 0.9 * adag(j+1) a(j) + 0.3 * adag(j) a(j)"


@pytest.mark.parametrize("h, count", [
    (expr_to_matrix(op(", ".join(["t(2)"] * 6),
                       "sum j in 0..4 { Z(j) Z(j+1) }"
                       " + sum j in 0..5 { 0.7 * X(j) }")), 1),
    (chain_matrix("t(2)", "1.1 * Z(j) Z(j+1) + 0.8 * X(j+1)"), 2),
    (chain_matrix("F", HOPPING), 7),
    (chain_matrix("F", "(0.3+0.4i) * adag(j) a(j+1)"
                       " + (0.3-0.4i) * adag(j+1) a(j)"), 7),
    (interleaved(chain_matrix("F", HOPPING)), 7),
    (np.zeros((16, 16)), 16),
], ids=["field-on-every-site", "bench-spin", "hopping", "complex-hopping",
        "interleaved", "zero"])
def test_the_blocked_exponential_matches_expm(h, count):
    # matrices of one block, of Z(0)'s two sectors, of the particle-number
    # sectors of six fermions (complex amplitudes too), of those sectors
    # scattered over the basis, and the zero matrix, whose blocks are its
    # 1 x 1 diagonal
    assert blocks(h) == count
    for t in (0.4, -1.3):
        want = scipy.linalg.expm(-1j * h * t)
        assert oracle.max_norm(exp_matrix(h, t), want) < 1e-12


def test_the_blocked_exponential_overflows_with_its_message():
    # on either side of LANCZOS_MIN_DIM: the dense eigh's phases, and the
    # Ritz values' at the first check of the Krylov readout
    for n in (6, 9):
        h = to_sparse(chain_matrix("F", HOPPING, n))
        with pytest.raises(ValueError, match=r"^the phases w t of e\^\(-i h "
                                             r"t\) overflow at t = 1e\+308$"):
            evolve(h, np.ones((h.dim, 2)), 1e308)


def test_an_entry_without_its_transpose_is_not_hermitian():
    # h[0, 5] joins the blocks of 0 and 5 in the pattern, and h[5, 0] is 0
    h = chain_matrix("F", HOPPING)
    h[0, 5] = 0.5
    assert h[5, 0] == 0
    with pytest.raises(NonHermitianError):
        exp_matrix(h, 0.4)


def krylov_chain(family, n):
    """The Sparse of a chain program of n sites (``chain``)."""
    return expr_to_sparse(chain(family, n).defs["H"])


@pytest.mark.parametrize("family", ["spin", "hop", "hop-complex",
                                    "one-block"])
@pytest.mark.parametrize("n", [7, 8, 10])
def test_evolve_is_expm_on_both_sides_of_the_lanczos_dim(family, n):
    # dims 128, 256 and 1024: a dense eigh, then the Krylov readout of
    # each state, real and complex, at short and long times
    h = krylov_chain(family, n)
    assert (h.dim >= LANCZOS_MIN_DIM) == (n > 7)
    rng = np.random.default_rng(n)
    states = np.concatenate([rng.standard_normal((h.dim, 2)),
                             rng.standard_normal((h.dim, 2))
                             + 1j * rng.standard_normal((h.dim, 2))], axis=1)
    for t in (0.4, -1.3, 6.0):
        want = scipy.linalg.expm(-1j * t * h.toarray()) @ states
        assert oracle.max_norm(evolve(h, states, t), want) < 1e-12


@pytest.mark.parametrize("n", [4, 9])
def test_evolve_of_an_invariant_state_stops_at_breakdown(n):
    # a basis state of a diagonal matrix, and any state of the zero
    # matrix, span a Krylov space of one vector: beta_0 is exactly 0, and
    # the readout takes it without dividing by it
    dim = 2 ** n
    diagonal = Sparse(dim, np.arange(dim), np.arange(dim),
                      np.linspace(-2.0, 3.0, dim))
    eye = np.eye(dim)[:, :3]
    assert np.array_equal(evolve(diagonal, eye, 0.7),
                          eye * np.exp(-0.7j * diagonal.vals[:3]))
    zero = expr_to_sparse(parse(f"sites {', '.join(['t(2)'] * n)};\n"
                                "H = Z(0) - Z(0);\n").defs["H"])
    states = np.random.default_rng(1).standard_normal((dim, 2))
    assert oracle.max_norm(evolve(zero, states, 0.7), states) < 1e-15


def hermitian_case(case):
    """A 300 x 300 Hermitian matrix, or one with the fault the case
    names."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    h = (g + g.conj().T) / 2
    if case == "real":
        return h.real
    if case == "anti-pair":
        h[290, 10] += 1e-3
    elif case == "fault-below-the-largest-entry":
        # 1e-9 is below ZERO_TOL of the largest |h|, though not of |h[0, 1]|
        h[299, 299] = 1e6
        h[0, 1] += 1e-9
    elif case == "nan":
        h[299, 0] = math.nan
    elif case == "inf":
        h[0, 5] = math.inf
    return h


@pytest.mark.parametrize("case, hermitian", [
    ("hermitian", True), ("real", True), ("anti-pair", False),
    ("fault-below-the-largest-entry", True), ("nan", False), ("inf", False)])
def test_a_dense_matrix_is_checked_as_its_csr(case, hermitian):
    # the same verdict and message from the Sparse of the dense matrix,
    # built from its entries in row-major order or in a shuffled one
    h = hermitian_case(case)
    verdicts = []
    for m in (to_sparse(h), shuffled_sparse(h)):
        try:
            check_hermitian(m)
            verdicts.append(None)
        except NonHermitianError as err:
            verdicts.append(str(err))
    assert verdicts[0] == verdicts[1]
    assert (verdicts[0] is None) == hermitian


@st.composite
def hermitian_patterns(draw):
    """A dense matrix of up to 12 x 12 with a random pattern and entries
    over 16 decades: Hermitian, or with one entry perturbed, one entry's
    transpose removed, a nan or an inf, or only its upper triangle."""
    dim = draw(st.integers(1, 12))
    field = draw(st.sampled_from([float, complex]))
    h = np.zeros((dim, dim), field)
    for k in draw(st.lists(st.integers(0, dim * dim - 1), max_size=24)):
        i, j = divmod(k, dim)
        v = draw(st.sampled_from([1, -1, 0.3, 1 / 3])) * 10.0 ** draw(
            st.integers(-8, 8))
        if field is complex and i != j:
            v *= np.exp(1j * draw(st.sampled_from([0.5, 2.0, math.pi / 2])))
        h[i, j], h[j, i] = v, np.conj(v)
    fault = draw(st.sampled_from(["none", "perturb", "orphan", "nan", "inf",
                                  "triangle"]))
    stored = np.argwhere(h != 0)
    if fault == "triangle":
        h = np.triu(h)
    elif fault != "none" and len(stored):
        i, j = stored[draw(st.integers(0, len(stored) - 1))]
        if fault == "perturb":
            step = draw(st.sampled_from([1e-15, 1e-13, 1e-11, 1e-9, 1e-3]))
            h[i, j] += step * abs(h[i, j]) * (1j if field is complex else 1)
        elif fault == "orphan":
            h[j, i] = 0
        else:
            h[i, j] = math.nan if fault == "nan" else math.inf
    return h


def shuffled_sparse(h, seed=5):
    """The Sparse of the dense h, built from its entries in an order
    shuffled by seed."""
    rows, cols = np.nonzero(h)
    p = np.random.default_rng(seed).permutation(rows.size)
    return sparse(len(h), rows[p], cols[p], h[rows[p], cols[p]])


def csr_check_hermitian(h):
    """The CSR Hermiticity check qblue ran on scipy.sparse, kept as the
    reference for ``check_hermitian``: it compares every entry of
    h - h^dag by scipy's sparse arithmetic."""
    h = scipy.sparse.csr_array(h)
    a, err = abs(h), abs(h - h.conj().T)
    top = a.max()
    bad = not np.isfinite(top)
    if not bad and err.max() > ZERO_TOL * top:   # pair by pair
        bad = (err.multiply(err > ZERO_TOL * top)
               > HERMITIAN_TOL * a.maximum(a.T)).nnz
    if bad:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {err.max():g}")


def verdict(check, h):
    try:
        check(h)
    except NonHermitianError as err:
        return str(err)
    return None


@given(hermitian_patterns())
def test_the_hermitian_check_is_the_csr_check(h):
    # the verdict and the message of the check that compared every entry
    # of h - h^dag by scipy's sparse arithmetic
    want = verdict(csr_check_hermitian, h)
    assert verdict(check_hermitian, to_sparse(h)) == want
    assert verdict(check_hermitian, shuffled_sparse(h)) == want


# ---------------------------------------------------------------------------
# ground_energy
# ---------------------------------------------------------------------------

def test_ground_of_z_matrix():
    res = ground_energy(to_sparse(np.diag([1.0, -1.0]).astype(complex)),
                        (T2,))
    assert res.energy == pytest.approx(-1)
    assert [k.occ for k in res.state.terms] == [(1,)]
    assert np.linalg.norm(state_to_vector(res.state)) == pytest.approx(1)


def test_ground_of_zz_matrix():
    m = np.kron(oracle.Z, oracle.Z)
    res = ground_energy(to_sparse(m), (T2, T2))
    assert res.energy == pytest.approx(-1)
    occs = {k.occ for k in res.state.terms}
    assert occs <= {(0, 1), (1, 0)}


def test_ground_of_identity():
    res = ground_energy(to_sparse(np.eye(8)), (Boson(8),))
    assert res.energy == pytest.approx(1)


def test_ground_is_variational_lower_bound():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        res = ground_energy(to_sparse(h), (Boson(6),))
        for _ in range(50):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            v /= np.linalg.norm(v)
            assert res.energy <= oracle.expval(h, v).real + 1e-10


def chain(family, n):
    """A spin, hopping, complex hopping or one-block spin chain program of
    n sites.  The one-block chain has a field on every site, so its
    pattern is one block; the spin chain conserves Z on site 0."""
    bodies = {
        "spin": ("t(2)", "1.1 * Z(j) Z(j+1) + 0.7 * X(j+1)"),
        "hop": ("F", "0.9 * adag(j) a(j+1) + 0.9 * adag(j+1) a(j)"),
        "hop-complex": ("F", "(0.5+0.3i) * adag(j) a(j+1)"
                             " + (0.5-0.3i) * adag(j+1) a(j)"),
        "one-block": ("t(2)", "Z(j) Z(j+1) + 0.7 * X(j+1)"),
    }
    site, body = bodies[family]
    tail = " + 0.7 * X(0)" if family == "one-block" else ""
    return parse(f"sites {', '.join([site] * n)};\n"
                 f"H = sum j in 0..{n - 2} {{ {body} }}{tail};\n")


def free_fermion_energy(t, n):
    """Ground energy of n modes with hopping t between neighbours: the sum
    of the negative eigenvalues of the one-particle matrix."""
    one = np.diag(np.full(n - 1, t), 1)
    w = np.linalg.eigvalsh(one + one.conj().T)
    return w[w < 0].sum()


@pytest.mark.parametrize("family", ["spin", "hop", "hop-complex"])
@pytest.mark.parametrize("n", [4, 7, 8, 10])
def test_ground_energy_matches_the_dense_reference(family, n):
    program = chain(family, n)
    h = expr_to_sparse(program.defs["H"])
    res = ground_energy(h, program.layout)
    dense = h.toarray()
    want = np.linalg.eigvalsh(dense)[0]
    assert abs(res.energy - want) <= 1e-10
    if family != "spin":
        t = 0.9 if family == "hop" else 0.5 + 0.3j
        assert abs(res.energy - free_fermion_energy(t, n)) <= 1e-10
    # the state is an eigenvector of the energy
    v = state_to_vector(res.state)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert np.linalg.norm(dense @ v - res.energy * v) <= 1e-9


def test_ground_state_of_a_degenerate_ground_space():
    # Z(0) and the product of X commute with the spin chain and anticommute
    # with each other, so every level is twofold degenerate; the state is
    # one vector of the ground space, the same on every call
    program = chain("spin", 8)
    h = expr_to_sparse(program.defs["H"])
    w = np.linalg.eigvalsh(h.toarray())
    assert w[1] - w[0] < 1e-10
    res = ground_energy(h, program.layout)
    v = state_to_vector(res.state)
    assert np.linalg.norm(h @ v - res.energy * v) <= 1e-9
    assert ground_energy(h, program.layout) == res


@pytest.mark.parametrize("n", [4, 9])
def test_ground_of_the_zero_operator(n):
    # on either side of LANCZOS_MIN_DIM: energy 0 and the first basis
    # state, which a dense eigh of the zero matrix returns
    program = parse(f"sites {', '.join(['t(2)'] * n)};\nH = Z(0) - Z(0);\n")
    res = ground_energy(expr_to_sparse(program.defs["H"]), program.layout)
    assert res.energy == 0
    assert [(k.amp, k.occ) for k in res.state.terms] == [(1, (0,) * n)]


def blockwise_ground(h):
    """The lowest eigenvalue of the Sparse h: eigvalsh of each block of its
    pattern, as scipy's connected components find them."""
    m = scipy.sparse.csr_array((h.vals, (h.rows, h.cols)), shape=h.shape)
    _, labels = scipy.sparse.csgraph.connected_components(m != 0,
                                                          directed=False)
    blocks = (m[b][:, b].toarray() for b in map(
        np.flatnonzero, labels == np.unique(labels)[:, None]))
    # solved in the real field where the imaginary part is zero
    return min(np.linalg.eigvalsh(d if d.imag.any() else d.real)[0]
               for d in blocks)


@pytest.mark.parametrize("family", ["spin", "hop", "one-block",
                                    "hop-complex"])
@pytest.mark.parametrize("n", [8, 10, 12])
def test_lanczos_finds_the_ground_pair_of_eigvalsh(family, n):
    # dims 256 to 4096, all on the Lanczos side of LANCZOS_MIN_DIM
    program = chain(family, n)
    h = expr_to_sparse(program.defs["H"])
    assert h.shape[0] >= LANCZOS_MIN_DIM
    res = ground_energy(h, program.layout)
    assert abs(res.energy - blockwise_ground(h)) <= 1e-10
    v = state_to_vector(res.state)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert np.linalg.norm(h @ v - res.energy * v) <= 1e-9


@pytest.mark.parametrize("spectrum", [
    np.linspace(0, 1, 256) ** 2,
    np.concatenate([np.linspace(0, 1, 253), [1e2, 1e3, 1e4]]),
], ids=["crowded-bottom", "outliers"])
def test_lanczos_keeps_its_basis_orthogonal_to_the_last_step(spectrum):
    # a ground level crowded by its neighbours, or far below a few
    # outliers, takes all 256 steps; the three-term recurrence alone, or
    # one Gram-Schmidt sweep, loses orthogonality on the way there
    index = np.arange(1, 256)
    h = Sparse(256, index, index, spectrum[1:])
    res = ground_energy(h, (Boson(256),))
    assert abs(res.energy) <= 1e-10
    v = state_to_vector(res.state)
    assert np.linalg.norm(h @ v - res.energy * v) <= 1e-9


def test_the_solvers_cap_the_dimension_before_converting(monkeypatch):
    # a Sparse identity past the cap: refused before it is checked,
    # converted or multiplied
    index = np.arange(DIM_CAP + 1)
    h = Sparse(DIM_CAP + 1, index, index, np.ones(DIM_CAP + 1))

    def refuse(*args, **kwargs):
        raise AssertionError("converted before the cap")

    monkeypatch.setattr(linalg, "check_hermitian", refuse)
    monkeypatch.setattr(Sparse, "__matmul__", refuse)
    with pytest.raises(DimensionCapError):
        evolve(h, np.ones((DIM_CAP + 1, 1)), 0.5)
    with pytest.raises(DimensionCapError):
        ground_energy(h, (T2,))


def test_ground_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        ground_energy(to_sparse([[0, 1], [0, 0]]), (T2,))


def test_a_large_entry_does_not_hide_an_anti_hermitian_one():
    big = 1e12 * np.kron(oracle.Z, np.eye(2))
    with pytest.raises(NonHermitianError):
        ground_energy(to_sparse(big + 0.5j * np.kron(np.eye(2), oracle.X)),
                      (T2, T2))
    # a difference at the rounding of the largest entry is no evidence
    near = np.array([[1.0, 5.551115123125783e-17],
                     [2.7755575615628914e-17, -1.0]])
    assert ground_energy(to_sparse(near), (T2,)).energy == pytest.approx(
        -1.0)


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_the_hermitian_tolerance_is_relative_to_the_matrix(scale):
    # i times a Hermitian matrix is not Hermitian at any scale
    with pytest.raises(NonHermitianError):
        ground_energy(to_sparse(scale * np.array([[0, 1j], [1j, 0]])), (T2,))
    assert ground_energy(to_sparse(scale * oracle.X),
                         (T2,)).energy == pytest.approx(-scale)


def imported_modules(path):
    tree = ast.parse(Path(path).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_oracles_are_independent_routes():
    # the test oracle shares no code with the package, and the package's
    # dense lowering does not go through the canonical forms
    oracle_imports = imported_modules(oracle.__file__)
    assert not any(name.split(".")[0] == "qblue" for name in oracle_imports)
    linalg_imports = imported_modules(
        importlib.import_module("qblue.linalg").__file__)
    assert not any("typecheck" in name for name in linalg_imports)
