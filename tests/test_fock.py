import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import LayoutError, StateFormatError
from qblue.expr import (
    Atom, Boson, Fermion, LadderKind, Seq, annihilate, create, dagger,
    ham_sum, identity, scale, seq, site_dim, tensor,
)
from qblue import fock
from qblue.fock import (
    apply, apply_single, format_state, make_state, parse_state,
)
from qblue.linalg import expr_to_matrix

import oracle
from helpers import basis_ket, state_to_vector
from strategies import graded_trees, well_formed

T2 = Boson(2)
T3 = Boson(3)
T4 = Boson(4)
F = Fermion()


# ---------------------------------------------------------------------------
# apply_single (single-ket ladder semantics)
# ---------------------------------------------------------------------------

def test_create_raises_with_sqrt_factor():
    coeff, k = apply_single(LadderKind.CREATE, T4, 1)
    assert coeff == pytest.approx(math.sqrt(2))
    assert k == 2


def test_annihilate_vacuum_vanishes():
    assert apply_single(LadderKind.ANNIHILATE, T4, 0) is None


def test_create_at_top_occupation_vanishes():
    assert apply_single(LadderKind.CREATE, T2, 1) is None
    assert apply_single(LadderKind.CREATE, T4, 3) is None


def test_fermion_ladder_factors_are_one():
    assert apply_single(LadderKind.CREATE, F, 0) == (1.0, 1)
    assert apply_single(LadderKind.ANNIHILATE, F, 1) == (1.0, 0)


def test_ladder_semantics_exhaustive_small_dims():
    for m in range(1, 9):
        site = Boson(m)
        for k in range(m):
            up = apply_single(LadderKind.CREATE, site, k)
            dn = apply_single(LadderKind.ANNIHILATE, site, k)
            if k == m - 1:
                assert up is None
            else:
                assert up == (pytest.approx(math.sqrt(k + 1)), k + 1)
            if k == 0:
                assert dn is None
            else:
                assert dn == (pytest.approx(math.sqrt(k)), k - 1)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_tensor_splits_ket():
    e = tensor(create(T4), annihilate(T4))
    s = basis_ket((T4, T4), (1, 1))
    out = apply(e, s)
    assert len(out.terms) == 1
    assert out.terms[0].occ == (2, 0)
    assert out.terms[0].amp == pytest.approx(math.sqrt(2))


def test_apply_sum_branches():
    e = ham_sum(annihilate(T4), create(T4))
    out = apply(e, basis_ket((T4,), (1,)))
    assert [(k.occ, k.amp) for k in out.terms] == [
        ((0,), pytest.approx(1.0)),
        ((2,), pytest.approx(math.sqrt(2))),
    ]


def test_apply_to_zero_state_absorbs():
    e = ham_sum(create(T2), annihilate(T2))
    out = apply(e, make_state((T2,), []))
    assert out.is_zero


def test_apply_seq_right_operand_first():
    e = seq(create(T2), annihilate(T2))  # a^dag a = occupation count
    assert apply(e, basis_ket((T2,), (1,))).terms[0].amp == pytest.approx(1)
    assert apply(e, basis_ket((T2,), (0,))).is_zero


def test_apply_layout_mismatch():
    with pytest.raises(LayoutError):
        apply(annihilate(T2), basis_ket((T2, T2), (0, 0)))


def test_apply_is_linear():
    rng = np.random.default_rng(2)
    layout = (T4, T2)
    e = ham_sum(tensor(create(T4), annihilate(T2)),
                tensor(annihilate(T4), identity(T2)))
    s1 = make_state(layout, [(0.3, (1, 1)), (0.5j, (2, 0))])
    s2 = make_state(layout, [(1.0, (0, 1))])
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal())

    def combine(x, y):
        return make_state(layout, [(a * k.amp, k.occ) for k in x.terms]
                          + [(b * k.amp, k.occ) for k in y.terms])

    lhs = apply(e, combine(s1, s2))
    rhs = combine(apply(e, s1), apply(e, s2))
    assert lhs.layout == rhs.layout
    for ka, kb in zip(lhs.terms, rhs.terms):
        assert ka.occ == kb.occ
        assert ka.amp == pytest.approx(kb.amp)


def test_apply_agrees_with_matrix_oracle_bosonic():
    # two-site hopping over t(4): independent reference via explicit krons
    layout = (T4, T4)
    e = ham_sum(
        seq(Atom(layout, ((0, LadderKind.CREATE),)),
            Atom(layout, ((1, LadderKind.ANNIHILATE),))),
        seq(Atom(layout, ((1, LadderKind.CREATE),)),
            Atom(layout, ((0, LadderKind.ANNIHILATE),))))
    ref = (oracle.embedded(oracle.create_mat(4), 0, (4, 4))
           @ oracle.embedded(oracle.annihilate_mat(4), 1, (4, 4)))
    ref = ref + (oracle.embedded(oracle.create_mat(4), 1, (4, 4))
                 @ oracle.embedded(oracle.annihilate_mat(4), 0, (4, 4)))
    for occ in [(0, 1), (1, 1), (3, 2), (2, 0)]:
        s = basis_ket(layout, occ)
        got = state_to_vector(apply(e, s))
        want = ref @ state_to_vector(s)
        assert oracle.max_norm(got, want) < 1e-12
    assert oracle.max_norm(expr_to_matrix(e), ref) < 1e-12


@st.composite
def operators(draw):
    """(layout, e) over mixed F / t(2) / t(3) sites, with an adjoint at the
    root or as the first-applied factor of a product, or neither."""
    layout = tuple(draw(st.lists(st.sampled_from([F, T2, T3]),
                                 min_size=1, max_size=3)))
    e = draw(well_formed(layout))
    shape = draw(st.sampled_from(["plain", "dag", "seq"]))
    if shape == "dag":
        return layout, dagger(e)
    if shape == "seq":
        return layout, Seq(e, dagger(draw(well_formed(layout, 2))))
    return layout, e


@given(operators())
def test_apply_matches_matrix_columns(case):
    layout, e = case
    m = expr_to_matrix(e)
    tol = 1e-12 * max(1.0, abs(m).max())
    occs = itertools.product(*(range(site_dim(site)) for site in layout))
    for col, occ in enumerate(occs):
        got = state_to_vector(apply(e, basis_ket(layout, occ)))
        assert oracle.max_norm(got, m[:, col]) <= tol


@given(graded_trees())
def test_apply_of_dagger_gives_the_conjugate_transpose(e):
    layout = e.layout
    want = expr_to_matrix(e).conj().T
    occs = itertools.product(*(range(site_dim(site)) for site in layout))
    for col, occ in enumerate(occs):
        got = state_to_vector(apply(dagger(e), basis_ket(layout, occ)))
        assert oracle.max_norm(got, want[:, col]) <= 1e-12


# ---------------------------------------------------------------------------
# fermionic signs
# ---------------------------------------------------------------------------

def test_indexed_fermionic_op_matches_jw_matrix():
    n = 3
    layout = (F,) * n
    for j in range(n):
        e = Atom(layout, ((j, LadderKind.ANNIHILATE),))
        ref = oracle.jw_ladder("annihilate", j, n)
        assert oracle.max_norm(expr_to_matrix(e), ref) < 1e-12
        for occ_idx in range(2 ** n):
            occ = tuple((occ_idx >> (n - 1 - b)) & 1 for b in range(n))
            got = state_to_vector(apply(e, basis_ket(layout, occ)))
            want = ref @ state_to_vector(basis_ket(layout, occ))
            assert oracle.max_norm(got, want) < 1e-12


def test_fermion_state_level_anticommutation():
    # a(i) then adag(j) vs adag(j) then a(i) differ by -1 on every ket
    layout = (F, F, F)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ai = Atom(layout, ((i, LadderKind.ANNIHILATE),))
            cj = Atom(layout, ((j, LadderKind.CREATE),))
            for occ_idx in range(8):
                occ = tuple((occ_idx >> (2 - b)) & 1 for b in range(3))
                s = basis_ket(layout, occ)
                one = apply(cj, apply(ai, s))
                two = apply(ai, apply(cj, s))
                if one.is_zero:
                    assert two.is_zero
                    continue
                assert [k.occ for k in one.terms] == [k.occ for k in two.terms]
                for ka, kb in zip(one.terms, two.terms):
                    assert ka.amp == pytest.approx(-kb.amp)


# ---------------------------------------------------------------------------
# expectation values of apply
# ---------------------------------------------------------------------------

def expectation(e, s):
    """<s|e|s> / <s|s>."""
    v = state_to_vector(s)
    return np.vdot(v, state_to_vector(apply(e, s))) / np.vdot(v, v)


def test_expectation_of_number_operator():
    e = seq(create(T4), annihilate(T4))
    assert expectation(e, basis_ket((T4,), (2,))) == pytest.approx(2)


def test_expectation_of_z_combination_on_vacuum():
    z = ham_sum(seq(create(T2), annihilate(T2)),
                scale(-1, seq(annihilate(T2), create(T2))))
    assert expectation(z, basis_ket((T2,), (0,))) == pytest.approx(-1)


def test_expectation_of_identity_is_one():
    s = make_state((T2, T2), [(1.0, (0, 1)), (1.0, (1, 0))])
    assert expectation(Atom((T2, T2)), s) == pytest.approx(1)


def test_expectation_unnormalized_state_divides_by_norm():
    e = seq(create(T4), annihilate(T4))
    s = make_state((T4,), [(2.0, (3,))])
    assert expectation(e, s) == pytest.approx(3)


# ---------------------------------------------------------------------------
# state validation and text format
# ---------------------------------------------------------------------------

def test_make_state_validates_occupations():
    with pytest.raises(ValueError):
        make_state((T2,), [(1.0, (2,))])
    with pytest.raises(ValueError):
        make_state((F,), [(1.0, (2,))])
    with pytest.raises(LayoutError):
        make_state((T2, T2), [(1.0, (0,))])


def test_make_state_merges_and_prunes():
    s = make_state((T2,), [(0.5, (0,)), (0.5, (0,)), (1e-16, (1,))])
    assert len(s.terms) == 1
    assert s.terms[0].amp == pytest.approx(1.0)


def test_state_text_roundtrip():
    s = make_state((T2, T4, F), [(0.25 - 1j, (1, 3, 0)), (0.5, (0, 2, 1))])
    text = format_state(s)
    back = parse_state(text)
    assert back.layout == s.layout
    assert back.terms == s.terms


def test_state_text_example_form():
    text = "sites: t(2), t(4)\n(0.5,0.0) |1,2>\n"
    s = parse_state(text)
    assert s.layout == (T2, T4)
    assert s.terms[0].occ == (1, 2)


def test_parse_state_checks_each_ket_once(monkeypatch):
    calls, check = [], fock._check_occ

    def counting(layout, occ):
        calls.append(occ)
        return check(layout, occ)

    monkeypatch.setattr(fock, "_check_occ", counting)
    s = parse_state("sites: t(2), t(4)\n(0.5,0) |1,2>\n(1,0) |0,3>\n"
                    "(0.5,0) |1,2>\n")
    assert calls == [(1, 2), (0, 3), (1, 2)]
    assert [(k.amp, k.occ) for k in s.terms] == [(1, (0, 3)), (1, (1, 2))]


def test_state_text_errors():
    with pytest.raises(StateFormatError) as err:
        parse_state("(1,0) |0>")
    assert (err.value.line, err.value.col) == (1, 1)
    with pytest.raises(StateFormatError) as err:
        parse_state("sites: t(2)\n  not a ket\n")
    assert (err.value.line, err.value.col) == (2, 3)
