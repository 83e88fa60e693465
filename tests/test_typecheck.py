import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import COEFF_EQ_TOL, LayoutError
from qblue.expr import (
    Atom, Boson, Dagger, Fermion, Flag, LadderKind, Seq, Sum, Tensor,
    annihilate, create, desugar_indexed, ham_sum, identity, scale, seq,
    site_layout, tensor,
)
from qblue.linalg import expr_to_matrix
from qblue.typecheck import (
    adjoint, canonical_allclose, canonical_to_expr,
    canonicalize, hermiticity_report, is_hermitian, typecheck,
)

import oracle
from strategies import graded_trees, well_formed

# the package re-exports the function typecheck under the module's name
typecheck_module = importlib.import_module("qblue.typecheck")

T2 = Boson(2)
T4 = Boson(4)
F = Fermion()


def hop(layout):
    """a^dag(0) a(1) + a^dag(1) a(0) over a two-site layout."""
    site = layout[0]
    return ham_sum(
        seq(desugar_indexed(create(site), 0, layout),
            desugar_indexed(annihilate(site), 1, layout)),
        seq(desugar_indexed(create(site), 1, layout),
            desugar_indexed(annihilate(site), 0, layout)))


# ---------------------------------------------------------------------------
# dag: the canonical form of Dagger(e)
# ---------------------------------------------------------------------------

def same_form(a, b):
    return canonical_allclose(canonicalize(a), canonicalize(b))


def test_dagger_distributes_over_tensor():
    e = Dagger(tensor(create(T2), annihilate(T2)))
    assert same_form(e, tensor(annihilate(T2), create(T2)))
    # two fermion-odd factors trade places under the adjoint: a minus sign
    e = Dagger(tensor(create(F), create(F, 2j)))
    assert not same_form(e, tensor(annihilate(F), annihilate(F, -2j)))
    assert same_form(e, tensor(annihilate(F, -1), annihilate(F, -2j)))


def test_dagger_reverses_seq():
    e = Dagger(seq(create(T2), annihilate(T2)))
    assert same_form(e, seq(create(T2), annihilate(T2)))
    e2 = Dagger(seq(annihilate(T2), annihilate(T2, 2.0)))
    assert same_form(e2, seq(create(T2, 2.0), create(T2)))
    assert not same_form(e2, seq(create(T2, 2.0), annihilate(T2)))


def test_dagger_is_involutive():
    e = Dagger(Dagger(annihilate(T2, 1 + 2j)))
    assert same_form(e, annihilate(T2, 1 + 2j))


def test_dagger_conjugates_amplitudes():
    assert same_form(Dagger(annihilate(T2, 2j)), create(T2, -2j))
    assert same_form(Dagger(identity(T2, 1j)), identity(T2, -1j))
    assert not same_form(Dagger(identity(T2, 1j)), identity(T2, 1j))


def test_dagger_normalize_matches_adjoint_matrix():
    # both the tree lowering of Dagger(e) and the expression rebuilt from
    # its canonical form give the conjugate transpose
    rng = np.random.default_rng(7)
    for layout in [(T2, T4), (F, T2, F)]:
        for _ in range(25):
            e = _random_expr(rng, layout, depth=3)
            want = expr_to_matrix(e).conj().T
            rebuilt = canonical_to_expr(canonicalize(Dagger(e)))
            assert oracle.max_norm(expr_to_matrix(rebuilt), want) < 1e-12
            assert oracle.max_norm(expr_to_matrix(Dagger(e)), want) < 1e-12


def test_dagger_of_fermionic_tensor_is_the_graded_adjoint():
    t = tensor(create(F), create(F))
    # t applies adag at site 0, then adag at site 1 behind its Z string
    m = (oracle.jw_ladder("create", 1, 2)
         @ oracle.jw_ladder("create", 0, 2))
    assert oracle.max_norm(expr_to_matrix(t), m) == 0
    assert oracle.max_norm(expr_to_matrix(Dagger(t)), m.conj().T) == 0
    h = ham_sum(t, Dagger(t))
    mh = expr_to_matrix(h)
    assert oracle.max_norm(mh, m + m.conj().T) == 0
    ok, method, _ = hermiticity_report(h)
    assert ok == (oracle.max_norm(mh, mh.conj().T) < 1e-10)
    assert ok and method == "syntactic"


def _random_expr(rng, layout, depth):
    """Random well-typed expression; on fermionic sites only indexed
    atoms of one ladder are generated (the indexed-operator class)."""
    if depth == 0 or rng.random() < 0.35:
        j = int(rng.integers(len(layout)))
        amp = complex(rng.normal(), rng.normal())
        kind = LadderKind.CREATE if rng.random() < 0.5 else LadderKind.ANNIHILATE
        op = Atom((layout[j],), ((0, kind),), amp)
        if rng.random() < 0.2:
            op = identity(layout[j], amp)
        return desugar_indexed(op, j, layout)
    r = rng.random()
    if r < 0.4:
        return ham_sum(_random_expr(rng, layout, depth - 1),
                       _random_expr(rng, layout, depth - 1))
    if r < 0.8:
        return seq(_random_expr(rng, layout, depth - 1),
                   _random_expr(rng, layout, depth - 1))
    return Dagger(_random_expr(rng, layout, depth - 1))


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_fuses_padded_product():
    layout = (T4, T4)
    e = seq(desugar_indexed(create(T4), 0, layout),
            desugar_indexed(annihilate(T4), 1, layout))
    form = canonicalize(e)
    assert len(form.terms) == 1
    term = form.terms[0]
    assert term.coeff == pytest.approx(1)
    assert term.factors == ((0, (LadderKind.CREATE,)),
                            (1, (LadderKind.ANNIHILATE,)))


def test_canonicalize_merges_like_terms():
    e = ham_sum(annihilate(T2), annihilate(T2))
    form = canonicalize(e)
    assert len(form.terms) == 1
    assert form.terms[0].coeff == pytest.approx(2)


def test_canonicalize_cancels_to_zero():
    e = ham_sum(annihilate(T2), annihilate(T2, -1))
    assert canonicalize(e).terms == ()


def test_canonicalize_is_idempotent_and_matrix_preserving():
    rng = np.random.default_rng(11)
    for layout in [(T2,), (T2, T4), (F, F), (F, T2, F)]:
        for _ in range(20):
            e = _random_expr(rng, layout, depth=3)
            form = canonicalize(e)
            rebuilt = canonical_to_expr(form)
            assert oracle.max_norm(expr_to_matrix(rebuilt),
                                   expr_to_matrix(e)) < 1e-10
            again = canonicalize(rebuilt)
            assert canonical_allclose(form, again, tol=1e-10)


def test_canonicalize_fermion_reorder_tracks_sign():
    # a^dag(0) a(1) on fermions: application order puts site 1 first, so
    # normal ordering swaps two odd operators
    layout = (F, F)
    e = seq(desugar_indexed(create(F), 0, layout),
            desugar_indexed(annihilate(F), 1, layout))
    form = canonicalize(e)
    assert len(form.terms) == 1
    assert form.terms[0].coeff == pytest.approx(-1)
    assert form.terms[0].factors == ((0, (LadderKind.CREATE,)),
                                     (1, (LadderKind.ANNIHILATE,)))


# ---------------------------------------------------------------------------
# is_hermitian
# ---------------------------------------------------------------------------

def test_x_combination_is_hermitian():
    ok, method, form = hermiticity_report(ham_sum(create(T2), annihilate(T2)))
    assert ok and method == "syntactic"
    assert form == canonicalize(ham_sum(create(T2), annihilate(T2)))


def test_bare_annihilator_is_not_hermitian():
    ok, _, _ = hermiticity_report(annihilate(T2))
    assert not ok


def test_y_combination_is_hermitian():
    e = ham_sum(annihilate(T2, 1j), create(T2, -1j))
    assert is_hermitian(e)


def test_certificate_agrees_with_matrix_check():
    rng = np.random.default_rng(3)
    for layout in [(T2,), (T2, T2), (T4, T2), (F, F)]:
        for _ in range(30):
            e = _random_expr(rng, layout, depth=3)
            m = expr_to_matrix(e)
            truly = oracle.max_norm(m, m.conj().T) < 1e-10
            assert is_hermitian(e) == truly


# ---------------------------------------------------------------------------
# typecheck
# ---------------------------------------------------------------------------

def test_annihilator_types_p():
    ty = typecheck(annihilate(T2))
    assert ty.flag is Flag.P
    assert ty.sites == (T2,)


def test_number_combo_types_h():
    e = ham_sum(seq(create(T2), annihilate(T2)),
                seq(annihilate(T2), create(T2)))
    ty = typecheck(e)
    assert ty.flag is Flag.H
    m = expr_to_matrix(e)
    assert oracle.max_norm(m, np.eye(2)) < 1e-12


def test_hubbard_hopping_types_h():
    ty = typecheck(hop((T2, T2)))
    assert ty.flag is Flag.H
    assert ty.sites == (T2, T2)


def test_identity_types_h_but_complex_identity_p():
    assert typecheck(identity(T2)).flag is Flag.H
    assert typecheck(identity(T2, 1j), promote=False).flag is Flag.P


def test_seq_layout_mismatch_is_reported():
    bad = seq(annihilate(T2), tensor(annihilate(T2), identity(T2)))
    with pytest.raises(LayoutError):
        typecheck(bad)


def test_flag_soundness_on_random_expressions():
    rng = np.random.default_rng(5)
    for layout in [(T2, T2), (T4,), (F, F)]:
        for _ in range(25):
            e = _random_expr(rng, layout, depth=3)
            if typecheck(e).flag is Flag.H:
                m = expr_to_matrix(e)
                assert oracle.max_norm(m, m.conj().T) < 1e-10


def test_weakening_does_not_break_enclosing_typeability():
    # An H-flagged identity inside any context types fine at P as well
    e = seq(identity(T2), annihilate(T2))
    ty = typecheck(e, promote=False)
    assert ty.flag is Flag.P


def test_layout_error_paths():
    b, f = Boson(2), Fermion()
    ok = tensor(create(b), identity(b))
    bad = Sum(ok, Dagger(Sum(ok, Seq(ok, tensor(create(f), identity(b))))))
    with pytest.raises(LayoutError) as err:
        typecheck(bad)
    # child 1 of the root, inside its dag, child 1: the Seq
    assert err.value.path == "root.1.inner.1"
    assert err.value.left == (b, b)
    assert err.value.right == (f, b)
    bad = Sum(Tensor(create(b), identity(b)),
              Tensor(create(b), Sum(identity(b), identity(f))))
    with pytest.raises(LayoutError) as err:
        typecheck(bad)
    # child 1 of the root, its tensor factor 1: the inner Sum
    assert err.value.path == "root.1.1"
    assert err.value.left == (b,)
    assert err.value.right == (f,)


trees = st.lists(st.sampled_from([T2, T4, F]), min_size=1, max_size=4).flatmap(
    lambda layout: well_formed(tuple(layout)))


def recursive_flag(e):
    """The structural flag rule, one recursion per node."""
    if isinstance(e, Atom):
        if e.ops:
            return Flag.P
        return Flag.H if abs(e.amp.imag) <= 1e-12 else Flag.P
    if isinstance(e, Dagger):
        return recursive_flag(e.inner)
    flag = Flag.H
    for c in e.children:
        flag = flag.join(recursive_flag(c))
    return flag


@given(trees)
def test_structural_type_matches_layout_and_recursive_flag(e):
    ty = typecheck(e, promote=False)
    assert ty.sites == site_layout(e)
    assert ty.flag is recursive_flag(e)


@given(trees)
def test_structural_typing_does_not_call_site_layout(e):
    calls = []

    def counting(*args):
        calls.append(args)
        return site_layout(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(typecheck_module, "site_layout", counting)
        typecheck(e, promote=False)
    assert calls == []


@given(graded_trees())
def test_flipped_terms_are_the_terms_of_the_normalized_adjoint(e):
    # the adjoint computed from the form's terms is the form of Dagger(e),
    # whose terms are the flipped terms of e
    form = canonicalize(e)
    assert canonical_allclose(adjoint(form), canonicalize(Dagger(e)),
                              COEFF_EQ_TOL)
    assert canonical_allclose(adjoint(adjoint(form)), form, COEFF_EQ_TOL)
