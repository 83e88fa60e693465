import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import LayoutError
from qblue.expr import (
    Boson, Dagger, Fermion, Flag, Identity, Ladder, LadderKind, Seq, Sum,
    Tensor, annihilate, create, desugar_indexed, ham_sum, identity, scale,
    seq, site_layout, tensor,
)
from qblue.linalg import expr_to_matrix
from qblue.typecheck import (
    canonical_allclose, canonical_to_expr, canonicalize, dagger_normalize,
    hermiticity_report, is_hermitian, typecheck,
)

import oracle

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
# dagger_normalize
# ---------------------------------------------------------------------------

def test_dagger_distributes_over_tensor():
    e = Dagger(tensor(create(T2), annihilate(T2)))
    assert dagger_normalize(e) == tensor(annihilate(T2), create(T2))


def test_dagger_reverses_seq():
    e = Dagger(seq(create(T2), annihilate(T2)))
    assert dagger_normalize(e) == seq(create(T2), annihilate(T2))
    e2 = Dagger(seq(annihilate(T2), annihilate(T2, 2.0)))
    assert dagger_normalize(e2) == seq(create(T2, 2.0), create(T2))


def test_dagger_is_involutive():
    e = Dagger(Dagger(annihilate(T2, 1 + 2j)))
    assert dagger_normalize(e) == annihilate(T2, 1 + 2j)


def test_dagger_conjugates_amplitudes():
    assert dagger_normalize(Dagger(annihilate(T2, 2j))) == create(T2, -2j)
    assert dagger_normalize(Dagger(identity(T2, 1j))) == Identity(T2, -1j)


def test_dagger_normalize_matches_adjoint_matrix():
    rng = np.random.default_rng(7)
    layout = (T2, T4)
    for _ in range(25):
        e = _random_expr(rng, layout, depth=3)
        m = expr_to_matrix(e)
        md = expr_to_matrix(dagger_normalize(Dagger(e)))
        assert oracle.max_norm(md, m.conj().T) < 1e-12


def _random_expr(rng, layout, depth):
    """Random well-typed expression; on fermionic sites only identity-padded
    single ladder layers are generated (the indexed-operator class)."""
    if depth == 0 or rng.random() < 0.35:
        j = int(rng.integers(len(layout)))
        amp = complex(rng.normal(), rng.normal())
        kind = LadderKind.CREATE if rng.random() < 0.5 else LadderKind.ANNIHILATE
        op = Ladder(kind, layout[j], amp)
        if rng.random() < 0.2:
            op = Identity(layout[j], amp)
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
    assert term.factors == ((LadderKind.CREATE,), (LadderKind.ANNIHILATE,))


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
    assert form.terms[0].factors == ((LadderKind.CREATE,),
                                     (LadderKind.ANNIHILATE,))


# ---------------------------------------------------------------------------
# is_hermitian
# ---------------------------------------------------------------------------

def test_x_combination_is_hermitian():
    ok, method = hermiticity_report(ham_sum(create(T2), annihilate(T2)))
    assert ok and method == "syntactic"


def test_bare_annihilator_is_not_hermitian():
    ok, _ = hermiticity_report(annihilate(T2))
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
    assert err.value.path == "root.right.inner.right"
    assert err.value.left == (b, b)
    assert err.value.right == (f, b)
    bad = Sum(Tensor(create(b), identity(b)),
              Tensor(create(b), Sum(identity(b), identity(f))))
    with pytest.raises(LayoutError) as err:
        typecheck(bad)
    assert err.value.path == "root.right.right"
    assert err.value.left == (b,)
    assert err.value.right == (f,)


AMPS = st.sampled_from([1, -0.5, 2j, 0.3 + 0.4j])


@st.composite
def well_formed(draw, layout, depth=3):
    """Random expression acting on ``layout``: tensors split the layout,
    sums and products repeat it, daggers wrap it."""
    kinds = ["sum", "seq", "dag"] if depth > 0 else []
    kinds.append("leaf" if len(layout) == 1 else "tensor")
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        site, amp = layout[0], draw(AMPS)
        return draw(st.sampled_from([create(site, amp), annihilate(site, amp),
                                     identity(site, amp)]))
    sub = max(depth - 1, 0)
    if kind == "tensor":
        k = draw(st.integers(1, len(layout) - 1))
        return Tensor(draw(well_formed(layout[:k], sub)),
                      draw(well_formed(layout[k:], sub)))
    if kind == "dag":
        return Dagger(draw(well_formed(layout, sub)))
    node = Sum if kind == "sum" else Seq
    return node(draw(well_formed(layout, sub)), draw(well_formed(layout, sub)))


trees = st.lists(st.sampled_from([T2, T4, F]), min_size=1, max_size=4).flatmap(
    lambda layout: well_formed(tuple(layout)))


def recursive_flag(e):
    """The structural flag rule, one recursion per node."""
    if isinstance(e, Ladder):
        return Flag.P
    if isinstance(e, Identity):
        return Flag.H if abs(e.amp.imag) <= 1e-12 else Flag.P
    if isinstance(e, Dagger):
        return recursive_flag(e.inner)
    return recursive_flag(e.left).join(recursive_flag(e.right))


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
