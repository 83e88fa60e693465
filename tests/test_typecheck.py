import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qblue.errors import LayoutError
from qblue.expr import (
    Atom, Boson, Fermion, Flag, LadderKind, Seq, Sum, annihilate, create,
    dagger, ham_sum, identity, seq, site_dim, tensor,
)
from qblue.linalg import expr_to_matrix
from qblue.parser import parse
from qblue.typecheck import (
    adjoint, canonical_allclose, canonicalize, hermiticity_report,
    is_hermitian, typecheck,
)

import oracle
from strategies import graded_trees, well_formed
from test_parser import expr_text

T2 = Boson(2)
T4 = Boson(4)
F = Fermion()

trees = st.lists(st.sampled_from([T2, T4, F]), min_size=1, max_size=4).flatmap(
    lambda layout: well_formed(tuple(layout)))


def hop(layout):
    """a^dag(0) a(1) + a^dag(1) a(0) over a two-site layout."""
    site = layout[0]
    return ham_sum(
        seq(Atom(layout, ((0, LadderKind.CREATE),)),
            Atom(layout, ((1, LadderKind.ANNIHILATE),))),
        seq(Atom(layout, ((1, LadderKind.CREATE),)),
            Atom(layout, ((0, LadderKind.ANNIHILATE),))))


def form_matrix(form):
    """The matrix of a canonical form, built from its units.

    Each term is its coefficient times its units applied site-ascending;
    an off-diagonal unit on a fermionic site stands behind the Z of every
    fermionic site before it, as a single ladder does.
    """
    dims = [site_dim(site) for site in form.layout]
    fermionic = [isinstance(site, Fermion) for site in form.layout]
    out = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for term in form.terms:
        m = term.coeff * np.eye(len(out))
        for s, (row, col) in term.units:
            unit = np.zeros((dims[s], dims[s]), dtype=complex)
            unit[row, col] = 1
            if fermionic[s] and row != col:
                m = oracle.jw_embedded(unit, s, dims, fermionic) @ m
            else:
                m = oracle.embedded(unit, s, dims) @ m
        out += m
    return out


# ---------------------------------------------------------------------------
# dag: the canonical form of dagger(e)
# ---------------------------------------------------------------------------

def same_form(a, b):
    return canonical_allclose(canonicalize(a), canonicalize(b))


def test_dagger_distributes_over_tensor():
    e = dagger(tensor(create(T2), annihilate(T2)))
    assert same_form(e, tensor(annihilate(T2), create(T2)))
    # two fermion-odd factors trade places under the adjoint: a minus sign
    e = dagger(tensor(create(F), create(F, 2j)))
    assert not same_form(e, tensor(annihilate(F), annihilate(F, -2j)))
    assert same_form(e, tensor(annihilate(F, -1), annihilate(F, -2j)))


def test_dagger_reverses_seq():
    e = dagger(seq(create(T2), annihilate(T2)))
    assert same_form(e, seq(create(T2), annihilate(T2)))
    e2 = dagger(seq(annihilate(T2), annihilate(T2, 2.0)))
    assert same_form(e2, seq(create(T2, 2.0), create(T2)))
    assert not same_form(e2, seq(create(T2, 2.0), annihilate(T2)))


def test_dagger_is_involutive():
    e = dagger(dagger(annihilate(T2, 1 + 2j)))
    assert same_form(e, annihilate(T2, 1 + 2j))


def test_dagger_conjugates_amplitudes():
    assert same_form(dagger(annihilate(T2, 2j)), create(T2, -2j))
    assert same_form(dagger(identity(T2, 1j)), identity(T2, -1j))
    assert not same_form(dagger(identity(T2, 1j)), identity(T2, 1j))


def test_dagger_and_its_canonical_form_match_the_adjoint_matrix():
    # the tree lowering of dagger(e), the form of dagger(e) and the adjoint
    # of the form of e all give the conjugate transpose
    rng = np.random.default_rng(7)
    for layout in [(T2, T4), (F, T2, F)]:
        for _ in range(25):
            e = _random_expr(rng, layout, depth=3)
            want = expr_to_matrix(e).conj().T
            assert oracle.max_norm(form_matrix(canonicalize(dagger(e))),
                                   want) < 1e-12
            assert oracle.max_norm(form_matrix(adjoint(canonicalize(e))),
                                   want) < 1e-12
            assert oracle.max_norm(expr_to_matrix(dagger(e)), want) < 1e-12


def test_dagger_of_fermionic_tensor_is_the_graded_adjoint():
    t = tensor(create(F), create(F))
    # t applies adag at site 0, then adag at site 1 behind its Z string
    m = (oracle.jw_ladder("create", 1, 2)
         @ oracle.jw_ladder("create", 0, 2))
    assert oracle.max_norm(expr_to_matrix(t), m) == 0
    assert oracle.max_norm(expr_to_matrix(dagger(t)), m.conj().T) == 0
    h = ham_sum(t, dagger(t))
    mh = expr_to_matrix(h)
    assert oracle.max_norm(mh, m + m.conj().T) == 0
    ok, _ = hermiticity_report(h)
    assert ok == (oracle.max_norm(mh, mh.conj().T) < 1e-10)
    assert ok


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_dagger_of_a_fermionic_atom_takes_the_reversal_sign(f):
    # f creators in one atom: the adjoint's annihilators apply
    # site-ascending too, so the amplitude takes (-1)^(f(f-1)/2)
    t = tensor(create(F, 0.3 + 0.4j), *(create(F) for _ in range(f - 1)))
    assert isinstance(t, Atom)
    m = (0.3 + 0.4j) * np.eye(2 ** f)
    for j in range(f):
        m = oracle.jw_ladder("create", j, f) @ m
    assert oracle.max_norm(expr_to_matrix(t), m) < 1e-12
    d = dagger(t)
    assert isinstance(d, Atom)
    assert oracle.max_norm(expr_to_matrix(d), m.conj().T) < 1e-12


def _random_expr(rng, layout, depth):
    """Random well-typed expression; on fermionic sites only indexed
    atoms of one ladder are generated (the indexed-operator class)."""
    if depth == 0 or rng.random() < 0.35:
        j = int(rng.integers(len(layout)))
        amp = complex(rng.normal(), rng.normal())
        kind = LadderKind.CREATE if rng.random() < 0.5 else LadderKind.ANNIHILATE
        return Atom(layout, () if rng.random() < 0.2 else ((j, kind),), amp)
    r = rng.random()
    if r < 0.4:
        return ham_sum(_random_expr(rng, layout, depth - 1),
                       _random_expr(rng, layout, depth - 1))
    if r < 0.8:
        return seq(_random_expr(rng, layout, depth - 1),
                   _random_expr(rng, layout, depth - 1))
    return dagger(_random_expr(rng, layout, depth - 1))


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_fuses_padded_product():
    # adag(0) a(1) on t(4) sites: three units at each site, nine products
    layout = (T4, T4)
    e = seq(Atom(layout, ((0, LadderKind.CREATE),)),
            Atom(layout, ((1, LadderKind.ANNIHILATE),)))
    form = canonicalize(e)
    assert [term.units for term in form.terms] == [
        ((0, (m + 1, m)), (1, (k, k + 1))) for m in range(3) for k in range(3)]
    assert [term.coeff for term in form.terms] == pytest.approx(
        [math.sqrt((m + 1) * (k + 1)) for m in range(3) for k in range(3)])


def test_canonicalize_merges_like_terms():
    e = ham_sum(annihilate(T2), annihilate(T2))
    form = canonicalize(e)
    assert len(form.terms) == 1
    assert form.terms[0].coeff == pytest.approx(2)


def test_canonicalize_cancels_to_zero():
    e = ham_sum(annihilate(T2), annihilate(T2, -1))
    assert canonicalize(e).terms == ()


@given(st.one_of(graded_trees(), trees))
def test_the_form_is_the_expression_matrix(e):
    assert oracle.max_norm(form_matrix(canonicalize(e)),
                           expr_to_matrix(e)) < 1e-10


@pytest.mark.parametrize("site", ["t(2)", "F"])
def test_one_operator_has_one_form(site):
    # a adag = 1 - adag a on a two-level site
    a, b = (canonicalize(parse(f"sites {site};\nH = {body};\n").defs["H"])
            for body in ("a(0) adag(0)", "I(0) - adag(0) a(0)"))
    assert canonical_allclose(a, b)


def test_canonicalize_fermion_reorder_tracks_sign():
    # a^dag(0) a(1) on fermions: application order puts site 1 first, so
    # normal ordering swaps two odd operators
    layout = (F, F)
    e = seq(Atom(layout, ((0, LadderKind.CREATE),)),
            Atom(layout, ((1, LadderKind.ANNIHILATE),)))
    form = canonicalize(e)
    assert len(form.terms) == 1
    assert form.terms[0].coeff == pytest.approx(-1)
    assert form.terms[0].units == ((0, (1, 0)), (1, (0, 1)))


# ---------------------------------------------------------------------------
# is_hermitian
# ---------------------------------------------------------------------------

def test_x_combination_is_hermitian():
    ok, form = hermiticity_report(ham_sum(create(T2), annihilate(T2)))
    assert ok
    assert form == canonicalize(ham_sum(create(T2), annihilate(T2)))


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


def dense_hermitian(e):
    m = expr_to_matrix(e)
    return oracle.max_norm(m, m.conj().T) < 1e-10


@given(graded_trees(), st.booleans())
def test_certificate_agrees_with_the_dense_oracle_on_graded_trees(e, twice):
    # e + dag(e) is Hermitian however it is written
    if twice:
        e = ham_sum(e, dagger(e))
    assert is_hermitian(e) == dense_hermitian(e)


SITES = {"F": 2, "t(2)": 2, "t(3)": 3, "t(4)": 4}


@st.composite
def parsed_definitions(draw):
    """A parsed definition of total dimension at most 1024 that uses I(j)
    and, on two-level sites, X/Y/Z.  Half are written A + dag(A); some add
    i (a(j) adag(j) + adag(j) a(j) - I(j)), which is zero exactly on the
    two-level sites, so only a complete certificate calls the sum
    Hermitian there and not elsewhere."""
    sites = draw(st.lists(st.sampled_from(sorted(SITES)), min_size=1,
                          max_size=6).filter(
        lambda s: math.prod(SITES[x] for x in s) <= 1024))
    dims = [SITES[x] for x in sites]
    index = st.integers(0, len(dims) - 1).map(lambda j: (str(j), j))
    body = draw(expr_text(dims, index, 2))
    if draw(st.booleans()):
        body = f"{body} + dag({body})"
    for j in draw(st.lists(st.integers(0, len(dims) - 1), max_size=2)):
        body += f" + 1i * (a({j}) adag({j}) + adag({j}) a({j}) - I({j}))"
    return parse(f"sites {', '.join(sites)};\nH = {body};\n").defs["H"]


@settings(max_examples=150)
@given(parsed_definitions())
def test_certificate_agrees_with_the_dense_oracle_on_programs(e):
    assert is_hermitian(e) == dense_hermitian(e)


@pytest.mark.parametrize("site, zero", [
    ("t(2)", "a(0) adag(0) + adag(0) a(0) - I(0)"),
    ("F", "a(0) adag(0) + adag(0) a(0) - I(0)"),
    # diag(2, 0, 0), diag(1, 2, 0) and diag(0, 1, 2) on t(3)
    ("t(3)", "0.75 * a(0) a(0) adag(0) adag(0) + 0.5 * a(0) adag(0)"
             " + adag(0) a(0) - 2 * I(0)"),
])
def test_a_ladder_spelling_of_zero_adds_no_imaginary_part(site, zero):
    e = parse(f"sites {site};\nH = adag(0) a(0) + 1i * ({zero});\n"
              ).defs["H"]
    form = canonicalize(e)
    # the zero leaves no unit behind
    number = canonicalize(parse(f"sites {site};\nH = adag(0) a(0);\n"
                                ).defs["H"])
    assert canonical_allclose(form, number)
    assert hermiticity_report(e) == (True, form)


@pytest.mark.parametrize("dim", [24, 32, 64])
def test_the_top_level_of_a_large_site_counts(dim):
    # a adag - adag a - 1 is zero below the top level and -dim on it, so
    # i times it is not Hermitian; no coefficient is small enough to drop
    e = parse(f"sites t({dim});\n"
              "H = 1i * (a(0) adag(0) - adag(0) a(0) - I(0));\n").defs["H"]
    assert not hermiticity_report(e)[0]
    assert typecheck(e).flag is Flag.P


def test_a_weight_past_the_float_range_compares_equal_to_nothing():
    # adag^171 on t(200) has weights above 1e308
    e = parse("sites t(200);\nH = " + "adag(0) " * 171 + ";\n").defs["H"]
    assert not hermiticity_report(e)[0]


def test_a_nan_coefficient_stays_in_the_form():
    # adag^171 n(0) is finite and not Hermitian, but every unit weight of
    # both words is inf, so every coefficient is inf - inf = nan
    raised = "adag(0) " * 171
    e = parse(f"sites t(200);\nH = {raised}a(0) adag(0) - {raised};\n"
              ).defs["H"]
    hermitian, form = hermiticity_report(e)
    assert form.terms and all(math.isnan(abs(t.coeff)) for t in form.terms)
    assert not hermitian
    assert typecheck(e).flag is Flag.P


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_the_form_of_a_hopping_term_grows_as_the_square_of_the_dimension(
        dim):
    # adag(0) a(1) is sum_{m, n} w |m+1><m| (x) |n-1><n|: (dim - 1)^2 units
    # per direction, where the ladder product was one term
    hermitian, form = hermiticity_report(hop((Boson(dim),) * 2))
    assert hermitian
    assert len(form.terms) == 2 * (dim - 1) ** 2


@pytest.mark.parametrize("im, hermitian", [
    ("1e-13i", True), ("1e-11i", False), ("1e-9i", False)])
def test_the_certificate_tolerance_is_the_coefficient_tolerance(im,
                                                                hermitian):
    # Z(0) (1 + im) is Hermitian only when 2 |im| <= COEFF_EQ_TOL
    e = parse(f"sites t(2);\nH = Z(0) + {im} * Z(0);\n").defs["H"]
    assert hermiticity_report(e)[0] == hermitian


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
    # the product raises as it is built, before anything can type it
    with pytest.raises(LayoutError) as err:
        seq(annihilate(T2), tensor(annihilate(T2), identity(T2)))
    assert err.value.left == (T2,)
    assert err.value.right == (T2, T2)


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
    # the innermost node whose children disagree raises as it is built, at
    # its own root, so no enclosing node is ever reached
    with pytest.raises(LayoutError) as err:
        Sum(ok, dagger(Sum(ok, Seq(ok, tensor(create(f), identity(b))))))
    assert str(err.value).startswith("seq branches")
    assert err.value.path == "root"
    assert err.value.left == (b, b)
    assert err.value.right == (f, b)
    # a malformed tensor operand raises when the operand is built
    with pytest.raises(LayoutError) as err:
        tensor(create(b), Sum(identity(b), identity(f)))
    assert err.value.path == "root"
    assert err.value.left == (b,)
    assert err.value.right == (f,)


def recursive_flag(e):
    """The structural flag rule, one recursion per node."""
    if isinstance(e, Atom):
        if e.ops:
            return Flag.P
        return Flag.H if abs(e.amp.imag) <= 1e-12 else Flag.P
    flags = {recursive_flag(c) for c in e.children}
    return Flag.P if Flag.P in flags else Flag.H


@given(trees)
def test_structural_type_matches_layout_and_recursive_flag(e):
    ty = typecheck(e, promote=False)
    assert ty.sites == e.layout
    assert ty.flag is recursive_flag(e)


@given(graded_trees())
def test_flipped_terms_are_the_terms_of_the_normalized_adjoint(e):
    # the adjoint computed from the form's terms is the form of dagger(e),
    # whose terms are the flipped terms of e
    form = canonicalize(e)
    assert canonical_allclose(adjoint(form), canonicalize(dagger(e)))
    assert canonical_allclose(adjoint(adjoint(form)), form)
