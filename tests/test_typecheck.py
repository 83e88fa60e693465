import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qblue.errors import LayoutError
from qblue.expr import (
    Atom, Boson, Fermion, Flag, OpType, Seq, Sum, dagger, ham_sum, scale,
    seq, site_dim,
)
from qblue.fock import apply, make_state
from qblue.parser import parse
from qblue.typecheck import (
    adjoint, canonical_allclose, canonicalize, hermiticity_report, typecheck,
)

import oracle
from helpers import expr_to_matrix, op, parsed
from strategies import GRADED, layouts, on, program_text, programs

T2 = Boson(2)
F = Fermion()

trees = programs()
graded_trees = programs(GRADED, max_dim=81)


def hop(site):
    """a^dag(0) a(1) + a^dag(1) a(0) over two sites of one type."""
    return op(f"{site}, {site}", "adag(0) a(1) + adag(1) a(0)")


def form_matrix(form):
    """The matrix of a canonical form, built from its units.

    Each term is its coefficient times its units applied site-ascending;
    an off-diagonal unit on a fermionic site stands behind the Z of every
    fermionic site before it, as a single ladder does.
    """
    dims = [site_dim(site) for site in form.layout]
    fermionic = [isinstance(site, Fermion) for site in form.layout]
    out = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for units, coeff in form.terms.items():
        m = coeff * np.eye(len(out))
        for s, (row, col) in units:
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
    # a product on different sites is their tensor product
    e = dagger(op("t(2), t(2)", "a(1) adag(0)"))
    assert same_form(e, op("t(2), t(2)", "adag(1) a(0)"))
    # two fermion-odd factors trade places under the adjoint: a minus sign
    e = dagger(op("F, F", "2i * adag(1) adag(0)"))
    assert not same_form(e, op("F, F", "-2i * a(1) a(0)"))
    assert same_form(e, op("F, F", "2i * a(1) a(0)"))


def test_dagger_reverses_seq():
    e = dagger(op("t(2)", "adag(0) a(0)"))
    assert same_form(e, op("t(2)", "adag(0) a(0)"))
    e2 = dagger(op("t(2)", "a(0) 2 * a(0)"))
    assert same_form(e2, op("t(2)", "2 * adag(0) adag(0)"))
    assert not same_form(e2, op("t(2)", "2 * adag(0) a(0)"))


def test_dagger_is_involutive():
    e = dagger(dagger(op("t(2)", "(1+2i) * a(0)")))
    assert same_form(e, op("t(2)", "(1+2i) * a(0)"))


def test_dagger_conjugates_amplitudes():
    assert same_form(dagger(op("t(2)", "2i * a(0)")),
                     op("t(2)", "-2i * adag(0)"))
    assert same_form(dagger(op("t(2)", "1i * I(0)")), op("t(2)", "-1i * I(0)"))
    assert not same_form(dagger(op("t(2)", "1i * I(0)")),
                         op("t(2)", "1i * I(0)"))


@given(programs(("t(4)", "F/t(2)", "mixed"), max_dim=32))
def test_dagger_and_its_canonical_form_match_the_adjoint_matrix(drawn):
    # the tree lowering of dagger(e), the form of dagger(e) and the adjoint
    # of the form of e all give the conjugate transpose of the text's matrix
    e = parsed(drawn)
    want = drawn.matrix.conj().T
    tol = drawn.tolerance
    assert oracle.max_norm(form_matrix(canonicalize(dagger(e))), want) <= tol
    assert oracle.max_norm(form_matrix(adjoint(canonicalize(e))), want) <= tol
    assert oracle.max_norm(expr_to_matrix(dagger(e)), want) <= tol


def test_dagger_of_fermionic_tensor_is_the_graded_adjoint():
    t = op("F, F", "adag(1) adag(0)")
    # t applies adag at site 0, then adag at site 1 behind its Z string
    m = (oracle.jw_ladder("create", 1, 2)
         @ oracle.jw_ladder("create", 0, 2))
    assert oracle.max_norm(expr_to_matrix(t), m) == 0
    assert oracle.max_norm(expr_to_matrix(dagger(t)), m.conj().T) == 0
    h = op("F, F", "adag(1) adag(0) + dag(adag(1) adag(0))")
    mh = expr_to_matrix(h)
    assert oracle.max_norm(mh, m + m.conj().T) == 0
    ok, _ = hermiticity_report(h)
    assert ok == (oracle.max_norm(mh, mh.conj().T) < 1e-10)
    assert ok


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_dagger_of_a_fermionic_product_takes_the_reversal_sign(f):
    # f creators, the last applied first: the adjoint's annihilators apply
    # in the other order, so putting them back in site order takes
    # (-1)^(f(f-1)/2), from reversing the product and from normal ordering
    e = op(", ".join(["F"] * f), "(0.3+0.4i) * " + " ".join(
        f"adag({j})" for j in range(f)))
    m = (0.3 + 0.4j) * np.eye(2 ** f)
    for j in reversed(range(f)):
        m = oracle.jw_ladder("create", j, f) @ m
    assert oracle.max_norm(expr_to_matrix(e), m) < 1e-12
    want = m.conj().T
    assert oracle.max_norm(expr_to_matrix(dagger(e)), want) < 1e-12
    assert oracle.max_norm(form_matrix(canonicalize(dagger(e))), want) < 1e-12
    assert oracle.max_norm(form_matrix(adjoint(canonicalize(e))), want) < 1e-12


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_fuses_padded_product():
    # adag(0) a(1) on t(4) sites: three units at each site, nine products
    e = op("t(4), t(4)", "adag(0) a(1)")
    form = canonicalize(e)
    assert list(form.terms) == [
        ((0, (m + 1, m)), (1, (k, k + 1))) for m in range(3) for k in range(3)]
    assert list(form.terms.values()) == pytest.approx(
        [math.sqrt((m + 1) * (k + 1)) for m in range(3) for k in range(3)])


def test_canonicalize_merges_like_terms():
    e = op("t(2)", "a(0) + a(0)")
    form = canonicalize(e)
    assert len(form.terms) == 1
    assert list(form.terms.values()) == [pytest.approx(2)]


def test_canonicalize_cancels_to_zero():
    e = op("t(2)", "a(0) - a(0)")
    assert canonicalize(e).terms == {}


def test_a_term_drops_against_its_own_magnitudes():
    # the X(0) terms cancel to a residue of 5.6e-17; 1e-20 X(1) is exact
    e = parse("sites t(2), t(2);\nH = 0.1 * X(0) + 0.2 * X(0) - 0.3 * X(0)"
              " + 1e-20 * X(1);\n").defs["H"]
    form = canonicalize(e)
    assert list(form.terms) == [((1, (0, 1)),), ((1, (1, 0)),)]
    assert form.mags == {units: 1e-20 for units in form.terms}


@given(trees)
def test_the_form_is_the_expression_matrix(drawn):
    assert oracle.max_norm(form_matrix(canonicalize(parsed(drawn))),
                           drawn.matrix) <= drawn.tolerance


@pytest.mark.parametrize("site", ["t(2)", "F"])
def test_one_operator_has_one_form(site):
    # a adag = 1 - adag a on a two-level site
    a, b = (canonicalize(parse(f"sites {site};\nH = {body};\n").defs["H"])
            for body in ("a(0) adag(0)", "I(0) - adag(0) a(0)"))
    assert canonical_allclose(a, b)


def test_canonicalize_fermion_reorder_tracks_sign():
    # a^dag(0) a(1) on fermions: application order puts site 1 first, so
    # normal ordering swaps two odd operators
    e = op("F, F", "adag(0) a(1)")
    form = canonicalize(e)
    assert len(form.terms) == 1
    assert form.terms[((0, (1, 0)), (1, (0, 1)))] == pytest.approx(-1)


# ---------------------------------------------------------------------------
# hermiticity_report
# ---------------------------------------------------------------------------

def test_x_combination_is_hermitian():
    ok, form = hermiticity_report(op("t(2)", "adag(0) + a(0)"))
    assert ok
    assert form == canonicalize(op("t(2)", "adag(0) + a(0)"))


def test_bare_annihilator_is_not_hermitian():
    ok, _ = hermiticity_report(op("t(2)", "a(0)"))
    assert not ok


def test_y_combination_is_hermitian():
    e = op("t(2)", "1i * a(0) - 1i * adag(0)")
    assert hermiticity_report(e)[0]


def oracle_hermitian(m):
    return oracle.max_norm(m, m.conj().T) < 1e-10


@given(trees, st.booleans())
def test_certificate_agrees_with_matrix_check(drawn, twice):
    # A + dag(A) is Hermitian however A is written
    if twice:
        drawn = drawn + drawn.adjoint()
    hermitian = hermiticity_report(parsed(drawn))[0]
    assert hermitian == oracle_hermitian(drawn.matrix)


def dense_hermitian(e):
    return oracle_hermitian(expr_to_matrix(e))


@given(graded_trees, st.booleans())
def test_certificate_agrees_with_the_dense_oracle_on_graded_trees(drawn,
                                                                 twice):
    e = parsed(drawn)
    if twice:
        e = ham_sum(e, dagger(e))
    assert hermiticity_report(e)[0] == dense_hermitian(e)


@st.composite
def parsed_definitions(draw):
    """A parsed definition of total dimension at most 1024.  Half are
    written A + dag(A); some add i (a(j) adag(j) + adag(j) a(j) - I(j)),
    which is zero exactly on the two-level sites, so only a complete
    certificate calls the sum Hermitian there and not elsewhere."""
    sites = draw(layouts(("mixed",), max_dim=1024))
    drawn = draw(on(sites))
    if draw(st.booleans()):
        drawn = drawn + drawn.adjoint()
    body = drawn.body
    for j in draw(st.lists(st.integers(0, len(sites) - 1), max_size=2)):
        body += f" + 1i * (a({j}) adag({j}) + adag({j}) a({j}) - I({j}))"
    return parse(program_text(sites, body)).defs["H"]


# 150 examples in tier-1, more under a deeper profile (conftest.py)
@settings(max_examples=max(150, settings.default.max_examples))
@given(parsed_definitions())
def test_certificate_agrees_with_the_dense_oracle_on_programs(e):
    assert hermiticity_report(e)[0] == dense_hermitian(e)


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
    assert typecheck(e)[0].flag is Flag.P


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
    assert form.terms and all(math.isnan(abs(c))
                              for c in form.terms.values())
    assert not hermitian
    assert typecheck(e)[0].flag is Flag.P


def test_unit_products_cache_one_expansion_per_dimension():
    # a unit product is |m><q| from the indices alone; only |0><0| = I -
    # sum_k |k><k| is kept, once per dimension, so the cache does not grow
    # with the units a program meets
    typecheck_module = importlib.import_module("qblue.typecheck")
    typecheck_module._zero_projector.cache_clear()
    raised = "adag(0) " * 171
    canonicalize(parse(f"sites t(200);\nH = {raised}a(0) adag(0) - "
                       f"{raised};\n").defs["H"])
    assert typecheck_module._zero_projector.cache_info().currsize <= 1


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_the_form_of_a_hopping_term_grows_as_the_square_of_the_dimension(
        dim):
    # adag(0) a(1) is sum_{m, n} w |m+1><m| (x) |n-1><n|: (dim - 1)^2 units
    # per direction, where the ladder product was one term
    hermitian, form = hermiticity_report(hop(f"t({dim})"))
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
    ty, _ = typecheck(op("t(2)", "a(0)"))
    assert ty.flag is Flag.P
    assert ty.sites == (T2,)


def test_number_combo_types_h():
    e = op("t(2)", "adag(0) a(0) + a(0) adag(0)")
    ty, _ = typecheck(e)
    assert ty.flag is Flag.H
    m = expr_to_matrix(e)
    assert oracle.max_norm(m, np.eye(2)) < 1e-12


def test_hubbard_hopping_types_h():
    ty, _ = typecheck(hop("t(2)"))
    assert ty.flag is Flag.H
    assert ty.sites == (T2, T2)


def test_identity_types_h_but_complex_identity_p():
    assert typecheck(op("t(2)", "I(0)")) == (OpType(Flag.H, (T2,)),
                                             "structural")
    # the structural walk gives p, so the certificate decides, and says p
    assert typecheck(op("t(2)", "1i * I(0)")) == (OpType(Flag.P, (T2,)),
                                                  "certificate")


def test_seq_layout_mismatch_is_reported():
    # the product raises as it is built, before anything can type it
    with pytest.raises(LayoutError) as err:
        seq(op("t(2)", "a(0)"), op("t(2), t(2)", "a(0)"))
    assert err.value.left == (T2,)
    assert err.value.right == (T2, T2)


@given(trees)
def test_flag_soundness_on_random_expressions(drawn):
    if typecheck(parsed(drawn))[0].flag is Flag.H:
        assert oracle_hermitian(drawn.matrix)


def test_weakening_does_not_break_enclosing_typeability():
    # An H-flagged identity inside any context types fine at P as well
    e = op("t(2)", "I(0) a(0)")
    ty, decided_by = typecheck(e)
    assert ty.flag is Flag.P
    assert decided_by == "certificate"


def test_layout_error_paths():
    b, f = Boson(2), Fermion()
    ok = op("t(2), t(2)", "adag(0)")
    # the innermost node whose children disagree raises as it is built, at
    # its own root, so no enclosing node is ever reached
    with pytest.raises(LayoutError) as err:
        Sum(ok, dagger(Sum(ok, Seq(ok, op("F, t(2)", "adag(0)")))))
    assert str(err.value).startswith("seq branches")
    assert err.value.path == "root"
    assert err.value.left == (b, b)
    assert err.value.right == (f, b)
    # so does a sum of one-site operators on different site types
    with pytest.raises(LayoutError) as err:
        Sum(op("t(2)", "I(0)"), op("F", "I(0)"))
    assert err.value.path == "root"
    assert err.value.left == (b,)
    assert err.value.right == (f,)


def recursive_flag(e):
    """The structural flag rule, one recursion per node."""
    if isinstance(e, Atom):
        if e.ladder:
            return Flag.P
        return Flag.H if abs(e.amp.imag) <= 1e-12 else Flag.P
    flags = {recursive_flag(c) for c in e.children}
    return Flag.P if Flag.P in flags else Flag.H


@given(trees)
def test_structural_type_matches_layout_and_recursive_flag(drawn):
    e = parsed(drawn)
    ty, decided_by = typecheck(e)
    assert ty.sites == e.layout
    # the structural flag is h exactly when the structural walk decides
    assert (decided_by == "structural") == (recursive_flag(e) is Flag.H)
    if decided_by == "structural":
        assert ty.flag is Flag.H


@given(graded_trees)
def test_flipped_terms_are_the_terms_of_the_normalized_adjoint(drawn):
    # the adjoint computed from the form's terms is the form of dagger(e),
    # whose terms are the flipped terms of e
    e = parsed(drawn)
    form = canonicalize(e)
    assert canonical_allclose(adjoint(form), canonicalize(dagger(e)))
    assert canonical_allclose(adjoint(adjoint(form)), form)


@given(trees, st.sampled_from([2.0 ** -70, 2.0 ** 70]))
def test_the_verdict_the_form_and_eval_do_not_depend_on_scale(drawn, c):
    # a power of two scales every float exactly, so c e must get the flag,
    # the form keys and the kets of e
    e = parsed(drawn)
    scaled = scale(c, e)
    assert typecheck(scaled)[0].flag is typecheck(e)[0].flag
    assert canonicalize(scaled).terms.keys() == canonicalize(e).terms.keys()
    occs = itertools.product(*(range(site_dim(s)) for s in e.layout))
    state = make_state(e.layout, [(1 + k, occ) for k, occ in enumerate(occs)])
    assert [(k.occ, k.amp) for k in apply(scaled, state).terms] == [
        (k.occ, c * k.amp) for k in apply(e, state).terms]
