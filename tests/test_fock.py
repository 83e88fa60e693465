import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import ZERO_TOL, LayoutError, ParseError, negligible
from qblue.expr import (
    Atom, Boson, Fermion, LadderKind, Seq, Sum, dagger, site_dim,
)
from qblue import fock
from qblue.fock import apply, format_state, make_state, parse_state
from qblue.parser import parse

import oracle
from helpers import basis_ket, expr_to_matrix, op, parsed, state_to_vector
from strategies import GRADED, layouts, on, programs

T2 = Boson(2)
T4 = Boson(4)
F = Fermion()


# ---------------------------------------------------------------------------
# Ladder semantics: one-atom programs on one site
# ---------------------------------------------------------------------------

def ladder(kind, site, k):
    """(coeff, k') of the ladder adag(0) or a(0) applied to |k> on one
    site, or None where it gives the zero state."""
    name = "adag" if kind == LadderKind.CREATE else "a"
    out = apply(op(str(site), f"{name}(0)"), basis_ket((site,), (k,)))
    if out.is_zero:
        return None
    [ket] = out.terms
    assert ket.amp.imag == 0.0
    return ket.amp.real, ket.occ[0]


def test_create_raises_with_sqrt_factor():
    coeff, k = ladder(LadderKind.CREATE, T4, 1)
    assert coeff == pytest.approx(math.sqrt(2))
    assert k == 2


def test_annihilate_vacuum_vanishes():
    assert ladder(LadderKind.ANNIHILATE, T4, 0) is None


def test_create_at_top_occupation_vanishes():
    assert ladder(LadderKind.CREATE, T2, 1) is None
    assert ladder(LadderKind.CREATE, T4, 3) is None


def test_fermion_ladder_factors_are_one():
    assert ladder(LadderKind.CREATE, F, 0) == (1.0, 1)
    assert ladder(LadderKind.ANNIHILATE, F, 1) == (1.0, 0)
    assert ladder(LadderKind.CREATE, F, 1) is None
    assert ladder(LadderKind.ANNIHILATE, F, 0) is None


def test_ladder_semantics_exhaustive_small_dims():
    for m in range(1, 9):
        site = Boson(m)
        for k in range(m):
            up = ladder(LadderKind.CREATE, site, k)
            dn = ladder(LadderKind.ANNIHILATE, site, k)
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
    e = op("t(4), t(4)", "adag(0) a(1)")
    s = basis_ket((T4, T4), (1, 1))
    out = apply(e, s)
    assert len(out.terms) == 1
    assert out.terms[0].occ == (2, 0)
    assert out.terms[0].amp == pytest.approx(math.sqrt(2))


def test_apply_sum_branches():
    e = op("t(4)", "a(0) + adag(0)")
    out = apply(e, basis_ket((T4,), (1,)))
    assert [(k.occ, k.amp) for k in out.terms] == [
        ((0,), pytest.approx(1.0)),
        ((2,), pytest.approx(math.sqrt(2))),
    ]


def test_apply_to_zero_state_absorbs():
    e = op("t(2)", "adag(0) + a(0)")
    out = apply(e, make_state((T2,), []))
    assert out.is_zero


def test_apply_seq_right_operand_first():
    e = op("t(2)", "adag(0) a(0)")  # a^dag a = occupation count
    assert apply(e, basis_ket((T2,), (1,))).terms[0].amp == pytest.approx(1)
    assert apply(e, basis_ket((T2,), (0,))).is_zero


def test_apply_layout_mismatch():
    with pytest.raises(LayoutError):
        apply(op("t(2)", "a(0)"), basis_ket((T2, T2), (0, 0)))


def test_apply_is_linear():
    rng = np.random.default_rng(2)
    layout = (T4, T2)
    e = op("t(4), t(2)", "adag(0) a(1) + a(0)")
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
    e = op("t(4), t(4)", "adag(0) a(1) + adag(1) a(0)")
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


def test_apply_walks_a_product_of_sums_without_multiplying_it_out():
    # six sums of the 40 number terms adag(j) a(j): multiplied out, the
    # product has 40^6 (about 4e9) terms, while the tree walk applies each
    # sum once to the merged state, 240 number terms in all
    n = 40
    number = f"(sum j in 0..{n - 1} {{ adag(j) a(j) }})"
    program = parse("sites " + ", ".join(["t(2)"] * n) + ";\n"
                    f"H = {' '.join([number] * 6)};\n")
    occ = tuple(int(j % 3 == 0) for j in range(n))
    out = apply(program.defs["H"], basis_ket(program.layout, occ))
    # the total number operator gives |occ> its 14 occupied sites
    assert [(k.amp, k.occ) for k in out.terms] == [(14.0 ** 6, occ)]


@st.composite
def operators(draw):
    """A drawn program over F, t(2) and t(3) sites, with an adjoint at the
    root or as the first-applied factor of a product, or neither."""
    sites = draw(layouts(("F/t(2)", "F/t(3)"), max_dim=27))
    drawn = draw(on(sites))
    shape = draw(st.sampled_from(["plain", "dag", "seq"]))
    if shape == "dag":
        return drawn.adjoint()
    if shape == "seq":
        return drawn @ draw(on(sites, depth=1)).adjoint()
    return drawn


@given(operators())
def test_apply_matches_matrix_columns(drawn):
    e = parsed(drawn)
    layout = e.layout
    m = expr_to_matrix(e)
    tol = 1e-12 * max(1.0, abs(m).max())
    occs = itertools.product(*(range(site_dim(site)) for site in layout))
    for col, occ in enumerate(occs):
        got = state_to_vector(apply(e, basis_ket(layout, occ)))
        assert oracle.max_norm(got, m[:, col]) <= tol


@given(programs(GRADED, max_dim=81))
def test_apply_of_dagger_gives_the_conjugate_transpose(drawn):
    e = parsed(drawn)
    layout = e.layout
    want = expr_to_matrix(e).conj().T
    occs = itertools.product(*(range(site_dim(site)) for site in layout))
    for col, occ in enumerate(occs):
        got = state_to_vector(apply(dagger(e), basis_ket(layout, occ)))
        assert oracle.max_norm(got, want[:, col]) <= 1e-12


# ---------------------------------------------------------------------------
# Packed kets: fields with unused codes, wide layouts, parity masks
# ---------------------------------------------------------------------------

def reference_apply(e, s):
    """occ -> (amp, mag) of e applied to s, each ket keyed by its occupation
    tuple, in the arithmetic order of ``apply``: a ladder moves its site's
    occupation k to k' inside 0..d-1 with weight sqrt(max(k, k')), a
    fermionic one times (-1)^(occupied fermionic sites before it); a sum
    adds its children into one accumulator and a product applies its last
    child first, its atoms at unit amplitude, their amplitudes multiplied
    into the scalar z that its first child applies with."""
    layout = e.layout

    def act(node, state, out, z=1, w=1.0):
        if isinstance(node, Sum):
            for c in node.children:
                act(c, state, out, z, w)
            return
        if isinstance(node, Seq):
            for c in reversed(node.children[1:]):
                mid = {}
                if isinstance(c, Atom):
                    z, w = z * c.amp, w * abs(c.amp)
                    act(Atom(c.layout, c.ladder), state, mid)
                else:
                    act(c, state, mid)
                state = mid
            act(node.children[0], state, out, z, w)
            return
        z, w = z * node.amp, w * abs(node.amp)
        for occ, (amp, mag) in state.items():
            val, mag = amp * z, mag * w
            if node.ladder is not None:
                j, kind = node.ladder
                k = occ[j] + kind
                if not 0 <= k < site_dim(layout[j]):
                    continue
                c = math.sqrt(max(occ[j], k))
                mag *= c
                before = [o for o, site in zip(occ[:j], layout)
                          if isinstance(site, Fermion)]
                if isinstance(layout[j], Fermion) and sum(before) % 2:
                    c = -c
                val *= c
                occ = occ[:j] + (k,) + occ[j + 1:]
            a, m = out.get(occ, (0j, 0.0))
            out[occ] = a + val, m + mag

    out = {}
    act(e, {ket.occ: (ket.amp, abs(ket.amp)) for ket in s.terms}, out)
    return out


def assert_apply_is_the_reference(e, s):
    """apply(e, s) holds exactly the kets of reference_apply that are not
    negligible against their magnitudes."""
    want = {occ: a for occ, (a, m) in reference_apply(e, s).items()
            if not negligible(a, m, ZERO_TOL)}
    assert {ket.occ: ket.amp for ket in apply(e, s).terms} == want


@given(operators())
def test_apply_is_the_tuple_keyed_reference(drawn):
    e = parsed(drawn)
    layout = e.layout
    for occ in itertools.product(*(range(site_dim(site)) for site in layout)):
        assert_apply_is_the_reference(e, basis_ket(layout, occ))


def every_pair_body(n):
    """A hop with its own coefficient between every two of n sites, an
    on-site n(n - 1), and a three-ladder product that crosses the layout."""
    terms = [f"({0.1 * (i + 1)}+{0.05 * (j + 1)}i) * adag({i}) a({j})"
             for i in range(n) for j in range(n) if i != j]
    terms += [f"0.3 * adag({j}) adag({j}) a({j}) a({j})" for j in range(n)]
    return " + ".join(terms + [f"a(0) adag({n // 2}) a({n - 1})"])


@pytest.mark.parametrize("sites", [
    "t(1), t(3), t(5)", "t(5), t(1), t(3), t(1)",
    "t(3), F, t(5), F, t(2), F", "F, t(3), t(1), F, t(5), F",
])
def test_apply_matches_matrix_columns_on_fields_with_unused_codes(sites):
    # t(1) takes no bits, t(3) and t(5) leave codes 3 and 5..7 unused, and
    # the parity mask of an F skips the bits of the bosons before it
    e = op(sites, every_pair_body(sites.count(",") + 1))
    layout = e.layout
    m = expr_to_matrix(e)
    occs = itertools.product(*(range(site_dim(site)) for site in layout))
    for col, occ in enumerate(occs):
        s = basis_ket(layout, occ)
        assert_apply_is_the_reference(e, s)
        got = state_to_vector(apply(e, s))
        assert oracle.max_norm(got, m[:, col]) <= 1e-12 * abs(m).max()


def test_apply_on_a_layout_wider_than_64_bits_matches_the_tuple_keys():
    # 40 t(8) sites take 120 bits: the fields of sites 0..17 lie above bit
    # 63 and site 18's straddles it; one ket holds occupation 7 at both ends
    n = 40
    e = op(", ".join(["t(8)"] * n),
           f"sum j in 0..{n - 2} {{ 0.5 * adag(j) a(j+1)"
           " + 0.25i * adag(j+1) adag(j+1) a(j) }"
           f" + (sum j in 0..{n - 1} {{ adag(j) a(j) }}) a(0) adag({n - 1})")
    rng = np.random.default_rng(5)
    occs = [tuple(int(k) for k in rng.integers(0, 8, n)) for _ in range(3)]
    occs.append((7,) + occs[0][1:-1] + (7,))
    s = make_state(e.layout, [(1.0 + 0.5j * i, occ)
                              for i, occ in enumerate(occs)])
    assert len(apply(e, s).terms) > 100
    assert_apply_is_the_reference(e, s)


@pytest.mark.parametrize("occupied, sign", [
    ((2, 3, 10, 40, 68), -1), ((2, 10, 40, 68), 1)], ids=["odd", "even"])
def test_a_hop_across_70_fermions_takes_the_sign_of_those_between(
        occupied, sign):
    # a(69) applies first and passes the sites between, site 0 empty, so it
    # takes (-1)^len(occupied); adag(0) then passes no site.  Sites 2 and 3
    # sit at bits 67 and 66, above the low 64
    e = op(", ".join(["F"] * 70), "adag(0) a(69)")
    occ = [0] * 70
    for j in occupied + (69,):
        occ[j] = 1
    s = basis_ket(e.layout, occ)
    assert_apply_is_the_reference(e, s)
    occ[0], occ[69] = 1, 0
    assert [(k.amp, k.occ) for k in apply(e, s).terms] == [(sign, tuple(occ))]


# ---------------------------------------------------------------------------
# fermionic signs
# ---------------------------------------------------------------------------

def test_indexed_fermionic_op_matches_jw_matrix():
    n = 3
    layout = (F,) * n
    for j in range(n):
        e = op("F, F, F", f"a({j})")
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
            ai, cj = op("F, F, F", f"a({i})"), op("F, F, F", f"adag({j})")
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
    e = op("t(4)", "adag(0) a(0)")
    assert expectation(e, basis_ket((T4,), (2,))) == pytest.approx(2)


def test_expectation_of_z_combination_on_vacuum():
    z = op("t(2)", "adag(0) a(0) - a(0) adag(0)")
    assert expectation(z, basis_ket((T2,), (0,))) == pytest.approx(-1)


def test_expectation_of_identity_is_one():
    s = make_state((T2, T2), [(1.0, (0, 1)), (1.0, (1, 0))])
    assert expectation(op("t(2), t(2)", "I(1)"), s) == pytest.approx(1)


def test_expectation_unnormalized_state_divides_by_norm():
    e = op("t(4)", "adag(0) a(0)")
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
    with pytest.raises(ValueError, match="arity"):
        make_state((T2, T2), [(1.0, (0,))])


def test_make_state_merges_and_prunes():
    s = make_state((T2,), [(0.5, (0,)), (0.5, (0,)), (1e-16, (1,))])
    assert len(s.terms) == 1
    assert s.terms[0].amp == pytest.approx(1.0)


def test_apply_prunes_each_ket_against_the_paths_summed_into_it():
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17 in the intermediate state of the
    # product, which drops with the magnitudes it came from; 1e-20 is exact
    e = parse("sites t(2), t(2);\nH = X(0) (0.1 * X(0) + 0.2 * X(0)"
              " - 0.3 * X(0)) + 1e-20 * X(1);\n").defs["H"]
    s = apply(e, make_state(e.layout, [(1.0, (0, 0))]))
    assert [(k.occ, k.amp) for k in s.terms] == [((0, 1), 1e-20)]


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
    with pytest.raises(ParseError) as err:
        parse_state("(1,0) |0>")
    assert (err.value.line, err.value.col) == (1, 1)
    with pytest.raises(ParseError) as err:
        parse_state("sites: t(2)\n  not a ket\n")
    assert (err.value.line, err.value.col) == (2, 3)
