import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import CompileError
from qblue.encodings import encode_for_compile
from qblue.parser import parse
from qblue.pauli import PauliSum, pauli_sum, pauli_to_matrix
from qblue.typecheck import CanonicalForm, canonicalize

import oracle
from helpers import op, parsed, pauli_allclose
from strategies import programs


def encoded_matrix(e, method, level=None):
    """The encoded matrix of e, whose layout picks method at level."""
    hs, report = encode_for_compile(canonicalize(e))
    assert (report["method"], report["truncation"]) == (method, level)
    return pauli_to_matrix(hs).toarray()


@pytest.mark.parametrize("site, method", [("t(2)", "direct"), ("F", "jw")],
                         ids=["site0-direct", "site1-jw"])
@given(data=st.data())
def test_encoding_is_the_expression_matrix(site, method, data):
    drawn = data.draw(programs((site,), max_dim=16))
    got = encoded_matrix(parsed(drawn), method)
    assert oracle.max_norm(got, drawn.matrix) <= drawn.tolerance


def one_hot_indices(sites, n):
    """Qubit-basis index of every one-hot string, occupations in the row-major
    order of n+1 levels per site; qubit 0 is the most significant bit."""
    width = sites * (n + 1)
    out = []
    for occ in itertools.product(range(n + 1), repeat=sites):
        index = 0
        for k, v in enumerate(occ):
            index |= 1 << (width - 1 - (k * (n + 1) + v))
        out.append(index)
    return np.array(out)


def low_level_indices(sites, n, dim):
    """Occupation-basis index of every state with occupations 0..n on
    dim-level sites, in the order of ``one_hot_indices``."""
    return np.array([np.ravel_multi_index(occ, (dim,) * sites)
                     for occ in itertools.product(range(n + 1),
                                                  repeat=sites)])


@pytest.mark.parametrize("n, max_sites", [(1, 3), (2, 2)])
@given(data=st.data())
def test_unary_encoding_on_one_hot_strings(n, max_sites, data):
    # on the one-hot strings the encoding is the block of the expression's
    # matrix on occupations 0..n
    dim = 2 ** (n + 1)
    drawn = data.draw(programs((f"t({dim})",), max_dim=dim ** max_sites))
    sites = len(drawn.sites)
    m = encoded_matrix(parsed(drawn), "hp", n)
    idx = one_hot_indices(sites, n)
    low = low_level_indices(sites, n, dim)
    assert oracle.max_norm(m[np.ix_(idx, idx)],
                           drawn.matrix[np.ix_(low, low)]) <= drawn.tolerance
    # one-hot strings map onto one-hot strings
    rest = np.setdiff1d(np.arange(m.shape[0]), idx)
    assert oracle.max_norm(m[np.ix_(rest, idx)]) <= drawn.tolerance


def test_encoding_rejects_other_layouts():
    with pytest.raises(CompileError, match="mixed"):
        encode_for_compile(canonicalize(op("F, t(2)", "adag(0) a(1)")))


def chain_form(site, bonds, onsite=""):
    """Canonical form of sum_j t_j (adag(j) a(j+1) + adag(j+1) a(j)) plus
    the onsite term at every site, one t_j per bond."""
    n = len(bonds) + 1
    body = " + ".join(f"{t} * adag({j}) a({j + 1}) "
                      f"+ {t} * adag({j + 1}) a({j})"
                      for j, t in enumerate(bonds))
    if onsite:
        body += f" + sum j in 0..{n - 1} {{ {onsite} }}"
    return canonicalize(parse(f"sites {', '.join([site] * n)};\nH = {body};"
                              ).defs["H"])


@pytest.mark.parametrize("form, level, exact", [
    (chain_form("F", [0.7, 1.1, 0.35, 0.9], "-0.3 * adag(j) a(j)"), None,
     True),
    (chain_form("t(4)", [0.9, 0.45, 1.2], "1.3 * adag(j) adag(j) a(j) a(j)"),
     1, True),
    (chain_form("t(8)", [0.9, 0.45, 1.2], "1.3 * adag(j) adag(j) a(j) a(j)"),
     2, False),
], ids=["jw-hopping", "hp1-bose-hubbard", "hp2-bose-hubbard"])
def test_encoding_is_the_sum_of_one_term_encodings(form, level, exact):
    # terms of one shape share one product; each one-term form has its own
    whole, report = encode_for_compile(form)
    assert report["truncation"] == level
    total = PauliSum(whole.qubits, ())
    for units, coeff in form.terms.items():
        one = encode_for_compile(CanonicalForm(
            form.layout, {units: coeff}, {units: form.mags[units]}))[0]
        total = pauli_sum(total.qubits, total.terms + one.terms)
    # the shared product is exercised only when terms share a shape
    shapes = {tuple(unit for _, unit in units) for units in form.terms}
    assert len(shapes) < len(form.terms)
    if exact:
        assert whole == total
    else:
        assert pauli_allclose(whole, total)


@pytest.mark.parametrize("site, terms", [
    ("t(4)", [(0.5, "II"), (-0.5, "IZ")]),
    ("t(8)", [(1.5, "III"), (-0.5, "IZI"), (-1.0, "IIZ")]),
])
def test_a_diagonal_unit_is_a_one_qubit_projector(site, terms):
    # adag a = sum_m m |m><m|, and |m><m| is (I - Z)/2 on one-hot qubit m
    e = parse(f"sites {site};\nH = adag(0) a(0);\n").defs["H"]
    hs, _ = encode_for_compile(canonicalize(e))
    assert hs == pauli_sum(len(terms[0][1]), terms)


@pytest.mark.parametrize("site, terms", [
    ("t(4)", [(1.5, "II"), (-0.5, "IZ")]),
    ("t(8)", [(2.5, "III"), (-0.5, "IZI"), (-1.0, "IIZ")]),
])
def test_unary_encoding_keeps_the_true_low_levels(site, terms):
    # a adag = diag(1, 2, ...) on t(d): its levels 0..n, not the a adag of
    # a t(n + 1) site, whose top level would read 0
    e = parse(f"sites {site};\nH = a(0) adag(0);\n").defs["H"]
    hs, _ = encode_for_compile(canonicalize(e))
    assert hs == pauli_sum(len(terms[0][1]), terms)
