import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import EncodingError
from qblue.expr import (
    Atom, Boson, Dagger, Fermion, annihilate, create, tensor,
)
from qblue.encodings import encode_for_compile
from qblue.linalg import expr_to_matrix
from qblue.pauli import pauli_to_matrix
from qblue.typecheck import canonicalize

import oracle
from strategies import well_formed

T2 = Boson(2)
F = Fermion()


def layouts(site, max_sites):
    return st.integers(1, max_sites).map(lambda n: (site,) * n)


def encoded_matrix(e, method, level=None):
    hs, report = encode_for_compile(canonicalize(e), method, level)
    assert (report.method, report.truncation) == (method, level)
    return pauli_to_matrix(hs)


def assert_close(got, want):
    assert oracle.max_norm(got, want) <= 1e-12 * max(1.0, abs(want).max())


@pytest.mark.parametrize("site, method", [(T2, "direct"), (F, "jw")])
@given(data=st.data())
def test_encoding_is_the_expression_matrix(site, method, data):
    e = data.draw(layouts(site, 4).flatmap(well_formed))
    assert_close(encoded_matrix(e, method), expr_to_matrix(e))


def retype(e, site):
    """The same tree with every site of every atom's layout on ``site``."""
    if isinstance(e, Atom):
        return Atom((site,) * len(e.layout), e.ops, e.amp)
    if isinstance(e, Dagger):
        return Dagger(retype(e.inner, site))
    return type(e)(*(retype(c, site) for c in e.children))


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


@pytest.mark.parametrize("n, max_sites", [(1, 3), (2, 2)])
@given(data=st.data())
def test_unary_encoding_on_one_hot_strings(n, max_sites, data):
    e = data.draw(layouts(Boson(2 ** (n + 1)), max_sites).flatmap(well_formed))
    sites = len(canonicalize(e).layout)
    m = encoded_matrix(e, "hp", n)
    idx = one_hot_indices(sites, n)
    want = expr_to_matrix(retype(e, Boson(n + 1)))
    assert_close(m[np.ix_(idx, idx)], want)
    # one-hot strings map onto one-hot strings
    rest = np.setdiff1d(np.arange(m.shape[0]), idx)
    scale = max(1.0, abs(m).max())
    assert oracle.max_norm(m[np.ix_(rest, idx)]) <= 1e-12 * scale


def test_encoding_rejects_other_layouts():
    with pytest.raises(EncodingError, match="jw encoding requires fermionic"):
        encode_for_compile(canonicalize(create(T2)), "jw")
    with pytest.raises(EncodingError, match="direct encoding requires t"):
        encode_for_compile(canonicalize(create(F)), "direct")
    with pytest.raises(EncodingError, match=r"level 2 requires t\(8\)"):
        encode_for_compile(canonicalize(create(Boson(4))), "hp", 2)
    with pytest.raises(EncodingError, match="mixed"):
        encode_for_compile(canonicalize(tensor(create(F), annihilate(T2))))
