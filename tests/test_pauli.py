import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qblue.errors import COEFF_EQ_TOL, DimensionCapError
from qblue.pauli import is_hermitian_pauli, pauli_sum, pauli_to_matrix

import oracle
from helpers import pauli_allclose


def test_simplify_merges():
    p = pauli_sum(1, [(0.5, "X"), (0.5, "X")])
    assert p.terms == ((1.0 + 0j, "X"),)


def test_simplify_cancels_to_zero():
    p = pauli_sum(1, [(1.0, "X"), (-1.0, "X")])
    assert p.terms == ()


def test_simplify_prunes_relative_to_the_summed_magnitudes():
    # the rounding of a cancellation grows with the terms that cancel
    residue = pauli_sum(1, [(0.1, "Z")] * 1000 + [(-100.0, "Z")])
    assert residue.terms == ()
    # a small coefficient that cancels nothing stays
    assert pauli_sum(1, [(1e-13, "Z")]).terms == ((1e-13 + 0j, "Z"),)
    assert pauli_sum(1, [(1e-20, "Z")]).terms == ((1e-20 + 0j, "Z"),)


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_hermiticity_is_relative_to_each_coefficient(scale):
    assert is_hermitian_pauli(pauli_sum(1, [(scale, "X")]))
    assert not is_hermitian_pauli(pauli_sum(1, [(scale * 1e-9j, "X")]))
    assert not is_hermitian_pauli(
        pauli_sum(2, [(scale, "XI"), (scale * 1e-9j, "IZ")]))
    assert not is_hermitian_pauli(
        pauli_sum(2, [(scale * 1e12, "ZI"), (scale * 0.5j, "IX")]))


def test_a_coefficient_that_is_itself_a_sum_prunes_against_its_magnitudes():
    # 4e-17i is the rounding of coefficients of magnitude 1 that cancelled
    assert pauli_sum(1, [(4e-17j, "Y")], [1.0]).terms == ()
    assert pauli_sum(1, [(4e-17j, "Y")]).terms == ((4e-17j, "Y"),)


def test_simplify_is_idempotent_and_sorted():
    p = pauli_sum(2, [(1, "ZZ"), (2, "IX"), (1, "ZZ"), (0.5, "XI")])
    assert [s for _, s in p.terms] == ["IX", "XI", "ZZ"]
    assert pauli_sum(p.qubits, p.terms) == p


def test_hopping_expansion():
    # (X+iY)/2 (x) (X-iY)/2 plus the swapped product
    half = 0.5
    up = [(half, "X"), (half * 1j, "Y")]
    dn = [(half, "X"), (-half * 1j, "Y")]
    total = pauli_sum(2, [(c1 * c2, s1 + s2)
                          for left, right in [(up, dn), (dn, up)]
                          for c1, s1 in left for c2, s2 in right])
    assert pauli_allclose(total, pauli_sum(2, [(0.5, "XX"), (0.5, "YY")]))
    want = 0.5 * (np.kron(oracle.X, oracle.X) + np.kron(oracle.Y, oracle.Y))
    assert oracle.max_norm(pauli_to_matrix(total).toarray(), want) < 1e-12


def test_is_hermitian_pauli():
    assert is_hermitian_pauli(pauli_sum(2, [(1.0, "XX")]))
    assert not is_hermitian_pauli(pauli_sum(1, [(1j, "X")]))
    # the imaginary-part tolerance is the coefficient tolerance, inclusive
    assert is_hermitian_pauli(pauli_sum(1, [(1 + COEFF_EQ_TOL * 1j, "X")]))
    assert not is_hermitian_pauli(
        pauli_sum(1, [(1 + 2 * COEFF_EQ_TOL * 1j, "X")]))


def test_hermiticity_criterion_matches_matrix():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            s = "".join(rng.choice(list("IXYZ"), n))
            c = complex(rng.normal(), rng.normal() * rng.integers(0, 2))
            terms.append((c, s))
        p = pauli_sum(n, terms)
        m = pauli_to_matrix(p).toarray()
        assert is_hermitian_pauli(p) == (oracle.max_norm(m, m.conj().T) < 1e-12)


def test_pauli_to_matrix_values():
    z = pauli_to_matrix(pauli_sum(1, [(1, "Z")])).toarray()
    assert oracle.max_norm(z, np.diag([1, -1])) == 0
    ii = pauli_to_matrix(pauli_sum(2, [(1, "II")])).toarray()
    assert oracle.max_norm(ii, np.eye(4)) == 0


def test_pauli_to_matrix_all_three_qubit_strings():
    rng = np.random.default_rng(64)
    strings = ["".join(t) for t in itertools.product("IXYZ", repeat=3)]
    coeffs = rng.normal(size=64) + 1j * rng.normal(size=64)
    for c, s in zip(coeffs, strings):
        one = pauli_to_matrix(pauli_sum(3, [(c, s)])).toarray()
        assert oracle.max_norm(one, c * oracle.pauli_string_matrix(s)) < 1e-14
    total = pauli_to_matrix(pauli_sum(3, list(zip(coeffs, strings))))
    total = total.toarray()
    want = sum(c * oracle.pauli_string_matrix(s)
               for c, s in zip(coeffs, strings))
    assert oracle.max_norm(total, want) < 1e-12


def test_pauli_to_matrix_respects_algebra():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        t1 = [(complex(rng.normal()), "".join(rng.choice(list("IXYZ"), n)))
              for _ in range(2)]
        t2 = [(complex(rng.normal()), "".join(rng.choice(list("IXYZ"), n)))
              for _ in range(2)]
        p1, p2 = pauli_sum(n, t1), pauli_sum(n, t2)
        assert oracle.max_norm(
            pauli_to_matrix(pauli_sum(n, t1 + t2)).toarray(),
            pauli_to_matrix(p1).toarray() + pauli_to_matrix(p2).toarray()
        ) < 1e-12


@pytest.mark.parametrize("qubits, terms, nnz", [
    (1, [(1, "I"), (1, "Z")], 1),   # diag(2, 0)
    (1, [(1, "X"), (1j, "Y")], 1),   # X + iY = 2 |0><1|
    (2, [(0.5, "XX"), (0.5, "YY")], 2),   # the hopping term
    (2, [(1, "ZZ"), (-1, "II")], 2),
    (3, [(1, "III")], 8),
    (2, [], 0),
])
def test_the_csr_stores_no_zero(qubits, terms, nnz):
    m = pauli_to_matrix(pauli_sum(qubits, terms))
    assert m.shape == (2 ** qubits, 2 ** qubits)
    assert m.nnz == nnz == np.count_nonzero(m.toarray())


@st.composite
def pauli_terms(draw):
    """(qubits, terms) of a sum on 1-5 qubits, strings possibly repeated."""
    n = draw(st.integers(1, 5))
    strings = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.complex_numbers(max_magnitude=10, allow_nan=False,
                                allow_infinity=False)
    return n, draw(st.lists(st.tuples(coeffs, strings), max_size=8))


@given(pauli_terms())
def test_the_matrix_is_the_sum_of_kronecker_products(drawn):
    n, terms = drawn
    m = pauli_to_matrix(pauli_sum(n, terms))
    want = sum((c * oracle.pauli_string_matrix(s) for c, s in terms),
               np.zeros((2 ** n, 2 ** n)))
    scale = sum(abs(c) for c, _ in terms)
    assert oracle.max_norm(m.toarray(), want) <= 1e-12 * scale
    assert m.nnz == np.count_nonzero(m.toarray())


def test_matrix_dimension_cap():
    with pytest.raises(DimensionCapError):
        pauli_to_matrix(pauli_sum(13, [(1, "I" * 13)]))


def test_mixed_lengths_rejected():
    with pytest.raises(ValueError):
        pauli_sum(2, [(1, "X")])

