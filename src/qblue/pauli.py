"""Complex-weighted sums of Pauli strings.

A string is one letter from {I, X, Y, Z} per qubit; a sum is a canonical
list of (coefficient, string) terms: strings unique and sorted, coefficients
pruned at ZERO_TOL times the magnitudes summed into them, with no absolute
floor, so a sum scaled by c keeps its strings.  This is
the compiler's intermediate representation.  Its matrix is a
``linalg.Sparse`` that writes each string as the signed permutation it is,
one nonzero per column from the string's X/Z bit masks and one parity
table, so a sum of T terms on n qubits costs O(T 2^n), with no 4^n fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    COEFF_EQ_TOL, QUBIT_CAP, ZERO_TOL, DimensionCapError, negligible,
)
from .linalg import sparse

LETTERS = "IXYZ"


@dataclass(frozen=True)
class PauliSum:
    """Canonical sum of Pauli strings over a fixed qubit count."""

    qubits: int
    terms: tuple  # tuple[tuple[complex, str], ...]


def pauli_sum(qubits: int, terms, mags=None) -> PauliSum:
    """Canonicalize a list of (coeff, string) terms.

    A string drops when its summed coefficient is ``negligible`` at
    ZERO_TOL against the magnitudes summed into it: |coeff| of each term,
    or mags[k] for terms[k] where each coeff is itself a sum.
    """
    acc: dict[str, complex] = {}
    mag: dict[str, float] = {}
    for (c, s), m in zip(terms, repeat(None) if mags is None else mags):
        if len(s) != qubits or s.strip(LETTERS):
            raise ValueError(f"bad Pauli string {s!r} for {qubits} qubits")
        c = complex(c)
        acc[s] = acc.get(s, 0j) + c
        mag[s] = mag.get(s, 0.0) + (abs(c) if m is None else m)
    out = tuple((acc[s], s) for s in sorted(acc)
                if not negligible(acc[s], mag[s], ZERO_TOL))
    return PauliSum(qubits, out)


def is_hermitian_pauli(p: PauliSum) -> bool:
    """Pauli strings are Hermitian, so real coefficients are necessary and
    sufficient: each imaginary part within COEFF_EQ_TOL times its own |c|,
    so a large term does not hide the imaginary part of a small one."""
    return all(negligible(c.imag, abs(c), COEFF_EQ_TOL) for c, _ in p.terms)


def _parity(v: np.ndarray, bits: int) -> np.ndarray:
    """Parity of the set bits of each entry (entries below 2**bits)."""
    shift = 1
    while shift < bits:
        v = v ^ (v >> shift)
        shift *= 2
    return v & 1


_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_I_POWERS = (1, 1j, -1, -1j)


def pauli_to_matrix(p: PauliSum):
    """The ``linalg.Sparse`` matrix of the sum, qubit 0 the most
    significant index bit, storing no zero.

    A string is the signed permutation i^(#Y) X^x Z^z, with x marking its X/Y
    letters and z its Z/Y letters: column j holds i^(#Y) (-1)^|j & z| in
    row j ^ x, the sign read from one table of (-1)^|k|.  The strings of
    one x share those rows, so their column values are summed in term
    order, and each term costs O(2^n), with no Kronecker product.
    """
    if p.qubits > QUBIT_CAP:
        raise DimensionCapError(
            f"{p.qubits} qubits exceeds the {QUBIT_CAP}-qubit cap")
    dim = 2 ** p.qubits
    cols = np.arange(dim)
    sign = 1 - 2 * _parity(cols, p.qubits)   # (-1)^|j| of each index j
    by_x: dict[int, np.ndarray] = {}   # X mask -> the value of each column
    for c, s in p.terms:
        x = int("0" + s.translate(_X_BITS), 2)
        z = int("0" + s.translate(_Z_BITS), 2)
        phase = c * _I_POWERS[s.count("Y") % 4]
        by_x[x] = by_x.get(x, 0j) + phase * sign[cols & z]
    rows = cols ^ np.array(list(by_x), dtype=int)[:, None]
    vals = np.array(list(by_x.values()), dtype=complex)
    return sparse(dim, rows.ravel(), np.tile(cols, len(by_x)), vals.ravel())
