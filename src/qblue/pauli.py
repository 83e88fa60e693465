"""Complex-weighted sums of Pauli strings.

A string is one letter from {I, X, Y, Z} per qubit; a sum is a canonical
list of (coefficient, string) terms: strings unique and sorted, coefficients
pruned at ZERO_TOL.  This is the compiler's intermediate representation.
Its dense matrix writes each string as the signed permutation it is, one
nonzero per column from the string's X/Z bit masks, so a sum of T terms on
n qubits costs O(T 2^n) on top of the 4^n zero fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import COEFF_EQ_TOL, QUBIT_CAP, ZERO_TOL, DimensionCapError

LETTERS = "IXYZ"


@dataclass(frozen=True)
class PauliSum:
    """Canonical sum of Pauli strings over a fixed qubit count."""

    qubits: int
    terms: tuple  # tuple[tuple[complex, str], ...]


def pauli_sum(qubits: int, terms) -> PauliSum:
    """Canonicalize a list of (coeff, string) terms."""
    acc: dict[str, complex] = {}
    for c, s in terms:
        if len(s) != qubits or s.strip(LETTERS):
            raise ValueError(f"bad Pauli string {s!r} for {qubits} qubits")
        acc[s] = acc.get(s, 0j) + complex(c)
    out = tuple((acc[s], s) for s in sorted(acc)
                if abs(acc[s]) > ZERO_TOL)
    return PauliSum(qubits, out)


def is_hermitian_pauli(p: PauliSum) -> bool:
    """Pauli strings are Hermitian, so real coefficients are necessary and
    sufficient."""
    return all(abs(c.imag) <= COEFF_EQ_TOL for c, _ in p.terms)


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


def pauli_to_matrix(p: PauliSum) -> np.ndarray:
    """Dense matrix of the sum, qubit 0 the most significant index bit.

    A string is the signed permutation i^(#Y) X^x Z^z, with x marking its X/Y
    letters and z its Z/Y letters: column j holds i^(#Y) (-1)^|j & z| in
    row j ^ x.  Each term costs O(2^n), with no Kronecker product.
    """
    if p.qubits > QUBIT_CAP:
        raise DimensionCapError(
            f"{p.qubits} qubits exceeds the {QUBIT_CAP}-qubit cap")
    dim = 2 ** p.qubits
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for c, s in p.terms:
        x = int("0" + s.translate(_X_BITS), 2)
        z = int("0" + s.translate(_Z_BITS), 2)
        phase = c * _I_POWERS[s.count("Y") % 4]
        out[cols ^ x, cols] += phase * (1 - 2 * _parity(cols & z, p.qubits))
    return out
