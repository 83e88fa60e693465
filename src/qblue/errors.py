"""Exception types, limits and tolerances shared across the package."""

from __future__ import annotations

# The one dense-work limit: matrices of at most DIM_CAP rows, that is
# circuits and Pauli sums on at most QUBIT_CAP qubits.
DIM_CAP = 2 ** 12
QUBIT_CAP = DIM_CAP.bit_length() - 1

# Tolerances, each named once for every module that compares with it.
COEFF_EQ_TOL = 1e-12      # coefficients and amplitudes compared as equal
COEFF_DROP_TOL = 1e-14    # canonical-form term treated as zero
COEFF_PRUNE_TOL = 1e-14   # Pauli-sum term treated as zero
AMP_PRUNE_TOL = 1e-14     # ket amplitude treated as zero
HERMITIAN_IM_TOL = 1e-12  # imaginary part of a Hermitian Pauli coefficient
HERMITIAN_TOL = 1e-10     # max-norm ||M - M^dag|| of a Hermitian matrix
UNITARY_TOL = 1e-10       # max-norm ||U^dag U - 1|| of a unitary matrix
EXPECTATION_IM_TOL = 1e-10  # imaginary residue of <s|H|s>


class QBlueError(Exception):
    """Base class for all package-specific errors."""


class LayoutError(QBlueError):
    """Site-list mismatch between subexpressions.

    Carries the place of the offending subexpression plus both conflicting
    site lists so diagnostics can point at the exact spot.  The place is a
    child-index path such as ``root.1.inner.0`` in a hand-built tree, or a
    definition name with the source ``line`` and ``col`` in a parsed
    program.
    """

    def __init__(self, message, path="root", left=None, right=None,
                 line=None, col=None):
        self.path = path
        self.left = left
        self.right = right
        self.line = line
        self.col = col
        detail = message
        if left is not None and right is not None:
            from .expr import layout_str
            detail = (f"{message} at {path}: "
                      f"[{layout_str(left)}] vs [{layout_str(right)}]")
        if line is not None:
            detail += f" (line {line}, column {col})"
        super().__init__(detail)


class DimensionCapError(QBlueError):
    """Requested dense-matrix work above the supported dimension cap."""


class NonHermitianError(QBlueError):
    """Operation requires a Hermitian operator but got a plain one."""


class EncodingError(QBlueError):
    """Layout cannot be encoded by the requested particle transformation."""


class CompileError(QBlueError):
    """Program cannot be compiled to a circuit or schedule."""


class FitError(CompileError):
    """Hamiltonian terms not covered by the machine's interaction templates."""

    def __init__(self, message, uncovered=()):
        self.uncovered = tuple(uncovered)
        super().__init__(message)


class ParseError(QBlueError):
    """Surface-syntax error with line/column position."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class StateFormatError(QBlueError):
    """Malformed state-literal text."""
