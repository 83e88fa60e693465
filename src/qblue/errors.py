"""Exception types, limits and tolerances shared across the package."""

from __future__ import annotations

import math
import re

# The work limits: matrices of at most DIM_CAP rows, that is circuits and
# Pauli sums on at most QUBIT_CAP qubits, and canonical forms of at most
# UNIT_CAP terms, every form built on the way included (a hopping pair of
# 65,522 terms, on two t(182) sites, certifies in 0.26 s on one core).
DIM_CAP = 2 ** 12
QUBIT_CAP = DIM_CAP.bit_length() - 1
UNIT_CAP = 2 ** 16

# Tolerances, each named once for every module that compares with it, and
# each relative to the magnitudes of the value it tests (``negligible``).
COEFF_EQ_TOL = 1e-12      # coefficients compared as equal
ZERO_TOL = 1e-14          # term, Pauli coefficient or ket amplitude as zero
HERMITIAN_TOL = 1e-10     # h_ij against conj(h_ji) in a Hermitian matrix


def negligible(value, scale, tol: float):
    """Whether |value| is at most tol times scale, the magnitudes summed
    into it: so c times a sum keeps its verdicts, and a term at one scale
    does not hide one at another.  A scale past the float range gives
    none, so then only an exact zero is, and a nan never is.  value and
    scale may be numpy arrays, tested entry by entry."""
    return (abs(value) <= tol * scale) & (scale < float("inf")) | (value == 0)


# Every number qblue reads in text: an unsigned decimal of the digits 0-9.
NUMBER = r"(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"


def finite_float(text: str) -> float:
    """The finite float that text writes: an optional sign, then NUMBER."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    if not re.fullmatch("[+-]?" + NUMBER, text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return value


def natural(text: str) -> int:
    """The int that text writes in the digits 0-9.  An integer of more
    digits than Python converts (4,300 by default) is named by its length,
    in every reader."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid natural number: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"integer of {len(text)} digits is too long") from None


class QBlueError(Exception):
    """Base class for all package-specific errors."""


class LayoutError(QBlueError):
    """Site-list mismatch between operands.

    Carries the place of the mismatch plus both conflicting site lists so
    diagnostics can point at it.  The place is ``root`` for a Sum or Seq
    whose children disagree, which raises as it is built, or ``apply`` for
    an operator and a state on different layouts.  A parsed program never
    raises it: every node of it spans the declared layout.
    """

    def __init__(self, message, path, left, right):
        from .expr import layout_str
        self.path = path
        self.left = left
        self.right = right
        super().__init__(f"{message} at {path}: "
                         f"[{layout_str(left)}] vs [{layout_str(right)}]")


class AmplitudeError(ValueError):
    """An atom amplitude that is not a finite complex number."""


class DimensionCapError(QBlueError):
    """Dense-matrix work above DIM_CAP, or a canonical form, or any form
    built on the way to it, of more than UNIT_CAP terms."""


class NonHermitianError(QBlueError):
    """Operation requires a Hermitian operator but got a plain one."""


class CompileError(QBlueError):
    """Program cannot be compiled to a circuit or schedule."""


class ParseError(QBlueError):
    """Surface-syntax error with line/column position."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")

