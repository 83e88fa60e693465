"""Exact backend: expression lowering, exponential, ground energy.

This is the desk-scale oracle the rest of the package is checked against,
and it shares no code with the canonical forms of ``typecheck``: it lowers
the expression tree itself, to one scipy.sparse CSR matrix.

- An atom has at most one nonzero per column: it is a row map, a ``rows``
  and a ``vals`` array over the columns, built in one O(N dim) step from
  its sparse map of ladders with the Jordan-Wigner signs the interpreter
  produces.
- A product of atoms is a row map too, by composition: rows = r2[r1] and
  vals = v2[r1] v1.
- A sum concatenates the entries of its children into one COO, and the
  CSR is built once from it.  Only a product with a sum among its factors
  multiplies sparse matrices.
- An adjoint is no node of its own (``expr.dagger`` builds it from atoms),
  so the lowering never transposes.

``expr_to_matrix`` densifies the CSR once; ``energy`` never does.
``ground_energy`` runs a dense eigh below ``LANCZOS_MIN_DIM`` and, from
there on, the Lanczos method of ARPACK from a start vector of fixed seed.
A matrix whose imaginary part is exactly zero is diagonalized in the real
field, by ``ground_energy`` and by ``matrix_exp_sim``.  Exponentials use
the e^{-i h t} convention throughout, so Hermitian input gives a unitary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DIM_CAP, HERMITIAN_TOL, ZERO_TOL, DimensionCapError, NonHermitianError,
)
from .expr import (
    Atom, Fermion, HamExpr, LadderKind, Seq, SiteList, Sum, site_dim,
    total_dim,
)
from .fock import FockState, make_state


def expr_to_matrix(e: HamExpr) -> np.ndarray:
    """Matrix M with M v(s) = v(apply(e, s)) for every basis state s."""
    return expr_to_sparse(e).toarray()


def expr_to_sparse(e: HamExpr):
    """The CSR matrix of ``expr_to_matrix``, with no dense array built."""
    dim = total_dim(e.layout)
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIM_CAP}")
    return _lower(e)


def _lower(e, memo: dict = None):
    """The CSR matrix of e, built from one COO of its entries; memo maps
    each ladder pattern lowered so far to its unit row map."""
    memo = {} if memo is None else memo
    dim = total_dim(e.layout)
    rows, cols, vals = _entries(e, memo)
    keep = vals != 0
    return scipy.sparse.csr_array((vals[keep], (rows[keep], cols[keep])),
                                  shape=(dim, dim))


def _entries(e, memo: dict):
    """COO (rows, cols, vals) of e; the CSR sums repeated positions.

    A sum concatenates the entries of its children.  A product of atoms is
    one row map.  Only a product with a sum among its factors multiplies
    sparse matrices, folded from the right as the binary product would.
    """
    if isinstance(e, Sum):
        return tuple(map(np.concatenate,
                         zip(*(_entries(c, memo) for c in e.children))))
    if _is_row_map(e):
        rows, vals = _row_map(e, memo)
        return rows, np.arange(rows.size), vals
    if not isinstance(e, Seq):
        raise TypeError(f"not a HamExpr: {e!r}")
    m = _lower(e.children[-1], memo)
    for c in reversed(e.children[:-1]):
        m = _lower(c, memo) @ m
    m = m.tocoo()
    return m.row, m.col, m.data


def _is_row_map(e) -> bool:
    """Whether e is an atom or a product of atoms."""
    return isinstance(e, Atom) or (isinstance(e, Seq)
                                   and all(map(_is_row_map, e.children)))


def _row_map(e, memo: dict):
    """(rows, vals) of an atom or a product of atoms: column j holds its one
    possible nonzero, vals[j], in row rows[j].  The factor applied first is
    the rightmost, so a product maps rows = r2[r1], vals = v2[r1] v1."""
    if isinstance(e, Atom):
        if e.ops not in memo:
            memo[e.ops] = _monomial(e.layout, e.ops)
        rows, vals = memo[e.ops]
        return rows, e.amp * vals
    rows, vals = _row_map(e.children[-1], memo)
    for c in reversed(e.children[:-1]):
        r2, v2 = _row_map(c, memo)
        rows, vals = r2[rows], v2[rows] * vals
    return rows, vals


def _monomial(layout: SiteList, ops: tuple):
    """Row map (rows, vals) of the ladders ops, (site, kind) pairs, at unit
    amplitude.

    Every ladder maps a basis state to at most one basis state, so the atom
    has at most one nonzero per column.  Walking the sites from the right,
    each fermionic site with an odd number of fermionic ladders to its
    right takes the sign (-1)^(its output occupation): the Jordan-Wigner
    string of those ladders.  A column whose value is zero maps to row 0,
    so that a product may index with every row.
    """
    dim = total_dim(layout)
    cols = np.arange(dim)
    rows = cols.copy()
    vals = np.ones(dim)
    kinds = dict(ops)
    odd = False
    stride = 1
    for j in reversed(range(len(layout))):
        d = site_dim(layout[j])
        fermionic = isinstance(layout[j], Fermion)
        kind = kinds.get(j)
        if kind is not None or (odd and fermionic):
            occ = cols // stride % d
        if kind is not None:
            step = 1 if kind is LadderKind.CREATE else -1
            vals *= _ladder_values(d, step)[occ]
            rows += step * stride
            occ = occ + step
        if fermionic:
            if odd:
                vals *= 1 - 2 * (occ & 1)
            odd ^= kind is not None
        stride *= d
    rows[vals == 0] = 0
    return rows, vals


def _ladder_values(d: int, step: int) -> np.ndarray:
    """A ladder's value at each input occupation 0..d-1: the square root of
    the larger of its input and output occupation, zero where the output
    leaves 0..d-1."""
    occ = np.arange(d)
    out = occ + step
    return np.where((out >= 0) & (out < d), np.sqrt(np.maximum(occ, out)), 0)


def vector_to_state(v: np.ndarray, layout: SiteList) -> FockState:
    """FockState of the entries of v above ZERO_TOL, in the row-major
    occupation basis of ``expr_to_matrix``."""
    dims = [site_dim(site) for site in layout]
    idx = np.flatnonzero(abs(v) > ZERO_TOL)
    occs = zip(*np.unravel_index(idx, dims)) if dims else [()] * idx.size
    return make_state(layout, zip(v[idx], occs))


# ---------------------------------------------------------------------------
# Exponential
# ---------------------------------------------------------------------------

def check_hermitian(h):
    """Raise unless the dense or sparse matrix h is Hermitian within
    HERMITIAN_TOL."""
    err = abs(h - h.conj().T).max()
    if err > HERMITIAN_TOL:
        raise NonHermitianError(f"matrix deviates from Hermitian by {err:g}")


def matrix_exp_sim(h: np.ndarray, t: float) -> np.ndarray:
    """Time-evolution unitary e^{-i h t} of a Hermitian matrix.

    Uses the eigendecomposition, so the output is unitary to rounding.  A
    matrix whose imaginary part is exactly zero is diagonalized as the real
    symmetric matrix it is.  A phase w t past the float range raises
    ValueError: its exponential would be nan.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[0] > DIM_CAP:
        raise DimensionCapError(f"dimension {h.shape[0]} exceeds cap {DIM_CAP}")
    check_hermitian(h)
    real = not h.imag.any()
    w, v = np.linalg.eigh(h.real if real else h)
    if not math.isfinite(float(abs(w).max()) * abs(t)):
        raise ValueError(f"the phases w t of e^(-i h t) overflow at t = {t!r}")
    return (v * np.exp(-1j * w * t)) @ (v.T if real else v.conj().T)


# ---------------------------------------------------------------------------
# Ground energy
# ---------------------------------------------------------------------------

# From this dimension on, Lanczos finds the ground pair faster than a dense
# eigh.  Measured on the spin and hopping chains (2 cores, OpenBLAS): at
# dim 128 a real eigh takes 1.3-1.7 ms and Lanczos 1.0-3.4 ms, at dim 256
# eigh 5.7-6.3 ms and Lanczos 2.0-2.2 ms.  Smaller sizes need eigh anyway:
# ARPACK needs k < n - 1.
LANCZOS_MIN_DIM = 256


@dataclass(frozen=True)
class GroundResult:
    energy: float
    state: FockState


def ground_energy(h, layout: SiteList) -> GroundResult:
    """Minimum eigenvalue and a normalized eigenvector, as a state on
    layout, whose dimension is that of h.

    h is a dense or a scipy.sparse matrix; both take the same path for a
    given dimension.  Below LANCZOS_MIN_DIM a dense eigh diagonalizes it.
    From there on the implicitly restarted Lanczos method of ARPACK
    (Lehoucq, Sorensen and Yang, 1998) finds the lowest eigenpair from a
    Gaussian start vector of fixed seed, which overlaps every symmetry
    sector.  A matrix whose imaginary part is exactly zero is solved in
    the real field.  On a degenerate ground space the state is one vector
    of that space, the same on every run.
    """
    h = scipy.sparse.csr_array(h)
    n = h.shape[0]
    if n > DIM_CAP:
        raise DimensionCapError(f"dimension {n} exceeds cap {DIM_CAP}")
    check_hermitian(h)
    if total_dim(layout) != n:
        raise ValueError("layout dimension does not match the matrix")
    if not h.data.imag.any():
        h = h.real
    if n < LANCZOS_MIN_DIM:
        w, v = np.linalg.eigh(h.toarray())
    elif not h.count_nonzero():
        # ARPACK cannot start on the zero matrix; take the first basis
        # vector of its ground space, as eigh does
        w, v = [0.0], np.eye(n, 1)
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        w, v = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=v0)
    vec = v[:, 0] / np.linalg.norm(v[:, 0])
    return GroundResult(float(w[0]), vector_to_state(vec, tuple(layout)))


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over alpha of ||a - e^{i alpha} b||_max (global-phase quotient).

    Each evaluation of the distance writes into two buffers allocated once.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    diff = np.empty_like(a)
    mag = np.empty(a.shape)

    def dist(alpha):
        np.multiply(np.exp(1j * alpha), b, out=diff)
        np.subtract(a, diff, out=diff)
        return np.abs(diff, out=mag).max()
    tr = np.vdot(b, a)  # trace(b^dag a) without the matrix product
    if abs(tr) > 1e-12:
        candidates = [float(np.angle(tr))]
    else:
        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        vals = [dist(al) for al in grid]
        candidates = [float(grid[int(np.argmin(vals))])]
    best = min(dist(al) for al in candidates)
    for alpha0 in candidates:
        res = scipy.optimize.minimize_scalar(
            dist, bounds=(alpha0 - 0.35, alpha0 + 0.35), method="bounded",
            options={"xatol": 1e-12})
        best = min(best, float(res.fun))
    return best

