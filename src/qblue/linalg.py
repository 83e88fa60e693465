"""Exact backend: expression lowering, ground energy, time evolution.

This is the desk-scale oracle the rest of the package is checked against,
and it shares no code with the canonical forms of ``typecheck``: it lowers
the expression tree itself, to one ``Sparse`` matrix.  It runs on numpy
alone.

- An atom is one diagonal: its ladder moves every column's occupation
  index by its step times its site's stride, so it has at most one
  nonzero per column, all at that shift.  It is built in O(dim), with the
  Jordan-Wigner sign the interpreter produces, from its site's occupation
  column, stride and string, which one lowering builds once.
- A sum adds its children's diagonals of equal shift, and a product
  composes them pairwise, each pair by one clipped gather, so the matrix
  is built once, from the diagonals.  An adjoint is no node of its own
  (``expr.dagger`` builds it from atoms), so the lowering never transposes.

A ``Sparse`` keeps a matrix's nonzero entries as (row, col, val) arrays,
sorted row-major; ``sparse`` builds one from triples, and
``pauli.pauli_to_matrix`` builds through it too.  ``check_hermitian``,
``ground_energy`` and ``evolve`` take a Sparse: the Hermiticity check
compares the stored entries only, and one prologue caps, checks and takes
the real field for both solvers.  Each solver runs a dense eigh below
``LANCZOS_MIN_DIM`` and, from there on, the Lanczos method (Lanczos, 1950)
with full reorthogonalization (Paige, 1972), which builds no dim x dim
array: ``ground_energy`` reads the lowest Ritz pair from a start vector of
fixed seed, and ``evolve`` reads e^{-i h t} psi from each given state psi
(Saad, 1992).  ``vector_to_state`` reads a vector as a state from its
arrays: one unravel of the kept indices gives the kets, in order.
Exponentials use the e^{-i h t} convention throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import (
    DIM_CAP, HERMITIAN_TOL, ZERO_TOL, DimensionCapError, NonHermitianError,
    negligible,
)
from .expr import (
    Atom, Fermion, HamExpr, Seq, SiteList, Sum, site_dim, total_dim,
)
from .fock import FockState, Ket


class Sparse:
    """A dim x dim matrix by its stored entries: vals[k] at (rows[k],
    cols[k]), sorted row-major, none of them zero; ``sparse`` builds one."""

    def __init__(self, dim: int, rows, cols, vals):
        self.dim, self.rows, self.cols, self.vals = dim, rows, cols, vals

    shape = property(lambda self: (self.dim, self.dim))
    nnz = property(lambda self: self.vals.size)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """h @ v: each row sums its terms, real and imaginary parts apart."""
        terms = self.vals * v[self.cols]
        # float even with no terms, where bincount counts in ints
        out = np.bincount(self.rows, terms.real, self.dim).astype(float,
                                                               copy=False)
        if np.iscomplexobj(terms):
            out = out + 1j * np.bincount(self.rows, terms.imag, self.dim)
        return out


def sparse(dim: int, rows, cols, vals) -> Sparse:
    """The Sparse of (row, col, val) triples with no key repeated: the
    exact zeros dropped, the rest sorted row-major."""
    keep = np.flatnonzero(vals != 0)
    order = keep[np.argsort(rows[keep] * dim + cols[keep], kind="stable")]
    return Sparse(dim, rows[order], cols[order], vals[order])


def expr_to_sparse(e: HamExpr) -> Sparse:
    """Sparse matrix M with M v(s) = v(apply(e, s)) for every basis state s,
    with no dense array built and no entry that is ``negligible`` at
    ZERO_TOL against the magnitudes of the paths summed into it: a sum that
    cancels to a rounding residue, at any depth, leaves none.  Only the
    kept entries of each diagonal are gathered, so no array of all
    diagonals is built either."""
    dim = total_dim(e.layout)
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIM_CAP}")
    rows, cols, vals = [], [], []
    for shift, (v, mags) in _lower(e, {}).items():
        # the columns whose row j + shift lies inside the matrix
        lo, hi = max(0, -shift), min(dim, dim - shift)
        j = lo + np.flatnonzero(~negligible(v[lo:hi], mags[lo:hi], ZERO_TOL))
        rows.append(j + shift)
        cols.append(j)
        vals.append(v[j])
    return sparse(dim, *map(np.concatenate, (rows, cols, vals)))


def _lower(e, memo: dict) -> dict:
    """The diagonals of e, {shift: (vals, mags)}: column j holds vals[j] in
    row j + shift, and mags[j] sums the magnitudes of every path into that
    entry.  Both are zero wherever the row leaves the layout's occupations.

    A sum adds its children's diagonals of equal shift.  A product folds
    from the right, as the binary product would: column j of the factor
    applied first lands in row j + s1, where the next factor's column
    j + s1 takes it on.  memo maps each ladder lowered so far to its unit
    diagonal, and "sites" to the site columns ``_monomial`` builds once.
    """
    if isinstance(e, Atom):
        if e.ladder not in memo:
            memo[e.ladder] = _monomial(e.layout, e.ladder, memo)
        shift, vals = memo[e.ladder]
        vals = e.amp * vals
        return {shift: (vals, abs(vals))}
    if isinstance(e, Sum):
        return _add((s, v, m) for c in e.children
                    for s, (v, m) in _lower(c, memo).items())
    if not isinstance(e, Seq):
        raise TypeError(f"not a HamExpr: {e!r}")
    cols = np.arange(total_dim(e.layout))
    diags = _lower(e.children[-1], memo)
    for c in reversed(e.children[:-1]):
        outer = _lower(c, memo)
        diags = _add((s1 + s2, v2.take(at, mode="clip") * v1,
                      m2.take(at, mode="clip") * m1)
                     for s1, (v1, m1) in diags.items() for at in [cols + s1]
                     for s2, (v2, m2) in outer.items())
    return diags


def _add(terms) -> dict:
    """The diagonals {shift: (vals, mags)} of a sum of (shift, vals, mags)
    terms."""
    out: dict = {}
    for s, v, m in terms:
        v0, m0 = out.get(s, (0, 0))
        out[s] = v0 + v, m0 + m
    return out


def _monomial(layout: SiteList, ladder, memo: dict):
    """Diagonal (shift, vals) at unit amplitude of one ladder, a (site,
    kind) pair, or of the identity for None.  The ladder's value is the
    square root of the larger of its input and output occupation, zero
    where the output leaves the site's occupations.  A fermionic ladder
    takes the product of (1 - 2 occ) over the fermionic sites before it,
    its Jordan-Wigner string.  memo["sites"] keeps each site's dimension,
    stride, and occupation and string in each column, built once."""
    if ladder is None:
        return 0, np.ones(total_dim(layout))
    if "sites" not in memo:
        dims = [site_dim(site) for site in layout]
        strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
        cols = np.arange(math.prod(dims))
        occs = [cols // stride % d for stride, d in zip(strides, dims)]
        signs = accumulate((1 - 2 * n if isinstance(site, Fermion) else 1
                            for site, n in zip(layout[:-1], occs)),
                           mul, initial=1)   # each from the one before it
        memo["sites"] = list(zip(dims, strides, occs, signs))
    j, kind = ladder
    d, stride, n, sign = memo["sites"][j]
    out = n + kind
    vals = np.where((out >= 0) & (out < d), np.sqrt(np.maximum(n, out)), 0.0)
    if isinstance(layout[j], Fermion):
        vals *= sign
    return kind * stride, vals


def vector_to_state(v: np.ndarray, layout: SiteList) -> FockState:
    """FockState of the entries of v above ZERO_TOL and not ``negligible``
    against the largest, as a computed state is known to that precision,
    in the row-major occupation basis of ``expr_to_sparse``, whose index
    order is occupation order."""
    idx = np.flatnonzero(abs(v) > ZERO_TOL)
    amps = v[idx] + 0j   # complex, and a -0.0 part reads 0.0
    keep = ~negligible(amps, abs(amps).max(initial=0.0), ZERO_TOL)
    idx, amps = idx[keep], amps[keep].tolist()
    dims = [site_dim(site) for site in layout]
    occs = (zip(*(o.tolist() for o in np.unravel_index(idx, dims)))
            if dims else [()] * idx.size)
    return FockState(tuple(layout), tuple(map(Ket, amps, occs)))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def check_hermitian(h: Sparse) -> Sparse:
    """h; raise unless the Sparse matrix h is Hermitian.  h_ij and
    conj(h_ji) agree within HERMITIAN_TOL times the larger of their two
    magnitudes, so a large entry does not hide a small one, or within
    ZERO_TOL times the largest |h|: a given matrix, like a given state, is
    known to that precision, and the rounding of its sums is below it.  An
    inf or nan entry agrees with nothing.  Only the stored entries are
    compared: each finds its transpose among the row-major keys, and one
    that is not stored is 0."""
    keys, want = h.rows * h.dim + h.cols, h.cols * h.dim + h.rows
    at = np.minimum(np.searchsorted(keys, want), max(h.nnz - 1, 0))
    mirror = np.where(keys[at] == want, h.vals[at].conj(), 0)
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf is nan
        a, err = abs(h.vals), abs(h.vals - mirror)
    top = a.max(initial=0.0)
    bad = not np.isfinite(top)
    if not bad and err.max(initial=0.0) > ZERO_TOL * top:   # pair by pair
        bad = ((err > ZERO_TOL * top)
               & (err > HERMITIAN_TOL * np.maximum(a, abs(mirror)))).any()
    if bad:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {err.max(initial=0.0):g}")
    return h


def _hermitian(h: Sparse) -> Sparse:
    """h after DIM_CAP and ``check_hermitian``; its real part when its
    imaginary part is exactly zero."""
    if h.dim > DIM_CAP:
        raise DimensionCapError(f"dimension {h.dim} exceeds cap {DIM_CAP}")
    h = check_hermitian(h)
    if not h.vals.imag.any():
        h = Sparse(h.dim, h.rows, h.cols, h.vals.real)
    return h


# From this dimension on, Lanczos finds the ground pair faster than a dense
# eigh.  Measured on the spin and hopping chains (2 cores, OpenBLAS): at
# dim 128 a real eigh takes 1.3-1.5 ms and Lanczos 1.3-2.1 ms, at dim 256
# eigh 5.2-6.0 ms and Lanczos 2.0-3.1 ms.
LANCZOS_MIN_DIM = 256
LANCZOS_CHUNK = 64   # the rows the Lanczos basis grows by
LANCZOS_CHECK = 8    # the steps between two checks of the readout


@dataclass(frozen=True)
class GroundResult:
    energy: float
    state: FockState


def ground_energy(h: Sparse, layout: SiteList) -> GroundResult:
    """Minimum eigenvalue and a normalized eigenvector, as a state on
    layout, whose dimension is that of h.

    Below LANCZOS_MIN_DIM a dense eigh diagonalizes h.  From there on
    ``_lanczos`` finds the lowest eigenpair from a Gaussian start vector
    of fixed seed, which overlaps every symmetry sector: it stops once the
    residual beta |s_k| of the lowest Ritz pair is at most 2.2e-16 times
    the largest |theta|.  A matrix whose imaginary part is exactly zero is
    solved in the real field.  On a degenerate ground space the state is
    one vector of that space, the same on every run.
    """
    h = _hermitian(h)
    n = h.dim
    if total_dim(layout) != n:
        raise ValueError("layout dimension does not match the matrix")
    if n < LANCZOS_MIN_DIM:
        w, v = np.linalg.eigh(h.toarray())
        w, v = w[0], v[:, 0]
    elif not h.nnz:
        # no Krylov space grows from 0: the first basis vector, as eigh's
        w, v = 0.0, np.eye(n, 1)[:, 0]
    else:
        w, v = _lanczos(h, np.random.default_rng(0).standard_normal(n),
                        lambda theta, s, beta: (
                            s[:, 0], beta * abs(s[-1, 0]),
                            2.2e-16 * abs(theta).max()))
        w = w[0]
    vec = v / np.linalg.norm(v)
    return GroundResult(float(w), vector_to_state(vec, tuple(layout)))


def evolve(h: Sparse, states: np.ndarray, t: float) -> np.ndarray:
    """e^{-i h t} states: the Hermitian h applied as its exponential to
    each column of a dim x m block of states.

    Below LANCZOS_MIN_DIM one dense eigh gives V e^{-i w t} V^dag states.
    From there on each state psi runs ``_lanczos`` to the Krylov
    approximation |psi| V e^{-i T t} e_1 (Saad, 1992; Hochbruck and
    Lubich, 1997), so no dim x dim array is built.  It stops once the
    error estimate |t| beta_k |e_k^T e^{-i T t} e_1| is at most ZERO_TOL
    times the larger of 1 and the largest phase |theta t|, or at
    breakdown, where beta_k = 0.  A matrix whose imaginary part is
    exactly zero is solved in the real field.  A phase w t past the float
    range raises ValueError: its exponential would be nan.
    """
    h = _hermitian(h)
    if h.dim < LANCZOS_MIN_DIM:
        w, v = np.linalg.eigh(h.toarray())
        return v @ (_phases(w, t)[:, None] * (v.conj().T @ states))

    def readout(theta, s, beta):
        c = s @ (_phases(theta, t) * s[0])
        return c, abs(t) * beta * abs(c[-1]), ZERO_TOL * max(
            1.0, abs(t) * abs(theta).max())
    return np.stack([np.linalg.norm(psi) * _lanczos(h, psi, readout)[1]
                     for psi in states.T], axis=1)


def _phases(w: np.ndarray, t: float) -> np.ndarray:
    """e^{-i w t}, or ValueError where a phase w t is past the float
    range."""
    if not math.isfinite(float(abs(w).max()) * abs(t)):
        raise ValueError(f"the phases w t of e^(-i h t) overflow at t = {t!r}")
    return np.exp(-1j * w * t)


def _lanczos(h: Sparse, v0: np.ndarray, readout):
    """(theta, x): the Ritz values of the Hermitian h on the Krylov space
    of v0, by the Lanczos method (Lanczos, 1950), and the combination x of
    that space's orthonormal basis that readout picks.

    readout(theta, s, beta_k) takes the eigenpairs (theta, s) of the
    tridiagonal T of the first k + 1 steps and the norm beta_k of the next
    residual, and gives (coefficients of x in the basis, an error
    estimate, its goal).  The recurrence stops once the estimate is at
    most its goal, which it is at breakdown (beta_k = 0).  Each new vector
    is orthogonalized against the whole basis, twice: the three-term
    recurrence alone loses orthogonality as Ritz pairs converge (Paige,
    1972).  The readout is checked LANCZOS_CHECK steps apart, or sooner
    where the estimate's rate since the last check says it passes: past
    that, a degenerate partner of the ground level can surface from
    rounding and delay the stop by dozens of steps.  The basis grows by
    LANCZOS_CHUNK rows, never to n x n."""
    n = h.dim
    basis = np.empty((0, n), np.result_type(h.vals, v0))
    alpha, beta = [], []
    q = v0 / np.linalg.norm(v0)
    due, last = LANCZOS_CHECK, None
    for k in range(n):
        if k == len(basis):
            basis = np.concatenate(
                [basis, np.empty((min(LANCZOS_CHUNK, n - k), n), basis.dtype)])
        basis[k] = q
        w = h @ q
        alpha.append(np.vdot(q, w).real)
        for _ in range(2):   # w less its q_j^dag w q_j for each j
            w -= (basis[:k + 1] @ w.conj()).conj() @ basis[:k + 1]
        beta.append(np.linalg.norm(w))
        if beta[k] == 0 or k + 1 in (due, n):
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:k], 1)
                                      + np.diag(beta[:k], -1))
            coeffs, res, goal = readout(theta, s, beta[k])
            if res <= goal:
                break
            rate = math.log(res / last[1]) / (k - last[0]) if last else 0
            ahead = math.log(goal / res) / rate if rate < 0 else LANCZOS_CHECK
            ahead = min(max(math.ceil(ahead), 1), LANCZOS_CHECK)
            due, last = k + 1 + ahead, (k, res)
        q = w / beta[k]
    return theta, coeffs @ basis[:k + 1]
