"""Exact backend: expression lowering, exponential, ground energy.

This is the desk-scale oracle the rest of the package is checked against,
and it shares no code with the canonical forms of ``typecheck``: it lowers
the expression tree itself, to one ``Sparse`` matrix.  It runs on numpy
alone.

- An atom is one diagonal: its ladder moves every column's occupation
  index by its step times its site's stride, so it has at most one
  nonzero per column, all at that shift.  It is built in one O(N dim)
  step, with the Jordan-Wigner sign the interpreter produces.
- A sum adds its children's diagonals of equal shift, and a product
  composes them pairwise, so the matrix is built once, from the diagonals.
- An adjoint is no node of its own (``expr.dagger`` builds it from atoms),
  so the lowering never transposes.

A ``Sparse`` keeps a matrix's nonzero entries as (row, col, val) arrays,
sorted row-major; ``sparse`` builds one from triples, and
``pauli.pauli_to_matrix`` builds through it too.  ``check_hermitian``,
``ground_energy`` and ``matrix_exp_sim`` take a dense or a Sparse matrix:
the Hermiticity check compares the stored entries only, and one prologue
caps, checks and takes the real field for both solvers.
``ground_energy`` runs a dense eigh below ``LANCZOS_MIN_DIM`` and, from
there on, the Lanczos method (Lanczos, 1950) with full
reorthogonalization (Paige, 1972) from a start vector of fixed seed.
``matrix_exp_sim`` runs block by block: the connected components of the
pattern (particle-number or parity sectors, say) are stacked by size,
gathered from one dense copy, and each stack is diagonalized by one
batched eigh.  A matrix whose imaginary part is exactly zero is checked
and diagonalized in the real field.  Exponentials use the e^{-i h t}
convention throughout, so Hermitian input gives a unitary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import (
    COEFF_EQ_TOL, DIM_CAP, HERMITIAN_TOL, ZERO_TOL, DimensionCapError,
    NonHermitianError, negligible,
)
from .expr import (
    Atom, Fermion, HamExpr, Seq, SiteList, Sum, site_dim, total_dim,
)
from .fock import FockState, make_state


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
        out = np.bincount(self.rows, terms.real, self.dim)
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
    diagonal.
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
        diags = _add((s1 + s2, v2[at] * v1, m2[at] * m1)
                     for s1, (v1, m1) in diags.items()
                     for at in [np.clip(cols + s1, 0, cols.size - 1)]
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
    its Jordan-Wigner string: memo["signs"][j] keeps it for each site j."""
    dims = [site_dim(site) for site in layout]
    cols = np.arange(math.prod(dims))
    if ladder is None:
        return 0, np.ones(cols.size)
    j, kind = ladder

    def occ(i):   # the occupation of site i in each column, row-major
        return cols // math.prod(dims[i + 1:]) % dims[i]
    n = occ(j)
    out = n + kind
    vals = np.where((out >= 0) & (out < dims[j]),
                    np.sqrt(np.maximum(n, out)), 0.0)
    if isinstance(layout[j], Fermion):
        if "signs" not in memo:   # each built from the one before it
            memo["signs"] = list(accumulate(
                (1 - 2 * occ(i) if isinstance(site, Fermion) else 1
                 for i, site in enumerate(layout[:-1])), mul, initial=1))
        vals *= memo["signs"][j]
    return kind * math.prod(dims[j + 1:]), vals


def vector_to_state(v: np.ndarray, layout: SiteList) -> FockState:
    """FockState of the entries of v above ZERO_TOL, in the row-major
    occupation basis of ``expr_to_sparse``."""
    dims = [site_dim(site) for site in layout]
    idx = np.flatnonzero(abs(v) > ZERO_TOL)
    occs = zip(*np.unravel_index(idx, dims)) if dims else [()] * idx.size
    return make_state(layout, zip(v[idx], occs))


# ---------------------------------------------------------------------------
# Exponential
# ---------------------------------------------------------------------------

def check_hermitian(h) -> Sparse:
    """h as a Sparse; raise unless the dense or Sparse matrix h is
    Hermitian.  h_ij and conj(h_ji) agree within HERMITIAN_TOL times the
    larger of their two magnitudes, so a large entry does not hide a small
    one, or within ZERO_TOL times the largest |h|: a given matrix, like a
    given state, is known to that precision, and the rounding of its sums
    is below it.  An inf or nan entry agrees with nothing.  Only the
    stored entries are compared: each finds its transpose among the
    row-major keys, and one that is not stored is 0."""
    if not isinstance(h, Sparse):   # a dense h by its nonzero entries
        nz = np.nonzero(h := np.asarray(h))
        h = sparse(len(h), *nz, h[nz])
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


def _hermitian(h) -> Sparse:
    """The dense or Sparse matrix h as a Sparse, after DIM_CAP and
    ``check_hermitian``; its real part when its imaginary part is exactly
    zero."""
    dim = h.shape[0]
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIM_CAP}")
    h = check_hermitian(h)
    if not h.vals.imag.any():
        h = Sparse(h.dim, h.rows, h.cols, h.vals.real)
    return h


def _components(h: Sparse) -> np.ndarray:
    """The smallest index of each index's component in h's pattern, taken
    as undirected: each round lowers each end's label of an entry to the
    other's, then each label to its own label, until nothing changes."""
    labels, old = np.arange(h.dim), None
    while not np.array_equal(labels, old):
        old = labels.copy()
        np.minimum.at(labels, h.rows, labels[h.cols])
        np.minimum.at(labels, h.cols, labels[h.rows])
        labels = labels[labels]
    return labels


def matrix_exp_sim(h, t: float) -> np.ndarray:
    """Time-evolution unitary e^{-i h t} of a dense or Sparse Hermitian
    matrix, block by block.

    The connected components of h's sparsity pattern split it into blocks
    with no entry between them, so e^{-i h t} is e^{-i b t} on each block b
    and zero between blocks.  The pattern is taken from the stored
    entries, and one dense copy of h is made for the blocks' gathers.  The
    blocks of one size are stacked and diagonalized by one batched eigh,
    so the output is unitary to rounding, and each block's V e^{-i w t}
    V^dag is scattered back.  A matrix whose imaginary part is exactly
    zero is checked and diagonalized as the real symmetric matrix it is.
    A phase w t past the float range raises ValueError: its exponential
    would be nan.
    """
    h = _hermitian(h)
    dim = h.shape[0]
    labels = _components(h)
    order = np.argsort(labels, kind="stable")   # block by block
    size = np.bincount(labels)[labels[order]]
    h = h.toarray()
    stacks = []
    for n in np.unique(size):
        seg = order[size == n].reshape(-1, n)   # a row of indices per block
        at = seg[:, :, None], seg[:, None, :]
        stacks.append((at, *np.linalg.eigh(h[at])))
    del h   # the blocks' eigenpairs are all that is left of it
    if not math.isfinite(max(float(abs(w).max()) for _, w, _ in stacks)
                         * abs(t)):
        raise ValueError(f"the phases w t of e^(-i h t) overflow at t = {t!r}")
    out = np.zeros((dim, dim), dtype=complex)
    for at, w, v in stacks:
        phased = np.multiply(np.exp(-1j * w * t)[:, :, None],
                             v.conj().swapaxes(1, 2), order="C")
        # a real v multiplies the real and imaginary columns of phased
        # side by side, as one real product
        out[at] = (v @ phased.view(v.dtype)).view(complex)
    return out


# ---------------------------------------------------------------------------
# Ground energy
# ---------------------------------------------------------------------------

# From this dimension on, Lanczos finds the ground pair faster than a dense
# eigh.  Measured on the spin and hopping chains (2 cores, OpenBLAS): at
# dim 128 a real eigh takes 1.3-1.5 ms and Lanczos 1.3-2.1 ms, at dim 256
# eigh 5.2-6.0 ms and Lanczos 2.0-3.1 ms.
LANCZOS_MIN_DIM = 256
LANCZOS_CHUNK = 64   # the rows the Lanczos basis grows by
LANCZOS_CHECK = 8    # the steps between two checks of the Ritz pair


@dataclass(frozen=True)
class GroundResult:
    energy: float
    state: FockState


def ground_energy(h, layout: SiteList) -> GroundResult:
    """Minimum eigenvalue and a normalized eigenvector, as a state on
    layout, whose dimension is that of h.

    h is a dense or a Sparse matrix; both take the same path for a given
    dimension.  Below LANCZOS_MIN_DIM a dense eigh diagonalizes it.  From
    there on ``_lanczos`` finds the lowest eigenpair from a Gaussian start
    vector of fixed seed, which overlaps every symmetry sector.  A matrix
    whose imaginary part is exactly zero is solved in the real field.  On
    a degenerate ground space the state is one vector of that space, the
    same on every run.
    """
    h = _hermitian(h)
    n = h.shape[0]
    if total_dim(layout) != n:
        raise ValueError("layout dimension does not match the matrix")
    if n < LANCZOS_MIN_DIM:
        w, v = np.linalg.eigh(h.toarray())
    elif not h.nnz:
        # no Krylov space grows from 0: the first basis vector, as eigh's
        w, v = [0.0], np.eye(n, 1)
    else:
        w, v = _lanczos(h, np.random.default_rng(0).standard_normal(n))
    vec = v[:, 0] / np.linalg.norm(v[:, 0])
    return GroundResult(float(w[0]), vector_to_state(vec, tuple(layout)))


def _lanczos(h: Sparse, v0: np.ndarray):
    """([theta], x as a column): the lowest Ritz pair of the Hermitian h on
    the Krylov space of v0, by the Lanczos method (Lanczos, 1950).  Each
    new vector is orthogonalized against the whole basis, twice: the
    three-term recurrence alone loses orthogonality as Ritz pairs converge
    (Paige, 1972).  The search stops once the residual beta |s_k| of the
    lowest pair is at most 2.2e-16 times the largest |theta|.  It is
    checked LANCZOS_CHECK steps apart, or sooner where its rate since the
    last check says it passes: past that, a degenerate partner of the
    ground level can surface from rounding and delay the stop by dozens of
    steps.  The basis grows by LANCZOS_CHUNK rows, never to n x n."""
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
            res, goal = beta[k] * abs(s[k, 0]), 2.2e-16 * abs(theta).max()
            if res <= goal:
                break
            rate = math.log(res / last[1]) / (k - last[0]) if last else 0
            ahead = math.log(goal / res) / rate if rate < 0 else LANCZOS_CHECK
            ahead = min(max(math.ceil(ahead), 1), LANCZOS_CHECK)
            due, last = k + 1 + ahead, (k, res)
        q = w / beta[k]
    return theta[:1], (s[:, 0] @ basis[:k + 1])[:, None]


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

PHASE_WINDOW = 0.35   # half-width of the phase search window
PHASE_XATOL = 1e-12   # the tolerance on the phase it finds
ROW_BLOCK = 256       # rows of a and b taken at a time before the search


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over alpha of ||a - e^{i alpha} b||_max (global-phase quotient).

    The search runs over |alpha - alpha0| <= PHASE_WINDOW, from the phase
    alpha0 of trace(b^dag a), or the best of a 64-point grid when that is
    negligible.  There each |a - e^{i alpha} b| stays within PHASE_WINDOW
    |b| of its value f0 at alpha0, so an entry whose f0 + PHASE_WINDOW |b|
    is below the largest f0 - PHASE_WINDOW |b| (less a relative
    COEFF_EQ_TOL) is never the maximum there, and the search skips it.
    A second search over a small window around the first one's phase
    finds it to PHASE_XATOL.

    The grid, f0 and the skip test go over ROW_BLOCK rows at a time, so
    beside a and b only one block's temporaries and the entries the
    search keeps (about 1% at 12 qubits) are held.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    blocks = [(a[i:i + ROW_BLOCK], b[i:i + ROW_BLOCK])
              for i in range(0, len(a), ROW_BLOCK)]

    def dist(alpha, a, b):
        return abs(a - np.exp(1j * alpha) * b).max()
    tr = np.vdot(b, a)  # trace(b^dag a) without the matrix product
    if not negligible(tr, np.vdot(abs(b), abs(a)), ZERO_TOL):
        alpha0 = float(np.angle(tr))
    else:
        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        alpha0 = float(grid[int(np.argmin(
            [max(dist(al, x, y) for x, y in blocks) for al in grid]))])
    bar, near = -math.inf, []   # the largest f0 - reach so far
    for x, y in blocks:
        f0 = abs(x - np.exp(1j * alpha0) * y)
        reach = PHASE_WINDOW * abs(y)
        bar = np.maximum(bar, (f0 - reach).max())
        high = f0 + reach
        # bar only rises, so this keeps every entry the final bar keeps
        at = np.flatnonzero(~(high < (1 - COEFF_EQ_TOL) * bar))
        near.append((x.take(at), y.take(at), high.take(at)))
    xs, ys, high = map(np.concatenate, zip(*near))
    # a nan threshold drops no entry
    keep = ~(high < (1 - COEFF_EQ_TOL) * bar)
    kept = partial(dist, a=xs[keep], b=ys[keep])
    lo, hi = alpha0 - PHASE_WINDOW, alpha0 + PHASE_WINDOW
    x, fun = _bounded_min(kept, lo, hi)
    # the bounded search stops once its bracket lies within 4 (sqrt(eps)
    # |x| + xatol / 3) of x; searched again as an offset from x, near 0,
    # the tolerance is xatol
    w = 4 * (math.sqrt(2.2e-16) * abs(x) + PHASE_XATOL / 3)
    _, fine = _bounded_min(lambda d: kept(x + d), max(lo - x, -w),
                           min(hi - x, w))
    # the largest f0 is kept, so kept(alpha0) is it
    return float(min(kept(alpha0), fun, fine))


def _bounded_min(f, lo: float, hi: float):
    """(x, f(x)) at a minimum of f on [lo, hi], to PHASE_XATOL: Brent's
    bounded search (FMIN of Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5).

    It transcribes scipy's ``optimize._minimize_scalar_bounded``
    (BSD-3-Clause) step for step and in the same arithmetic, so it returns
    scipy's x and f(x) to the bit: the same golden-section and parabolic
    steps, the stop rule on tol1 = sqrt(2.2e-16) |x| + xatol / 3, and at
    most 500 evaluations of f.  In scipy's names, x, w and v are xf, nfc
    and fulc, and d is rat.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    v = w = x = a + golden_mean * (b - a)
    fv = fw = fx = f(x)
    d = e = 0.0
    evals = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(x) + PHASE_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:   # a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = (p + 0.0) / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 * _sign(xm - x)
        if golden:
            e = (a if x >= xm else b) - x
            d = golden_mean * e
        u = x + _sign(d) * max(abs(d), tol1)
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + PHASE_XATOL / 3.0
        tol2 = 2.0 * tol1
        if evals >= 500:
            break
    return x, fx


def _sign(y: float) -> float:
    """np.sign(y) + (y == 0): 1 at +-0, nan at nan."""
    return -1.0 if y < 0 else 1.0 if y >= 0 else y
