"""Dense-matrix backend: expression lowering, exponential, ground energy.

This is the desk-scale oracle the rest of the package is checked against,
and it shares no code with the canonical forms of ``typecheck``: it lowers
the expression tree itself.  An expression lowers structurally to one
scipy.sparse CSR matrix, densified once at the end.  An atom has at most
one nonzero per column and is built in one O(N dim) step from its sparse
map of ladders, with the Jordan-Wigner signs the interpreter produces; a
sum adds its children's matrices and a product multiplies them.  An
adjoint is no node of its own (``expr.dagger`` builds it from atoms), so
the lowering never transposes.  The cost of a call is then bounded by the
nonzeros of the intermediate operators plus one dim x dim densification,
not by dense dim^3 products.  Exponentials use the
e^{-i h t} convention throughout, so Hermitian input gives a unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from .errors import (
    DIM_CAP, HERMITIAN_TOL, ZERO_TOL, DimensionCapError, NonHermitianError,
)
from .expr import (
    Atom, Boson, Fermion, HamExpr, LadderKind, Seq, SiteList, Sum, site_dim,
    total_dim,
)


def expr_to_matrix(e: HamExpr) -> np.ndarray:
    """Matrix M with M v(s) = v(apply(e, s)) for every basis state s."""
    dim = total_dim(e.layout)
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIM_CAP}")
    return _lower(e).toarray()


def _lower(e):
    """The CSR matrix of e."""
    if isinstance(e, Atom):
        return _monomial(e)
    if not isinstance(e, (Sum, Seq)):
        raise TypeError(f"not a HamExpr: {e!r}")
    # fold from the right, as the right-nested binary product would
    m = _lower(e.children[-1])
    for c in reversed(e.children[:-1]):
        m = _lower(c) + m if isinstance(e, Sum) else _lower(c) @ m
    return m


def _monomial(atom: Atom):
    """CSR matrix of an atom.

    Every ladder maps a basis state to at most one basis state, so the atom
    has at most one nonzero per column.  Walking the sites from the right,
    each fermionic site with an odd number of fermionic ladders to its
    right takes the sign (-1)^(its output occupation): the Jordan-Wigner
    string of those ladders.
    """
    layout = atom.layout
    dim = total_dim(layout)
    cols = np.arange(dim)
    rows = cols.copy()
    vals = np.ones(dim, dtype=complex)
    kinds = dict(atom.ops)
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
            out = occ + step
            # sqrt of the larger occupation; zero where out leaves 0..d-1
            vals *= np.where((out >= 0) & (out < d),
                             np.sqrt(np.maximum(occ, out)), 0)
            rows += step * stride
            occ = out
        if fermionic:
            if odd:
                vals *= 1 - 2 * (occ & 1)
            odd ^= kind is not None
        stride *= d
    keep = vals != 0
    return scipy.sparse.csr_array((atom.amp * vals[keep],
                                   (rows[keep], cols[keep])), shape=(dim, dim))


def state_to_vector(s) -> np.ndarray:
    """Column vector of a FockState in the row-major occupation basis."""
    dims = [site_dim(site) for site in s.layout]
    v = np.zeros(int(np.prod(dims)) if dims else 1, dtype=complex)
    for ket in s.terms:
        idx = 0
        for k, d in zip(ket.occ, dims):
            idx = idx * d + k
        v[idx] += ket.amp
    return v


def vector_to_state(v: np.ndarray, layout: SiteList,
                    tol: float = ZERO_TOL):
    from .fock import make_state
    dims = [site_dim(site) for site in layout]
    kets = []
    for idx, amp in enumerate(v):
        if abs(amp) <= tol:
            continue
        occ = []
        rem = idx
        for d in reversed(dims):
            occ.append(rem % d)
            rem //= d
        kets.append((amp, tuple(reversed(occ))))
    return make_state(layout, kets)


# ---------------------------------------------------------------------------
# Exponential
# ---------------------------------------------------------------------------

def check_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL):
    err = abs(h - h.conj().T).max()
    if err > tol:
        raise NonHermitianError(f"matrix deviates from Hermitian by {err:g}")


def matrix_exp_sim(h: np.ndarray, t: float) -> np.ndarray:
    """Time-evolution unitary e^{-i h t} of a Hermitian matrix.

    Uses the eigendecomposition, so the output is unitary to rounding.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[0] > DIM_CAP:
        raise DimensionCapError(f"dimension {h.shape[0]} exceeds cap {DIM_CAP}")
    check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# Ground energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundResult:
    energy: float
    state: object  # FockState


def ground_energy(h: np.ndarray, layout: SiteList = None) -> GroundResult:
    """Minimum eigenvalue and a normalized eigenvector in ket form."""
    h = np.asarray(h, dtype=complex)
    if h.shape[0] > DIM_CAP:
        raise DimensionCapError(f"dimension {h.shape[0]} exceeds cap {DIM_CAP}")
    check_hermitian(h)
    if layout is None:
        layout = (Boson(h.shape[0]),)
    if total_dim(layout) != h.shape[0]:
        raise ValueError("layout dimension does not match the matrix")
    w, v = np.linalg.eigh(h)
    vec = v[:, 0]
    vec = vec / np.linalg.norm(vec)
    return GroundResult(float(w[0]), vector_to_state(vec, tuple(layout)))


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over alpha of ||a - e^{i alpha} b||_max (global-phase quotient)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)

    def dist(alpha):
        return abs(a - np.exp(1j * alpha) * b).max()

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

