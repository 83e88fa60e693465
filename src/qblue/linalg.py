"""Dense-matrix backend: expression lowering, exp/log, ground energy.

This is the desk-scale oracle the rest of the package is checked against,
and it shares no code with the canonical forms of ``typecheck``: it lowers
the expression tree itself.  Expressions lower structurally to pairs of
scipy.sparse CSR matrices graded by fermionic ladder parity (even, odd),
with None for an absent grade, and are densified once at the end.  An atom
has at most one nonzero per column and is built in one O(N dim) step from
its sparse map of ladders; tensors of other expressions compose by the
graded Kronecker rule, so tensor composition picks up the same
anti-commutation signs the interpreter produces (the Jordan-Wigner sign
convention), and sums and products are sparse additions and products.
``Dagger`` lowers as the conjugate transpose of its operand's graded pair;
the adjoint keeps each grade.  The cost of a call is then bounded by the
nonzeros of the intermediate operators plus one dim x dim densification,
not by dense dim^3 products.  Exponentials use the e^{-i h t} convention
throughout, so Hermitian input gives a unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .errors import (
    AMP_PRUNE_TOL, DIM_CAP, HERMITIAN_TOL, UNITARY_TOL, DimensionCapError,
    NonHermitianError,
)
from .expr import (
    Atom, Boson, Dagger, Fermion, HamExpr, LadderKind, Seq, SiteList, Sum,
    Tensor, site_dim, site_layout, total_dim,
)


def _parity_diag(layout: SiteList) -> np.ndarray:
    """Diagonal of (-1)^(occupied fermionic sites) over the layout basis."""
    diag = np.ones(1)
    for site in layout:
        if isinstance(site, Fermion):
            diag = np.kron(diag, np.array([1.0, -1.0]))
        else:
            diag = np.kron(diag, np.ones(site_dim(site)))
    return diag


def expr_to_matrix(e: HamExpr) -> np.ndarray:
    """Matrix M with M v(s) = v(apply(e, s)) for every basis state s."""
    layout = e.layout or site_layout(e)
    dim = total_dim(layout)
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIM_CAP}")
    m = _add(*_lower(e))
    # scipy's kron drops to float when a factor has no nonzero
    return m.toarray().astype(complex, copy=False)


def _lower(e):
    """(even, odd) CSR matrices graded by fermionic ladder parity; None
    stands for an absent grade."""
    if isinstance(e, Atom):
        return _monomial(e)
    if isinstance(e, Dagger):
        even, odd = _lower(e.inner)
        return _adjoint(even), _adjoint(odd)
    if not isinstance(e, (Sum, Seq, Tensor)):
        raise TypeError(f"not a HamExpr: {e!r}")
    # fold from the right, as the right-nested binary product would
    even, odd = _lower(e.children[-1])
    for c in reversed(e.children[:-1]):
        e1, o1 = _lower(c)
        if isinstance(e, Sum):
            even, odd = _add(e1, even), _add(o1, odd)
        elif isinstance(e, Seq):
            even, odd = (_add(_mul(e1, even), _mul(o1, odd)),
                         _add(_mul(e1, odd), _mul(o1, even)))
        else:
            # the right block's odd part sees the left block's
            # post-application parity, realized by the diagonal sign g
            g = _parity_diag(c.layout)
            even, odd = (_add(_kron(e1, even), _kron(_scale_rows(o1, g), odd)),
                         _add(_kron(o1, even), _kron(_scale_rows(e1, g), odd)))
    return even, odd


def _monomial(atom: Atom):
    """Graded CSR pair of an atom.

    Every ladder maps a basis state to at most one basis state, so the atom
    has at most one nonzero per column.  Walking the sites from the right,
    each fermionic site with an odd number of fermionic ladders to its
    right takes the sign (-1)^(its output occupation), as the graded
    Kronecker rule in _lower would give it.
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
    m = scipy.sparse.csr_array((atom.amp * vals[keep],
                                (rows[keep], cols[keep])), shape=(dim, dim))
    return (None, m) if odd else (m, None)


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _adjoint(m):
    return None if m is None else m.conj().T.tocsr()


def _mul(a, b):
    return None if a is None or b is None else a @ b


def _kron(a, b):
    if a is None or b is None:
        return None
    return scipy.sparse.kron(a, b, format="csr")


def _scale_rows(m, g):
    """diag(g) @ m for a CSR matrix m; None passes through."""
    if m is None:
        return None
    out = m.copy()
    out.data *= np.repeat(g, np.diff(m.indptr))
    return out


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
                    tol: float = AMP_PRUNE_TOL):
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
# Exponential / logarithm
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


def matrix_log(u: np.ndarray) -> np.ndarray:
    """Principal Hermitian generator: h with e^{-i h} = u up to rounding.

    Eigenphases of h lie in (-pi, pi].  Matrix logarithms are not unique;
    this fixes the principal branch.
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    err = abs(u.conj().T @ u - np.eye(dim)).max()
    if err > UNITARY_TOL:
        raise ValueError(f"matrix deviates from unitary by {err:g}")
    # Schur of a unitary is diagonal with an orthonormal basis, which keeps
    # the reconstruction Hermitian even for degenerate eigenvalues
    t, v = scipy.linalg.schur(u, output="complex")
    lam = np.diag(t)
    phases = -np.angle(lam)
    phases[phases <= -math.pi + 1e-15] = math.pi
    h = (v * phases) @ v.conj().T
    return (h + h.conj().T) / 2


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
# Comparison helpers and dump format
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


def dump_matrix(m: np.ndarray) -> str:
    """Dimension header plus row-major 're im' pairs, one row per line."""
    m = np.asarray(m, dtype=complex)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim = int(lines[0])
    m = np.zeros((dim, dim), dtype=complex)
    for i, ln in enumerate(lines[1:dim + 1]):
        vals = [float(x) for x in ln.split()]
        for j in range(dim):
            m[i, j] = complex(vals[2 * j], vals[2 * j + 1])
    return m
