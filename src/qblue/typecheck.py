"""Typing, equational rewriting, and the Hermiticity certificate.

The flag lattice has H below P; ladder leaves start at P, identities at H.
Structural typing combines flags bottom-up, then a certificate pass tries to
promote the whole expression to H by checking that its dagger rewrites to an
identical canonical form.  When the syntactic certificate fails and the
operator is small enough, a dense-matrix check decides instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LayoutError
from .expr import (
    Boson, Dagger, Fermion, Flag, HamExpr, Identity, Ladder, LadderKind,
    OpType, Seq, SiteList, Sum, Tensor, site_layout, total_dim,
)

COEFF_EQ_TOL = 1e-12     # canonical-form coefficient comparison
COEFF_DROP_TOL = 1e-14   # below this a term is treated as zero
MATRIX_HERM_TOL = 1e-10  # max-norm tolerance for the dense fallback
MATRIX_DIM_CAP = 2 ** 12


# ---------------------------------------------------------------------------
# Dagger normalization (push adjoints to the leaves)
# ---------------------------------------------------------------------------

def dagger_normalize(e: HamExpr) -> HamExpr:
    """Rewrite so that no Dagger node remains.

    Adjoints distribute over sums and tensor products, reverse products, and
    cancel pairwise; at a leaf the adjoint flips the ladder kind and
    conjugates the amplitude.
    """
    return _dag_norm(e, False)


def _dag_norm(e: HamExpr, flip: bool) -> HamExpr:
    if isinstance(e, Ladder):
        if flip:
            return Ladder(e.kind.flipped, e.site, e.amp.conjugate())
        return e
    if isinstance(e, Identity):
        if flip:
            return Identity(e.site, e.amp.conjugate())
        return e
    if isinstance(e, Dagger):
        return _dag_norm(e.inner, not flip)
    if isinstance(e, Tensor):
        return Tensor(_dag_norm(e.left, flip), _dag_norm(e.right, flip))
    if isinstance(e, Sum):
        return Sum(_dag_norm(e.left, flip), _dag_norm(e.right, flip))
    if isinstance(e, Seq):
        if flip:
            return Seq(_dag_norm(e.right, flip), _dag_norm(e.left, flip))
        return Seq(_dag_norm(e.left, flip), _dag_norm(e.right, flip))
    raise TypeError(f"not a HamExpr: {e!r}")


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTerm:
    """coeff times a product of ladder operators, one monomial per site.

    ``factors[k]`` is the tuple of LadderKind applied at site k, listed in
    application order (first applied first).  Operators at distinct sites are
    listed site-ascending; anti-commutation signs from reordering fermionic
    operators have been folded into ``coeff``.
    """

    coeff: complex
    factors: tuple  # tuple[tuple[LadderKind, ...], ...], one per site


@dataclass(frozen=True)
class CanonicalForm:
    layout: SiteList
    terms: tuple  # tuple[CanonicalTerm, ...], sorted by factors


_KIND_ORD = {LadderKind.CREATE: 0, LadderKind.ANNIHILATE: 1}


def canonicalize(e: HamExpr) -> CanonicalForm:
    """Flatten to a sorted sum of per-site ladder monomials.

    Daggers are pushed to leaves, sums distributed out of tensor products and
    sequencing, cross-site products fused per site, like terms merged, and
    zero terms dropped.  Reordering fermionic ladder operators across sites
    multiplies the coefficient by -1 per transposition.
    """
    layout = site_layout(e)
    raw = _terms(dagger_normalize(e))
    merged: dict[tuple, complex] = {}
    for coeff, ops in raw:
        coeff, key = _normal_order(coeff, ops, layout)
        merged[key] = merged.get(key, 0j) + coeff
    terms = []
    for key in sorted(merged, key=_term_sort_key):
        c = merged[key]
        if abs(c) > COEFF_DROP_TOL:
            factors = _key_to_factors(key, len(layout))
            terms.append(CanonicalTerm(c, factors))
    return CanonicalForm(layout, tuple(terms))


def _terms(e: HamExpr) -> list:
    """List of (coeff, ops) with ops = [(site_index, kind), ...] in
    application order.  Expects a dagger-normalized expression."""
    if isinstance(e, Ladder):
        return [(e.amp, [(0, e.kind)])]
    if isinstance(e, Identity):
        return [(e.amp, [])]
    if isinstance(e, Sum):
        return _terms(e.left) + _terms(e.right)
    if isinstance(e, Seq):
        # right operand applies first
        right = _terms(e.right)
        return [(cl * cr, orr + ol)
                for cl, ol in _terms(e.left) for cr, orr in right]
    if isinstance(e, Tensor):
        off = len(site_layout(e.left))
        right = [(cr, [(s + off, k) for s, k in orr])
                 for cr, orr in _terms(e.right)]
        return [(cl * cr, ol + orr)
                for cl, ol in _terms(e.left) for cr, orr in right]
    if isinstance(e, Dagger):
        raise AssertionError("dagger_normalize left a Dagger node")
    raise TypeError(f"not a HamExpr: {e!r}")


def _normal_order(coeff, ops, layout):
    """Stable-sort ops by site; swapping two fermionic ladder operators at
    distinct sites flips the sign of the coefficient."""
    ops = list(ops)
    n = len(ops)
    for i in range(1, n):
        j = i
        while j > 0 and ops[j - 1][0] > ops[j][0]:
            if isinstance(layout[ops[j - 1][0]], Fermion) and \
               isinstance(layout[ops[j][0]], Fermion):
                coeff = -coeff
            ops[j - 1], ops[j] = ops[j], ops[j - 1]
            j -= 1
    key = tuple((s, _KIND_ORD[k]) for s, k in ops)
    return coeff, key


def _term_sort_key(key):
    return (len(key), key)


def _key_to_factors(key, nsites):
    factors = [[] for _ in range(nsites)]
    inv = {0: LadderKind.CREATE, 1: LadderKind.ANNIHILATE}
    for s, k in key:
        factors[s].append(inv[k])
    return tuple(tuple(f) for f in factors)


def canonical_allclose(a: CanonicalForm, b: CanonicalForm,
                       tol: float = COEFF_EQ_TOL) -> bool:
    if a.layout != b.layout or len(a.terms) != len(b.terms):
        return False
    for ta, tb in zip(a.terms, b.terms):
        if ta.factors != tb.factors or abs(ta.coeff - tb.coeff) > tol:
            return False
    return True


def canonical_to_expr(form: CanonicalForm) -> HamExpr:
    """Rebuild an expression with the same operator meaning as the form.

    Each term becomes a product of identity-padded single-site layers applied
    site-ascending (site 0's monomial first), which is the order the
    coefficients were normalized against.
    """
    from .expr import ham_sum, identity_chain, scale, seq, tensor
    layout = form.layout
    if not form.terms:
        return scale(0.0, identity_chain(layout))
    parts = []
    for term in form.terms:
        layers = []
        for s, monomial in enumerate(term.factors):
            for kind in monomial:
                factors = [Identity(st) for st in layout]
                factors[s] = Ladder(kind, layout[s])
                layers.append(tensor(*factors))
        # later sites apply after earlier ones: seq lists last-applied first
        if layers:
            body = seq(*reversed(layers))
        else:
            body = identity_chain(layout)
        parts.append(scale(term.coeff, body))
    return ham_sum(*parts)


# ---------------------------------------------------------------------------
# Hermiticity certificate
# ---------------------------------------------------------------------------

def hermiticity_report(e: HamExpr) -> tuple[bool, str]:
    """Decide Hermiticity and report which check decided.

    The syntactic certificate compares the canonical forms of e and its
    dagger; it is sound but incomplete (it never reorders non-commuting
    factors).  When it answers no and the total dimension fits the dense
    cap, the matrix check ||M - M^dag||_max <= 1e-10 decides instead.
    """
    if canonical_allclose(canonicalize(Dagger(e)), canonicalize(e)):
        return True, "syntactic"
    layout = site_layout(e)
    if total_dim(layout) <= MATRIX_DIM_CAP:
        from .linalg import expr_to_matrix
        m = expr_to_matrix(e)
        ok = abs(m - m.conj().T).max() <= MATRIX_HERM_TOL
        return bool(ok), "matrix"
    return False, "syntactic"


def is_hermitian(e: HamExpr) -> bool:
    return hermiticity_report(e)[0]


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def typecheck(e: HamExpr, promote: bool = True) -> OpType:
    """Infer the operator type F[flag](sites).

    One bottom-up walk gives both the structural flag and the site list:
    ladders are P, identities H; tensor and sum of two H operators stay H,
    any P weakens the result to P; sequencing joins flags; tensor
    concatenates site lists and Sum/Seq branches must agree on theirs.  With
    ``promote`` the Hermiticity certificate then lifts the root to H when it
    succeeds.  Layout mismatches in Sum/Seq raise LayoutError with the
    offending path.
    """
    flag, layout = _structural(e, "root")
    if promote and flag is Flag.P and is_hermitian(e):
        flag = Flag.H
    return OpType(flag, layout)


def _structural(e: HamExpr, path: str) -> tuple[Flag, SiteList]:
    if isinstance(e, Ladder):
        return Flag.P, (e.site,)
    if isinstance(e, Identity):
        flag = Flag.H if abs(e.amp.imag) <= COEFF_EQ_TOL else Flag.P
        return flag, (e.site,)
    if isinstance(e, Dagger):
        return _structural(e.inner, path + ".inner")
    if isinstance(e, (Tensor, Sum, Seq)):
        lflag, ll = _structural(e.left, path + ".left")
        rflag, rl = _structural(e.right, path + ".right")
        # mixed flags weaken to P; H survives only when both sides are H
        flag = lflag.join(rflag)
        if isinstance(e, Tensor):
            return flag, ll + rl
        if ll != rl:
            kind = "sum" if isinstance(e, Sum) else "seq"
            raise LayoutError(f"{kind} branches act on different site lists",
                              path, ll, rl)
        return flag, ll
    raise TypeError(f"not a HamExpr: {e!r}")
