"""Typing, canonical forms, and the Hermiticity certificate.

The flag lattice has H below P; ladder leaves start at P, identities at H.
Structural typing combines flags bottom-up, then a certificate pass tries to
promote the whole expression to H.  It canonicalizes the expression once and
compares that form with its adjoint, which ``adjoint`` computes from the
form's terms alone; when the two differ and the operator is small enough, a
dense-matrix check decides instead.  ``dag`` is the matrix adjoint in the
graded (Jordan-Wigner) sense: the adjoint of a product, a tensor product
included, reverses the order in which its operators apply, so two
fermion-odd tensor factors trade places with a minus sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DIM_CAP, LayoutError
from .expr import (
    Dagger, Fermion, Flag, HamExpr, Identity, Ladder, LadderKind, OpType,
    Seq, SiteList, Sum, Tensor, site_layout, total_dim,
)
from .linalg import expr_to_matrix

COEFF_EQ_TOL = 1e-12     # canonical-form coefficient comparison
COEFF_DROP_TOL = 1e-14   # below this a term is treated as zero
MATRIX_HERM_TOL = 1e-10  # max-norm tolerance for the dense fallback


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

    Adjoints are folded into the leaves, sums distributed out of tensor
    products and sequencing, cross-site products fused per site, like terms
    merged, and zero terms dropped.  Reordering fermionic ladder operators
    across sites multiplies the coefficient by -1 per transposition.
    """
    layout = site_layout(e)
    return _merge(layout, _terms(e))


def adjoint(form: CanonicalForm) -> CanonicalForm:
    """The canonical form of the adjoint, computed from the terms alone.

    Each coefficient is conjugated and each term's operators apply in
    reverse order with their kinds flipped; normal ordering again folds in
    the fermionic transposition signs.
    """
    raw = []
    for term in form.terms:
        ops = [(s, kind.flipped) for s, monomial in enumerate(term.factors)
               for kind in monomial]
        raw.append((term.coeff.conjugate(), ops[::-1]))
    return _merge(form.layout, raw)


def _merge(layout: SiteList, raw) -> CanonicalForm:
    """Normal-order (coeff, ops) pairs, merge like terms, drop zeros."""
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


def _terms(e: HamExpr, flip: bool = False) -> list:
    """List of (coeff, ops) with ops = [(site_index, kind), ...] in
    application order.

    With ``flip`` the list is that of the adjoint of ``e``: a leaf flips its
    ladder kind and conjugates its amplitude, Dagger toggles ``flip``, and a
    flipped Seq or Tensor applies the ops of its left operand after those of
    its right one.
    """
    return _terms_width(e, flip)[0]


def _terms_width(e: HamExpr, flip: bool) -> tuple[list, int]:
    """(_terms(e, flip), number of sites e acts on)."""
    if isinstance(e, Ladder):
        if flip:
            return [(e.amp.conjugate(), [(0, e.kind.flipped)])], 1
        return [(e.amp, [(0, e.kind)])], 1
    if isinstance(e, Identity):
        return [(e.amp.conjugate() if flip else e.amp, [])], 1
    if isinstance(e, Dagger):
        return _terms_width(e.inner, not flip)
    if not isinstance(e, (Sum, Seq, Tensor)):
        raise TypeError(f"not a HamExpr: {e!r}")
    left, width = _terms_width(e.left, flip)
    right, right_width = _terms_width(e.right, flip)
    if isinstance(e, Sum):
        return left + right, width
    if isinstance(e, Seq):
        # the right operand applies first, the left one under the adjoint
        first, then = (left, right) if flip else (right, left)
        return [(ct * cf, of + ot) for ct, ot in then for cf, of in first], width
    right = [(cr, [(s + width, k) for s, k in orr]) for cr, orr in right]
    return ([(cl * cr, orr + ol if flip else ol + orr)
             for cl, ol in left for cr, orr in right], width + right_width)


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

def hermiticity_report(e: HamExpr) -> tuple[bool, str, CanonicalForm]:
    """Decide Hermiticity; report which check decided and the canonical form.

    The syntactic certificate compares the canonical form of e with its
    adjoint; it is sound but incomplete (it never reorders non-commuting
    factors).  When it answers no and the total dimension fits the dense
    cap, the matrix check ||M - M^dag||_max <= 1e-10 decides instead.
    """
    form = canonicalize(e)
    if canonical_allclose(adjoint(form), form):
        return True, "syntactic", form
    if total_dim(form.layout) <= DIM_CAP:
        m = expr_to_matrix(e)
        ok = abs(m - m.conj().T).max() <= MATRIX_HERM_TOL
        return bool(ok), "matrix", form
    return False, "syntactic", form


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
