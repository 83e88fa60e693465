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

from .errors import COEFF_DROP_TOL, COEFF_EQ_TOL, DIM_CAP, HERMITIAN_TOL
from .expr import (
    Atom, Dagger, Fermion, Flag, HamExpr, LadderKind, OpType, Seq, SiteList,
    Sum, Tensor, ham_sum, scale, seq, site_layout, total_dim,
)
from .linalg import expr_to_matrix


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTerm:
    """coeff times a product of ladder monomials at the active sites.

    ``factors`` lists (site, monomial) pairs, site-ascending, for the sites
    the term acts on; every other site carries the identity.  A monomial is
    the tuple of LadderKind applied at its site, in application order
    (first applied first).  The sites apply in ascending order;
    anti-commutation signs from reordering fermionic operators have been
    folded into ``coeff``.
    """

    coeff: complex
    factors: tuple  # tuple[tuple[int, tuple[LadderKind, ...]], ...]


@dataclass(frozen=True)
class CanonicalForm:
    layout: SiteList
    terms: tuple  # tuple[CanonicalTerm, ...], sorted by factors


_KIND_ORD = {LadderKind.CREATE: 0, LadderKind.ANNIHILATE: 1}
_ORD_KIND = (LadderKind.CREATE, LadderKind.ANNIHILATE)


def canonicalize(e: HamExpr) -> CanonicalForm:
    """Flatten to a sorted sum of per-site ladder monomials.

    Adjoints are folded into the atoms, sums distributed out of tensor
    products and sequencing, cross-site products fused per site, like terms
    merged, and zero terms dropped.  Reordering fermionic ladder operators
    across sites multiplies the coefficient by -1 per transposition.
    """
    return _merge(e.layout or site_layout(e), _terms(e))


def adjoint(form: CanonicalForm) -> CanonicalForm:
    """The canonical form of the adjoint, computed from the terms alone.

    Each coefficient is conjugated and each term's operators apply in
    reverse order with their kinds flipped; normal ordering again folds in
    the fermionic transposition signs.
    """
    raw = []
    for term in form.terms:
        ops = [(s, kind.flipped) for s, monomial in term.factors
               for kind in monomial]
        raw.append((term.coeff.conjugate(), ops[::-1]))
    return _merge(form.layout, raw)


def _merge(layout: SiteList, raw) -> CanonicalForm:
    """Normal-order (coeff, ops) pairs, merge like terms, drop zeros."""
    fermionic = [isinstance(site, Fermion) for site in layout]
    merged: dict[tuple, complex] = {}
    for coeff, ops in raw:
        coeff, key = _normal_order(coeff, ops, fermionic)
        merged[key] = merged.get(key, 0j) + coeff
    terms = []
    for key in sorted(merged, key=_term_sort_key):
        c = merged[key]
        if abs(c) > COEFF_DROP_TOL:
            terms.append(CanonicalTerm(c, _key_to_factors(key)))
    return CanonicalForm(layout, tuple(terms))


def _terms(e: HamExpr, flip: bool = False) -> list:
    """List of (coeff, ops) with ops = [(site_index, kind), ...] in
    application order.

    With ``flip`` the list is that of the adjoint of ``e``: an atom
    conjugates its amplitude and applies its ops in reverse with their kinds
    flipped, Dagger toggles ``flip``, and a flipped Seq or Tensor applies
    its children in the opposite order.
    """
    if isinstance(e, Atom):
        if flip:
            return [(e.amp.conjugate(),
                     [(s, kind.flipped) for s, kind in reversed(e.ops)])]
        return [(e.amp, list(e.ops))]
    if isinstance(e, Dagger):
        return _terms(e.inner, not flip)
    if isinstance(e, Sum):
        return [t for c in e.children for t in _terms(c, flip)]
    if isinstance(e, Seq):
        parts = [_terms(c, flip) for c in e.children]
        later = not flip   # the last child applies first, unless flipped
    elif isinstance(e, Tensor):
        parts, offset = [], 0
        for c in e.children:
            parts.append([(cc, [(s + offset, k) for s, k in ops])
                          for cc, ops in _terms(c, flip)])
            offset += len(c.layout)
        later = flip       # the first child applies first, unless flipped
    else:
        raise TypeError(f"not a HamExpr: {e!r}")
    # fold from the right: out holds the terms of the children after part
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = [(cc * ca, oa + oc if later else oc + oa)
               for cc, oc in part for ca, oa in out]
    return out


def _normal_order(coeff, ops, fermionic):
    """Stable-sort ops by site; swapping two fermionic ladder operators at
    distinct sites flips the sign of the coefficient."""
    ops = list(ops)
    n = len(ops)
    for i in range(1, n):
        j = i
        while j > 0 and ops[j - 1][0] > ops[j][0]:
            if fermionic[ops[j - 1][0]] and fermionic[ops[j][0]]:
                coeff = -coeff
            ops[j - 1], ops[j] = ops[j], ops[j - 1]
            j -= 1
    key = tuple([(s, _KIND_ORD[k]) for s, k in ops])
    return coeff, key


def _term_sort_key(key):
    return (len(key), key)


def _key_to_factors(key):
    """(site, monomial) pairs of a site-sorted key."""
    factors: list = []
    for s, k in key:
        if factors and factors[-1][0] == s:
            factors[-1][1].append(_ORD_KIND[k])
        else:
            factors.append((s, [_ORD_KIND[k]]))
    return tuple((s, tuple(monomial)) for s, monomial in factors)


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

    Each term becomes its coefficient times a product of indexed atoms, one
    per ladder operator, applied site-ascending (the first operator of
    site 0's monomial first), which is the order the coefficients were
    normalized against.  A term without operators is the identity atom.
    """
    layout = form.layout
    if not form.terms:
        return Atom(layout, (), 0.0)
    parts = []
    for term in form.terms:
        layers = [Atom(layout, ((s, kind),)) for s, monomial in term.factors
                  for kind in monomial]
        # seq lists the last-applied factor first
        body = seq(*reversed(layers)) if layers else Atom(layout)
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
    cap, the matrix check ||M - M^dag||_max <= HERMITIAN_TOL decides
    instead.
    """
    form = canonicalize(e)
    if canonical_allclose(adjoint(form), form):
        return True, "syntactic", form
    if total_dim(form.layout) <= DIM_CAP:
        m = expr_to_matrix(e)
        ok = abs(m - m.conj().T).max() <= HERMITIAN_TOL
        return bool(ok), "matrix", form
    return False, "syntactic", form


def is_hermitian(e: HamExpr) -> bool:
    return hermiticity_report(e)[0]


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def typecheck(e: HamExpr, promote: bool = True) -> OpType:
    """Infer the operator type F[flag](sites).

    The site list is the one the root stored when it was built, and one
    walk gives the structural flag: an atom listing no ladder is H when its
    amplitude is real, any other atom P; tensor, sum and sequencing join
    their children's flags, so H survives only when every child is H.  With
    ``promote`` the Hermiticity certificate then lifts the root to H when it
    succeeds.  Layout mismatches in Sum/Seq raise LayoutError with the
    offending path.
    """
    layout = e.layout or site_layout(e)
    flag = _flag(e)
    if promote and flag is Flag.P and is_hermitian(e):
        flag = Flag.H
    return OpType(flag, layout)


def _flag(e: HamExpr) -> Flag:
    if isinstance(e, Atom):
        real = abs(e.amp.imag) <= COEFF_EQ_TOL
        return Flag.H if real and not e.ops else Flag.P
    if isinstance(e, Dagger):
        return _flag(e.inner)
    if isinstance(e, (Tensor, Sum, Seq)):
        for c in e.children:
            if _flag(c) is Flag.P:
                return Flag.P
        return Flag.H
    raise TypeError(f"not a HamExpr: {e!r}")
