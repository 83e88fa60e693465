"""Typing, canonical forms, and the Hermiticity certificate.

The flag lattice has H below P; ladder leaves start at P, identities at H.
Structural typing combines flags bottom-up, then a certificate pass tries to
promote the whole expression to H.  It canonicalizes the expression once and
compares that form with its adjoint, which ``adjoint`` computes from the
form's terms alone.  Equal ladder forms certify at once; otherwise both
forms are rewritten in a basis of each site's operators, the identity and
the matrix units |m><n|, and their coefficients decide exactly, at any
size and without a matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import COEFF_EQ_TOL, ZERO_TOL
from .expr import (
    Atom, Fermion, Flag, HamExpr, LadderKind, OpType, Seq, SiteList, Sum,
    site_dim,
)


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

    Sums are distributed out of products, cross-site products fused per
    site, like terms merged, and zero terms dropped.  Reordering fermionic
    ladder operators across sites multiplies the coefficient by -1 per
    transposition.
    """
    return _merge(e.layout, _terms(e))


def adjoint(form: CanonicalForm) -> CanonicalForm:
    """The canonical form of the adjoint, computed from the terms alone:
    each coefficient conjugated, each term's operators applied in reverse
    order with their kinds flipped.  Normal ordering again folds in the
    fermionic transposition signs."""
    return _merge(form.layout, [
        (term.coeff.conjugate(),
         [(s, kind.flipped) for s, monomial in reversed(term.factors)
          for kind in reversed(monomial)])
        for term in form.terms])


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
        if abs(c) > ZERO_TOL:
            terms.append(CanonicalTerm(c, _key_to_factors(key)))
    return CanonicalForm(layout, tuple(terms))


def _terms(e: HamExpr) -> list:
    """List of (coeff, ops) with ops = [(site_index, kind), ...] in
    application order."""
    if isinstance(e, Atom):
        return [(e.amp, list(e.ops))]
    if isinstance(e, Sum):
        return [t for c in e.children for t in _terms(c)]
    if not isinstance(e, Seq):
        raise TypeError(f"not a HamExpr: {e!r}")
    # fold from the right: out holds the terms of the children after part,
    # which apply first
    parts = [_terms(c) for c in e.children]
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = [(cc * ca, oa + oc) for cc, oc in part for ca, oa in out]
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


def canonical_allclose(a: CanonicalForm, b: CanonicalForm) -> bool:
    """Equal layouts and factors, and coefficients within COEFF_EQ_TOL."""
    if a.layout != b.layout or len(a.terms) != len(b.terms):
        return False
    for ta, tb in zip(a.terms, b.terms):
        if ta.factors != tb.factors or abs(ta.coeff - tb.coeff) > COEFF_EQ_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Hermiticity certificate
# ---------------------------------------------------------------------------

def hermiticity_report(e: HamExpr) -> tuple[bool, CanonicalForm]:
    """Decide Hermiticity exactly; report the verdict and the canonical form.

    Equal ladder forms of e and its adjoint certify at once.  Unequal ones
    may still be one operator written two ways, such as ``a adag`` and
    ``1 - adag a`` on a two-level site, so both are then compared in the
    basis of ``_site_coefficients``, where equal operators have equal
    coefficients.  Both comparisons use COEFF_EQ_TOL; no matrix is built.
    """
    form = canonicalize(e)
    dual = adjoint(form)
    if canonical_allclose(dual, form):
        return True, form
    a, b = _site_coefficients(form), _site_coefficients(dual)
    return all(abs(a.get(k, 0) - b.get(k, 0)) <= COEFF_EQ_TOL
               for k in a.keys() | b.keys()), form


def _site_coefficients(form: CanonicalForm) -> dict:
    """Coefficients of the form's operator in a basis of site products.

    Each monomial expands into its site's identity and matrix units
    (``site_units``); a key lists the (site, (m, n)) units of one product.  A
    unit keeps its monomial's fermion parity, so the signs folded into the
    coefficients still hold, and two forms are one operator exactly when
    their coefficients agree.
    """
    dims = [site_dim(site) for site in form.layout]
    out: dict = {}
    for term in form.terms:
        for choice in itertools.product(*(site_units(dims[s], monomial)
                                          for s, monomial in term.factors)):
            key = tuple((s, unit) for (s, _), (unit, _)
                        in zip(term.factors, choice) if unit is not None)
            out[key] = out.get(key, 0j) + term.coeff * math.prod(
                w for _, w in choice)
    return out


@functools.cache
def site_units(dim: int, monomial: tuple) -> tuple:
    """(unit, weight) pairs that sum to a monomial on a dim-level site.

    The monomial maps |n> to w_n |n + s>, so it is the sum of w_n |n + s><n|;
    on the diagonal it is w_0 I + sum_{n >= 1} (w_n - w_0) |n><n|, with None
    for I.  Each w_n is the square root of an exact integer, so one weight
    is one float in every monomial.  The certificate compares in this basis,
    and ``encodings`` gives each unit its Pauli table.
    """
    shift = 2 * monomial.count(LadderKind.CREATE) - len(monomial)
    weights = []
    for n in range(dim):
        occ, square = n, 1
        for kind in monomial:
            out = occ + 1 if kind is LadderKind.CREATE else occ - 1
            square *= max(occ, out) if 0 <= out < dim else 0
            occ = out
        # a weight past the float range compares equal to nothing
        weights.append(math.sqrt(square) if square < 2 ** 1023 else math.inf)
    if shift:
        return tuple(((n + shift, n), w) for n, w in enumerate(weights) if w)
    w0 = weights[0]
    diag = [((n, n), w - w0) for n, w in enumerate(weights) if n and w != w0]
    return (((None, w0),) if w0 else ()) + tuple(diag)


def is_hermitian(e: HamExpr) -> bool:
    return hermiticity_report(e)[0]


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def typecheck(e: HamExpr, promote: bool = True) -> OpType:
    """Infer the operator type F[flag](sites).

    The site list is the one the root stored when it was built, and one
    walk gives the structural flag: an atom listing no ladder is H when its
    amplitude is real, any other atom P; sum and sequencing join their
    children's flags, so H survives only when every child is H.  With
    ``promote`` the Hermiticity certificate then lifts the root to H when it
    succeeds.
    """
    flag = _flag(e)
    if promote and flag is Flag.P and is_hermitian(e):
        flag = Flag.H
    return OpType(flag, e.layout)


def _flag(e: HamExpr) -> Flag:
    if isinstance(e, Atom):
        real = abs(e.amp.imag) <= COEFF_EQ_TOL
        return Flag.H if real and not e.ops else Flag.P
    if isinstance(e, (Sum, Seq)):
        return Flag.P if Flag.P in map(_flag, e.children) else Flag.H
    raise TypeError(f"not a HamExpr: {e!r}")
