"""Typing, canonical forms, and the Hermiticity certificate.

The flag lattice has H below P; ladder leaves start at P, identities at H.
Structural typing combines flags bottom-up, then a certificate pass tries to
promote the whole expression to H.  The canonical form writes every term in
each site's matrix units: the identity, |n><n| for n >= 1 and |m><n| for
m != n form a basis of the site's operators, so two expressions are one
operator exactly when their forms agree.  The certificate compares the form
with its adjoint, which transposes each unit, and decides exactly without a
matrix.  The cost is in the units: a product over k sites of d levels
expands into up to d^k of them, so a hopping term on t(d) sites has 2(d-1)^2.
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
    """coeff times a product of site matrix units.

    ``units`` lists (site, (m, n)) pairs, site-ascending, for the unit
    |m><n| at each site whose unit is not the identity.  The units apply in
    ascending site order, and an off-diagonal unit on a fermionic site is
    odd: it carries the Jordan-Wigner string of the ladders it came from,
    and the anti-commutation signs of reordering them are folded into
    ``coeff``.
    """

    coeff: complex
    units: tuple  # tuple[tuple[int, tuple[int, int]], ...]


@dataclass(frozen=True)
class CanonicalForm:
    layout: SiteList
    terms: tuple  # tuple[CanonicalTerm, ...], sorted by units


_STEP = {LadderKind.CREATE: 1, LadderKind.ANNIHILATE: -1}


def canonicalize(e: HamExpr) -> CanonicalForm:
    """Flatten to a sorted sum of products of site matrix units.

    Sums are distributed out of products, each product's ladders put in
    site order (-1 per transposition of two fermionic ladders at distinct
    sites) and like ladder products merged.  Each site's ladders then
    expand into the site's units (``_site_units``); like terms merge and
    terms with |c| <= ZERO_TOL drop.  A nan coefficient, from a weight past
    the float range, stays, so the form differs from its adjoint.
    """
    layout = e.layout
    fermionic = [isinstance(site, Fermion) for site in layout]
    dims = [site_dim(site) for site in layout]
    ladders: dict = {}
    for coeff, ops in _terms(e):
        coeff, key = _normal_order(coeff, ops, fermionic)
        ladders[key] = ladders.get(key, 0j) + coeff
    units: dict = {}
    for key, coeff in ladders.items():
        products = [((), coeff)]   # (units, coeff) over the sites so far
        for s, group in itertools.groupby(key, lambda op: op[0]):
            expansion = _site_units(dims[s], tuple([k for _, k in group]))
            products = [(u + ((s, unit),) if unit is not None else u, c * w)
                        for u, c in products for unit, w in expansion]
        for u, c in products:
            units[u] = units.get(u, 0j) + c
    return CanonicalForm(layout, tuple(
        CanonicalTerm(units[key], key) for key in sorted(units)
        if not abs(units[key]) <= ZERO_TOL))


def adjoint(form: CanonicalForm) -> CanonicalForm:
    """The canonical form of the adjoint: each unit transposed and each
    coefficient conjugated.  The f odd units of a term then apply in
    reverse order, and putting them back in site order takes f(f-1)/2
    transpositions, each a factor -1."""
    fermionic = [isinstance(site, Fermion) for site in form.layout]
    terms = []
    for term in form.terms:
        f = sum([fermionic[s] and m != n for s, (m, n) in term.units])
        coeff = term.coeff.conjugate()
        terms.append(CanonicalTerm(
            -coeff if f * (f - 1) // 2 % 2 else coeff,
            tuple([(s, (n, m)) for s, (m, n) in term.units])))
    terms.sort(key=lambda term: term.units)
    return CanonicalForm(form.layout, tuple(terms))


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
    distinct sites flips the sign of the coefficient.  The key lists
    (site, step), step +1 for a creator and -1 for an annihilator."""
    ops = list(ops)
    n = len(ops)
    for i in range(1, n):
        j = i
        while j > 0 and ops[j - 1][0] > ops[j][0]:
            if fermionic[ops[j - 1][0]] and fermionic[ops[j][0]]:
                coeff = -coeff
            ops[j - 1], ops[j] = ops[j], ops[j - 1]
            j -= 1
    return coeff, tuple([(s, _STEP[k]) for s, k in ops])


@functools.cache
def _site_units(dim: int, monomial: tuple) -> tuple:
    """(unit, weight) pairs that sum to a monomial on a dim-level site.

    The monomial lists the steps of its ladders in application order, +1
    for a creator and -1 for an annihilator.  It maps |n> to w_n |n + s>,
    so it is the sum of w_n |n + s><n|; on the diagonal it is
    w_0 I + sum_{n >= 1} (w_n - w_0) |n><n|, with None for I.  Each w_n is
    the square root of an exact integer, so one weight is one float in
    every monomial.
    """
    shift = sum(monomial)
    weights = []
    for n in range(dim):
        occ, square = n, 1
        for step in monomial:
            out = occ + step
            square *= max(occ, out) if 0 <= out < dim else 0
            occ = out
        # a weight past the float range compares equal to nothing
        weights.append(math.sqrt(square) if square < 2 ** 1023 else math.inf)
    if shift:
        return tuple(((n + shift, n), w) for n, w in enumerate(weights) if w)
    w0 = weights[0]
    diag = [((n, n), w - w0) for n, w in enumerate(weights) if n and w != w0]
    return (((None, w0),) if w0 else ()) + tuple(diag)


def canonical_allclose(a: CanonicalForm, b: CanonicalForm) -> bool:
    """Equal layouts and units, and coefficients within COEFF_EQ_TOL."""
    if a.layout != b.layout or len(a.terms) != len(b.terms):
        return False
    for ta, tb in zip(a.terms, b.terms):
        # not <=: a nan difference (from an overflowed weight) differs
        if (ta.units != tb.units
                or not abs(ta.coeff - tb.coeff) <= COEFF_EQ_TOL):
            return False
    return True


# ---------------------------------------------------------------------------
# Hermiticity certificate
# ---------------------------------------------------------------------------

def hermiticity_report(e: HamExpr) -> tuple[bool, CanonicalForm]:
    """Decide Hermiticity exactly; report the verdict and the canonical form.

    The form is unique, so e is Hermitian exactly when its form and its
    adjoint agree, coefficient by coefficient within COEFF_EQ_TOL; no
    matrix is built.
    """
    form = canonicalize(e)
    return canonical_allclose(adjoint(form), form), form


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
