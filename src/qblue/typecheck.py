"""Typing, canonical forms, and the Hermiticity certificate.

The flag lattice has H below P; ladder leaves start at P, identities at H.
Structural typing combines flags bottom-up, then a certificate pass tries to
promote the whole expression to H.  The canonical form writes every term in
each site's matrix units: the identity, |n><n| for n >= 1 and |m><n| for
m != n form a basis of the site's operators, so two expressions are one
operator exactly when their forms agree.  A form maps each product of units
to its coefficient; the certificate compares it with its adjoint, the
mapping with each unit transposed and no sort, and decides exactly without
a matrix.  Each zero and comparison of a coefficient is relative to the
magnitudes summed into it, kept beside it, so c e has the verdict of e.
The cost is in the units: a product over k sites of d levels expands into
up to d^k of them, so a hopping term on t(d) sites has 2(d-1)^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import (
    COEFF_EQ_TOL, UNIT_CAP, ZERO_TOL, DimensionCapError, negligible,
)
from .expr import (
    Atom, Fermion, Flag, HamExpr, OpType, Seq, SiteList, Sum, site_dim,
)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@dataclass
class CanonicalForm:
    """A sum of products of site matrix units, as a mapping units -> coeff,
    and the sum of the magnitudes summed into each coeff, units -> mag.

    A key lists (site, (m, n)) pairs, site-ascending, for the unit |m><n|
    at each site whose unit is not the identity.  The units apply in
    ascending site order, and an off-diagonal unit on a fermionic site is
    odd: it carries the Jordan-Wigner string of the ladders it came from,
    and the anti-commutation signs of reordering them are folded into the
    coefficient.  ``canonicalize`` inserts the keys in sorted order;
    ``adjoint`` keeps that order of the transposed keys and does not sort.
    """

    layout: SiteList
    terms: dict  # dict[tuple[tuple[int, tuple[int, int]], ...], complex]
    mags: dict   # the same keys -> float


def canonicalize(e: HamExpr) -> CanonicalForm:
    """Flatten to a sum of products of site matrix units, keys sorted.

    Sums are distributed out of products, each product's ladders put in
    site order (-1 per transposition of two fermionic ladders at distinct
    sites) and like ladder products merged.  Each site's ladders then
    expand into the site's units (``_site_units``), at most UNIT_CAP in
    all, or a DimensionCapError naming the term or the running total that
    passed the cap; like terms merge and a term drops when it is
    ``negligible`` at ZERO_TOL against the magnitudes summed into it.
    A nan coefficient stays, so the form differs from its adjoint.
    """
    layout = e.layout
    fermionic = [isinstance(site, Fermion) for site in layout]
    dims = [site_dim(site) for site in layout]
    ladders: dict = {}   # ops -> (coeff, mag), as units below
    for coeff, ops in _terms(e):
        coeff, key = _normal_order(coeff, ops, fermionic)
        c, m = ladders.get(key, (0j, 0.0))
        ladders[key] = c + coeff, m + abs(coeff)
    units: dict = {}
    total = 0   # the units of the ladder keys expanded so far
    for key, term in ladders.items():
        expansions = [(s, _site_units(dims[s], tuple([k for _, k in group])))
                      for s, group in itertools.groupby(key, lambda op: op[0])]
        n = math.prod([len(expansion) for _, expansion in expansions])
        total += n
        if n > UNIT_CAP:
            raise DimensionCapError(f"a term expands into {n} site units, "
                                    f"above the cap {UNIT_CAP}")
        if total > UNIT_CAP:
            raise DimensionCapError(f"the terms expand into {total} site "
                                    f"units in all, above the cap {UNIT_CAP}")
        products = [((), *term)]   # (units, coeff, mag) over the sites so far
        for s, expansion in expansions:
            products = [(u + ((s, unit),) if unit is not None else u,
                         c * w, m * abs(w))
                        for u, c, m in products for unit, w in expansion]
        for u, c, m in products:
            c0, m0 = units.get(u, (0j, 0.0))
            units[u] = c0 + c, m0 + m
    keep = [(u, c, m) for u, (c, m) in sorted(units.items())
            if not negligible(c, m, ZERO_TOL)]
    return CanonicalForm(layout, {u: c for u, c, _ in keep},
                         {u: m for u, _, m in keep})


def adjoint(form: CanonicalForm) -> CanonicalForm:
    """The canonical form of the adjoint: each unit transposed and each
    coefficient conjugated.  The f odd units of a term then apply in
    reverse order, and putting them back in site order takes f(f-1)/2
    transpositions, each a factor -1.  The keys need no merge or sort."""
    fermionic = [isinstance(site, Fermion) for site in form.layout]
    terms, mags = {}, {}
    for units, coeff in form.terms.items():
        f = sum([fermionic[s] and m != n for s, (m, n) in units])
        coeff = coeff.conjugate()
        key = tuple([(s, (n, m)) for s, (m, n) in units])
        terms[key] = -coeff if f * (f - 1) // 2 % 2 else coeff
        mags[key] = form.mags[units]
    return CanonicalForm(form.layout, terms, mags)


def _terms(e: HamExpr) -> list:
    """List of (coeff, ops) with ops = [(site_index, kind), ...] in
    application order."""
    if isinstance(e, Atom):
        return [(e.amp, [] if e.ladder is None else [e.ladder])]
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
    distinct sites flips the sign of the coefficient.  The key is the
    sorted ops."""
    ops = list(ops)
    n = len(ops)
    for i in range(1, n):
        j = i
        while j > 0 and ops[j - 1][0] > ops[j][0]:
            if fermionic[ops[j - 1][0]] and fermionic[ops[j][0]]:
                coeff = -coeff
            ops[j - 1], ops[j] = ops[j], ops[j - 1]
            j -= 1
    return coeff, tuple(ops)


@functools.cache
def _site_units(dim: int, monomial: tuple) -> tuple:
    """(unit, weight) pairs that sum to a monomial on a dim-level site.

    The monomial lists its ladders in application order, each its step, +1
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
    """Equal layouts and keys, and each pair of coefficients within
    COEFF_EQ_TOL times the larger of their two magnitude sums; an inf or
    nan (from an overflowed weight) is equal to nothing."""
    if a.layout != b.layout or a.terms.keys() != b.terms.keys():
        return False
    # an exact match needs no scale; inf - inf is nan, which is no match
    return all(not (d := c - b.terms[u]) or negligible(
        d, max(a.mags[u], b.mags[u]), COEFF_EQ_TOL)
        for u, c in a.terms.items())


# ---------------------------------------------------------------------------
# Hermiticity certificate
# ---------------------------------------------------------------------------

def hermiticity_report(e: HamExpr) -> tuple[bool, CanonicalForm]:
    """Decide Hermiticity exactly; report the verdict and the canonical form.

    The form is unique, so e is Hermitian exactly when its form and its
    adjoint agree, coefficient by coefficient within COEFF_EQ_TOL of its
    magnitudes (``canonical_allclose``); no matrix is built.
    """
    form = canonicalize(e)
    return canonical_allclose(adjoint(form), form), form


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def typecheck(e: HamExpr) -> tuple[OpType, str]:
    """Infer the operator type F[flag](sites) and what decided its flag.

    The site list is the one the root stored when it was built, and one
    walk gives the structural flag: an atom with no ladder is H when its
    amplitude is exactly real, any other atom P; sum and sequencing join their
    children's flags, so H survives only when every child is H.  Two checks
    decide: ``"structural"`` when that walk gives H, else ``"certificate"``,
    the Hermiticity certificate (``hermiticity_report``), which lifts the
    root to H when it succeeds.
    """
    if _flag(e) is Flag.H:
        return OpType(Flag.H, e.layout), "structural"
    flag = Flag.H if hermiticity_report(e)[0] else Flag.P
    return OpType(flag, e.layout), "certificate"


def _flag(e: HamExpr) -> Flag:
    if isinstance(e, Atom):
        return Flag.H if e.amp.imag == 0 and e.ladder is None else Flag.P
    if isinstance(e, (Sum, Seq)):
        return Flag.P if Flag.P in map(_flag, e.children) else Flag.H
    raise TypeError(f"not a HamExpr: {e!r}")
