"""Typing, canonical forms, and the Hermiticity certificate.

The flag lattice has H below P; ladder leaves start at P, identities at H.
Structural typing combines flags bottom-up, then a certificate pass tries to
promote the whole expression to H.  The canonical form writes every term in
each site's matrix units: the identity, |n><n| for n >= 1 and |m><n| for
m != n form a basis of the site's operators, so two expressions are one
operator exactly when their forms agree.  The certificate compares a form
with its adjoint, each unit transposed, and decides exactly without a
matrix.  Each zero and comparison of a coefficient is relative to the
magnitudes summed into it, kept beside it, so c e has the verdict of e.
A form is built bottom-up, a product one factor at a time, and no form on
the way holds more than UNIT_CAP terms: a step costs at most the cap
times its factor's terms.
"""

from __future__ import annotations

import bisect
import functools
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
    ascending site order; an off-diagonal unit on a fermionic site is odd:
    it carries the Jordan-Wigner string of the ladders it came from.  The
    keys of ``canonicalize`` are sorted; ``adjoint`` keeps their order."""

    layout: SiteList
    terms: dict  # dict[tuple[tuple[int, tuple[int, int]], ...], complex]
    mags: dict   # the same keys -> float


def canonicalize(e: HamExpr) -> CanonicalForm:
    """The canonical form of e, keys sorted.  Each form on the way holds at
    most UNIT_CAP terms, else a DimensionCapError (``_merge``).  A term
    drops when it is ``negligible`` at ZERO_TOL against the magnitudes
    summed into it; a nan stays, so the form differs from its adjoint."""
    layout = e.layout
    form = _lower(e, [site_dim(site) for site in layout],
                  [isinstance(site, Fermion) for site in layout])
    terms, mags = {}, {}
    for key in sorted(form):
        c, m, square = form[key]
        r = _root(square)
        if not negligible(c * r, m * r, ZERO_TOL):
            terms[key], mags[key] = c * r, m * r
    return CanonicalForm(layout, terms, mags)


def adjoint(form: CanonicalForm) -> CanonicalForm:
    """The canonical form of the adjoint: each unit transposed and each
    coefficient conjugated.  The f odd units of a term then apply in
    reverse order, and f(f-1)/2 transpositions, each a factor -1, put them
    back in site order.  The keys need no merge or sort."""
    fermionic = [isinstance(site, Fermion) for site in form.layout]
    terms, mags = {}, {}
    for units, coeff in form.terms.items():
        f = sum([fermionic[s] and m != n for s, (m, n) in units])
        coeff = coeff.conjugate()
        key = tuple([(s, (n, m)) for s, (m, n) in units])
        terms[key] = -coeff if f * (f - 1) // 2 % 2 else coeff
        mags[key] = form.mags[units]
    return CanonicalForm(form.layout, terms, mags)


def _lower(e: HamExpr, dims: list, fermionic: list) -> dict:
    """The terms of e, {key: (coeff, mag, square)}, coeff and mag times the
    root of square, the exact integer square of the ladder weights of a
    term reached by one path.  An atom is its ladder's units; a sum merges
    its children's forms; a product folds from the right, multiplying the
    running form by each factor term by term (``_product``)."""
    if isinstance(e, Atom):
        units = (_ladder(*e.ladder, dims[e.ladder[0]]) if e.ladder
                 else [((), 1)])
        return {key: (e.amp, abs(e.amp), square) for key, square in units}
    if isinstance(e, Sum):
        out, *rest = [_lower(c, dims, fermionic) for c in e.children]
        for form in rest:
            _merge(out, form.items())
        return out
    form = _lower(e.children[-1], dims, fermionic)
    for c in reversed(e.children[:-1]):
        form = _product(_lower(c, dims, fermionic), form, dims, fermionic)
    return form


def _product(left: dict, right: dict, dims: list, fermionic: list) -> dict:
    """The merged terms of left times right, right applied first.  A left
    form on one site s meets a right term whose unit at s is v through all
    its terms if v is I, else through I and the units whose column is v's
    row.  An odd left unit passes the right term's odd units after s: the
    Jordan-Wigner sign is (-1)^#pairs.  A left form on more sites applies
    the units of each of its terms in turn."""
    sites = {s for key in left for s, _ in key}
    out: dict = {}
    if len(sites) > 1:
        for lk, (lc, lm, lq) in left.items():
            form = right
            for unit in lk:
                form = _product({(unit,): (1, 1, 1)}, form, dims, fermionic)
            _merge(out, [(key, (lc * c, lm * m, lq * q))
                         for key, (c, m, q) in form.items()])
        return out
    s = sites.pop() if sites else 0   # a scalar meets every term
    by_col: dict = {}   # the left terms by their unit's column, () for I
    for lk, term in left.items():
        u = lk and lk[0][1]
        by_col.setdefault(u and u[1], []).append((u, term))
    everyone = [t for terms in by_col.values() for t in terms]
    for rk, (rc, rm, rq) in right.items():
        i = bisect.bisect_left(rk, (s,))
        v = rk[i][1] if i < len(rk) and rk[i][0] == s else ()
        head, tail = rk[:i], rk[i + bool(v):]
        odd = fermionic[s] and sum([fermionic[t] and m != n
                                    for t, (m, n) in tail]) % 2
        items = []
        for u, (lc, lm, lq) in (by_col.get(v[0], []) + by_col.get((), [])
                                if v else everyone):
            c = -lc * rc if odd and u and u[0] != u[1] else lc * rc
            for x, w in (_unit_product(dims[s], u, v) if u and v
                         else ((u or v, 1),)):
                items.append((head + ((s, x),) + tail if x else head + tail,
                              (c * w, lm * rm, lq * rq)))
        _merge(out, items)
    return out


def _merge(out: dict, items) -> None:
    """Add (key, (coeff, mag, square)) items into out, two terms of one
    key each times its root, and check the cap on the merged form."""
    for key, term in items:
        if key in out:
            (c0, m0, q0), (c, m, q) = out[key], term
            if q0 != 1 or q != 1:
                r0, r = _root(q0), _root(q)
                c0, m0, c, m = c0 * r0, m0 * r0, c * r, m * r
            term = (c0 + c, m0 + m, 1)
        out[key] = term
    if len(out) > UNIT_CAP:
        raise DimensionCapError("a canonical form grows past the unit cap "
                                f"of {UNIT_CAP} terms")


def _root(square: int) -> float:
    """sqrt(square), inf past the float range; a float bound is folded."""
    return math.sqrt(square) if square < 2.0 ** 1023 else math.inf


@functools.cache
def _ladder(s: int, kind: int, dim: int) -> tuple:
    """(key, square) of each unit |n + kind><n| of a ladder on site s."""
    return tuple([(((s, (n + kind, n)),), max(n, n + kind))
                  for n in range(dim) if 0 <= n + kind < dim])


def _unit_product(dim: int, u: tuple, v: tuple) -> tuple:
    """(unit, sign) terms of u v = |m><n| |n><q| on a site of dim levels:
    |m><q|, or ``_zero_projector`` when m = q = 0."""
    m, q = u[0], v[1]
    return (((m, q), 1),) if m or q else _zero_projector(dim)


@functools.cache
def _zero_projector(dim: int) -> tuple:
    """|0><0| as I - sum_{k >= 1} |k><k|, () for I: one entry per dim.  A
    product a adag reaches it, as X(j) X(j) does; Z(j) = 2 adag a - I not."""
    return (((), 1),) + tuple([((k, k), -1) for k in range(1, dim)])


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
# Hermiticity certificate and typing
# ---------------------------------------------------------------------------

def hermiticity_report(e: HamExpr) -> tuple[bool, CanonicalForm]:
    """Decide Hermiticity exactly; report the verdict and the canonical form.
    The form is unique, so e is Hermitian exactly when its form and its
    adjoint agree, coefficient by coefficient within COEFF_EQ_TOL of its
    magnitudes (``canonical_allclose``); no matrix is built."""
    form = canonicalize(e)
    return canonical_allclose(adjoint(form), form), form


def typecheck(e: HamExpr) -> tuple[OpType, str]:
    """Infer the operator type F[flag](sites) and what decided its flag.

    The sites are the root's layout.  One walk gives the structural flag:
    an atom with no ladder is H when its amplitude is exactly real, any
    other atom P, and a sum or product is H only when every child is.
    ``"structural"`` decides when that walk gives H, else ``"certificate"``
    (``hermiticity_report``), which lifts the root to H when it succeeds.
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
