"""Expression language for second-quantization Hamiltonians.

Every expression acts on an ordered list of lattice sites, its layout; each
site is either an m-dimensional bosonic mode or a two-dimensional fermionic
mode.  The leaves are atoms: an amplitude times ladder operators (creators
and annihilators) at some sites of the layout, at most one per site, with
the identity implicit at every other site.  A single-site ladder or
identity is an atom on a one-site layout; an indexed atom of the surface
syntax, such as ``a(j)``, is an atom on the whole program layout that lists
site j only, so it costs its own length and not the width of the layout.
Atoms combine with the adjoint (Dagger) and the n-ary tensor product, linear
sum and sequencing (operator product), each holding a tuple of children.

Every node stores its layout when it is built.  Layouts are interned: two
equal layouts are one object and compare with ``is``.  A Sum or Seq whose
children disagree stores None, and ``site_layout`` reports where.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import COEFF_EQ_TOL, LayoutError


# ---------------------------------------------------------------------------
# Site and operator types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Boson:
    """Bosonic site with Hilbert-space dimension ``dim`` (occupations 0..dim-1)."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"boson dimension must be >= 1, got {self.dim}")

    def __str__(self):
        return f"t({self.dim})"


@dataclass(frozen=True)
class Fermion:
    """Fermionic site; dimension is fixed at 2 and occupations anti-commute."""

    def __str__(self):
        return "F"


SiteType = Union[Boson, Fermion]
SiteList = tuple  # tuple[SiteType, ...]


def site_dim(site: SiteType) -> int:
    return site.dim if isinstance(site, Boson) else 2


def total_dim(layout: SiteList) -> int:
    d = 1
    for s in layout:
        d *= site_dim(s)
    return d


_LAYOUTS: dict = {}   # layout -> its shared tuple
_SHARED: dict = {}    # id of a shared tuple -> the tuple


def intern_layout(layout) -> SiteList:
    """The one shared tuple equal to ``layout``."""
    if _SHARED.get(id(layout)) is layout:
        return layout
    key = tuple(layout)
    shared = _LAYOUTS.setdefault(key, key)
    _SHARED[id(shared)] = shared
    return shared


def layout_str(layout: SiteList) -> str:
    return " (x) ".join(str(s) for s in layout)


class Flag(Enum):
    """Operator flag: H (certified Hermitian) is a subtype of P (plain matrix)."""

    H = "h"
    P = "p"

    def join(self, other: "Flag") -> "Flag":
        return Flag.H if self is Flag.H and other is Flag.H else Flag.P


@dataclass(frozen=True)
class OpType:
    """Type of an operator expression: a flag plus the site list it acts on."""

    flag: Flag
    sites: SiteList

    def __str__(self):
        return f"F[{self.flag.value}]({layout_str(self.sites)})"


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

class LadderKind(Enum):
    CREATE = "create"
    ANNIHILATE = "annihilate"

    @property
    def flipped(self) -> "LadderKind":
        return (LadderKind.ANNIHILATE if self is LadderKind.CREATE
                else LadderKind.CREATE)


@dataclass(frozen=True)
class Atom:
    """``amp`` times ladder operators at some sites of ``layout``.

    ``ops`` is the sparse map from site index to ladder kind: (site, kind)
    pairs, site-ascending, one per site.  Every site it does not list
    carries the identity.  The listed operators apply site-ascending, as
    the tensor product of single-site ladders does.
    """

    layout: SiteList
    ops: tuple = ()
    amp: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "layout", intern_layout(self.layout))
        object.__setattr__(self, "amp", complex(self.amp))
        if not cmath.isfinite(self.amp):
            raise ValueError(f"amplitude must be finite, got {self.amp}")
        last = -1
        for s, _ in self.ops:
            if not last < s < len(self.layout):
                raise ValueError(
                    f"atom ops {self.ops!r} do not list distinct sites of a "
                    f"{len(self.layout)}-site layout in ascending order")
            last = s
        if not self.layout:
            raise ValueError("an atom acts on at least one site")


@dataclass(frozen=True)
class Dagger:
    inner: "HamExpr"
    layout: SiteList = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layout", self.inner.layout)


@dataclass(frozen=True, init=False)
class _Nary:
    children: tuple
    layout: SiteList = field(repr=False, compare=False)

    def __init__(self, *children: "HamExpr"):
        if not children:
            raise ValueError(f"{type(self).__name__} needs an operand")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "layout",
                           self._join([c.layout for c in children]))

    @staticmethod
    def _join(layouts):
        """The children's shared layout, or None when they disagree."""
        first = layouts[0]
        return first if all(lay is first for lay in layouts) else None


class Tensor(_Nary):
    """Tensor product: the children's layouts concatenate, and the first
    child's operators apply first."""

    @staticmethod
    def _join(layouts):
        if any(lay is None for lay in layouts):
            return None
        return intern_layout(tuple(s for lay in layouts for s in lay))


class Sum(_Nary):
    """Linear sum of children on one layout."""


class Seq(_Nary):
    """Operator product on one layout; the last child applies first."""


HamExpr = Union[Atom, Dagger, Tensor, Sum, Seq]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def create(site: SiteType, amp: complex = 1.0) -> Atom:
    return Atom((site,), ((0, LadderKind.CREATE),), amp)


def annihilate(site: SiteType, amp: complex = 1.0) -> Atom:
    return Atom((site,), ((0, LadderKind.ANNIHILATE),), amp)


def identity(site: SiteType, amp: complex = 1.0) -> Atom:
    return Atom((site,), (), amp)


def identity_chain(layout: SiteList) -> Atom:
    """The identity on a whole layout: one atom that lists no site."""
    return Atom(layout)


def dagger(e: HamExpr) -> Dagger:
    return Dagger(e)


def _operands(node, name: str, es) -> list:
    """es with the children of any ``node`` among them spliced in."""
    if not es:
        raise ValueError(f"{name} needs at least one operand")
    flat: list = []
    for e in es:
        if type(e) is node:
            flat.extend(e.children)
        else:
            flat.append(e)
    return flat


def tensor(*es: HamExpr) -> HamExpr:
    """Tensor product as one n-ary node; a product of atoms is one atom."""
    flat = _operands(Tensor, "tensor", es)
    if len(flat) == 1:
        return flat[0]
    if not all(isinstance(e, Atom) for e in flat):
        return Tensor(*flat)
    ops, offset, amp = [], 0, 1
    for e in flat:
        ops += [(s + offset, kind) for s, kind in e.ops]
        offset += len(e.layout)
        amp *= e.amp
    return Atom(tuple(s for e in flat for s in e.layout), tuple(ops), amp)


def ham_sum(*es: HamExpr) -> HamExpr:
    """Linear sum as one n-ary node."""
    flat = _operands(Sum, "sum", es)
    return flat[0] if len(flat) == 1 else Sum(*flat)


def seq(*es: HamExpr) -> HamExpr:
    """Operator product e1 e2 ... en (en applies first) as one n-ary node."""
    flat = _operands(Seq, "seq", es)
    return flat[0] if len(flat) == 1 else Seq(*flat)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def site_layout(e: HamExpr) -> SiteList:
    """The site list an expression acts on, as its root stores it.

    Sum and Seq children must agree; Tensor concatenates.  When they do
    not, raises LayoutError with the child-index path (such as
    ``root.1.inner.0``) of the first node whose children disagree, its
    first child's layout and the first one that differs from it.
    """
    path = "root"
    while e.layout is None:
        if isinstance(e, Dagger):
            e, path = e.inner, path + ".inner"
            continue
        bad = [k for k, c in enumerate(e.children) if c.layout is None]
        if bad:
            e, path = e.children[bad[0]], f"{path}.{bad[0]}"
            continue
        first = e.children[0].layout
        other = next(c.layout for c in e.children if c.layout is not first)
        kind = "sum" if isinstance(e, Sum) else "seq"
        raise LayoutError(f"{kind} branches act on different site lists",
                          path, first, other)
    return e.layout


def desugar_indexed(op: Atom, j: int, layout: SiteList) -> Atom:
    """Place a single-site atom at position j of a layout: one atom that
    lists site j only, the identity implicit everywhere else."""
    if not 0 <= j < len(layout):
        raise IndexError(f"site index {j} out of range for {len(layout)} sites")
    if op.layout != (layout[j],):
        raise LayoutError(f"indexed operator must act on the site layout[{j}]",
                          "root", op.layout, (layout[j],))
    return Atom(layout, tuple((j, kind) for _, kind in op.ops), op.amp)


def scale(z: complex, e: HamExpr) -> HamExpr:
    """Multiply an expression by a scalar, folding it into atom amplitudes.

    Distributes over every child of a Sum and enters the first child of a
    Seq or Tensor, so no residual scalar node is needed.
    """
    z = complex(z)
    if isinstance(e, Atom):
        return Atom(e.layout, e.ops, z * e.amp)
    if isinstance(e, Sum):
        return Sum(*(scale(z, c) for c in e.children))
    if isinstance(e, (Seq, Tensor)):
        return type(e)(scale(z, e.children[0]), *e.children[1:])
    if isinstance(e, Dagger):
        # (w x)^dag = conj(w) x^dag, so push the conjugate inside
        return Dagger(scale(z.conjugate(), e.inner))
    raise TypeError(f"not a HamExpr: {e!r}")


def expr_allclose(e1: HamExpr, e2: HamExpr, tol: float = COEFF_EQ_TOL) -> bool:
    """Structural equality up to `tol` on atom amplitudes."""
    if type(e1) is not type(e2):
        return False
    if isinstance(e1, Atom):
        return (e1.layout == e2.layout and e1.ops == e2.ops
                and abs(e1.amp - e2.amp) <= tol)
    if isinstance(e1, Dagger):
        return expr_allclose(e1.inner, e2.inner, tol)
    return (len(e1.children) == len(e2.children)
            and all(expr_allclose(a, b, tol)
                    for a, b in zip(e1.children, e2.children)))
