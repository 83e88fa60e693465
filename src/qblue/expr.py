"""Expression language for second-quantization Hamiltonians.

Every expression acts on an ordered list of lattice sites, its layout; each
site is either an m-dimensional bosonic mode or a two-dimensional fermionic
mode.  There are three node kinds.  The leaves are atoms: an amplitude times
one ladder operator (a creator or an annihilator) at one site of the
layout, or times the identity, with the identity implicit at every other
site.  An atom is what an indexed operator of the surface syntax, such as
``a(j)``, denotes, so it costs one site and not the width of the layout.
Atoms combine with the n-ary linear sum and sequencing (operator product),
each holding a tuple of children; a product of ladders is a Seq.  The
adjoint is not a node of its own: ``dagger`` builds the adjoint tree out of
atoms, sums and products.

Every node stores its layout, a tuple of site types, when it is built.  The
parser, ``scale`` and ``dagger`` pass one tuple object to every node of the
tree they build, so a Sum or Seq checks its children with one ``is`` and
compares the tuples only when they are different objects.  A Sum or Seq
whose children disagree is never built: its constructor raises LayoutError.
Nodes are frozen slotted dataclasses: they carry no instance dict, and each
constructor writes its fields once with ``object.__setattr__``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Union

from .errors import AmplitudeError, LayoutError

_set = object.__setattr__   # writes the fields of a frozen node


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


def layout_str(layout: SiteList) -> str:
    return " (x) ".join(str(s) for s in layout)


class Flag(Enum):
    """Operator flag: H (certified Hermitian) is a subtype of P (plain matrix)."""

    H = "h"
    P = "p"


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

class LadderKind(IntEnum):
    """A ladder is its step: the occupation change of the state it maps."""

    CREATE = 1
    ANNIHILATE = -1


@dataclass(frozen=True, init=False, slots=True)
class Atom:
    """``amp`` times one ladder of ``layout``, or times the identity.

    ``ladder`` is a (site, kind) pair, or None for the identity; every
    site it does not name carries the identity.  ``__init__`` checks and
    stores each field once, the layout as a tuple and amp as a complex.
    """

    layout: SiteList
    ladder: tuple | None
    amp: complex

    def __init__(self, layout, ladder=None, amp=1.0):
        layout, amp = tuple(layout), complex(amp)
        if not cmath.isfinite(amp):
            raise AmplitudeError(f"amplitude must be finite, got {amp}")
        if not layout:
            raise ValueError("an atom acts on at least one site")
        if ladder and not 0 <= ladder[0] < len(layout):
            raise ValueError(f"atom ladder {ladder!r} names none of "
                             f"its {len(layout)} sites")
        _set(self, "layout", layout)
        _set(self, "ladder", ladder)
        _set(self, "amp", amp)


@dataclass(frozen=True, init=False, slots=True)
class _Nary:
    children: tuple
    layout: SiteList = field(repr=False, compare=False)

    def __init__(self, *children: "HamExpr"):
        if not children:
            raise ValueError(f"{type(self).__name__} needs an operand")
        first = children[0].layout
        for c in children:
            if c.layout is not first and c.layout != first:
                raise LayoutError(
                    f"{type(self).__name__.lower()} branches act on "
                    "different site lists", "root", first, c.layout)
        _set(self, "children", children)
        _set(self, "layout", first)


class Sum(_Nary):
    """Linear sum of children on one layout."""
    __slots__ = ()


class Seq(_Nary):
    """Operator product on one layout; the last child applies first."""
    __slots__ = ()


HamExpr = Union[Atom, Sum, Seq]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def dagger(e: HamExpr) -> HamExpr:
    """The adjoint tree: the matrix adjoint of e, built from its nodes.

    An atom conjugates its amplitude and negates its ladder's step.  A sum
    is the sum of its children's adjoints; a product is the product of its
    children's adjoints in reverse order.
    """
    if isinstance(e, Atom):
        ladder = e.ladder and (e.ladder[0], LadderKind(-e.ladder[1]))
        return Atom(e.layout, ladder, e.amp.conjugate())
    if isinstance(e, Sum):
        return Sum(*(dagger(c) for c in e.children))
    if isinstance(e, Seq):
        return Seq(*(dagger(c) for c in reversed(e.children)))
    raise TypeError(f"not a HamExpr: {e!r}")


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

def scale(z: complex, e: HamExpr) -> HamExpr:
    """Multiply an expression by a scalar, folding it into atom amplitudes.

    Distributes over every child of a Sum and enters the first child of a
    Seq, so no residual scalar node is needed.
    """
    z = complex(z)
    if isinstance(e, Atom):
        return Atom(e.layout, e.ladder, z * e.amp)
    if isinstance(e, Sum):
        return Sum(*(scale(z, c) for c in e.children))
    if isinstance(e, Seq):
        return Seq(scale(z, e.children[0]), *e.children[1:])
    raise TypeError(f"not a HamExpr: {e!r}")

