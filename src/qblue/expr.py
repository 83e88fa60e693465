"""Expression language for second-quantization Hamiltonians.

Operators are built from amplitude-carrying ladder leaves (creators and
annihilators) and identity leaves, combined with dagger, tensor product,
linear sum, and sequencing (operator product).  Every expression acts on an
ordered list of lattice sites; each site is either an m-dimensional bosonic
mode or a two-dimensional fermionic mode.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import LayoutError


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


def _check_amp(amp: complex) -> complex:
    amp = complex(amp)
    if not (cmath.isfinite(amp)):
        raise ValueError(f"amplitude must be finite, got {amp}")
    return amp


@dataclass(frozen=True)
class Ladder:
    """Single-site creator or annihilator scaled by a complex amplitude."""

    kind: LadderKind
    site: SiteType
    amp: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "amp", _check_amp(self.amp))


@dataclass(frozen=True)
class Identity:
    """Single-site identity, optionally scaled (amp defaults to 1)."""

    site: SiteType
    amp: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "amp", _check_amp(self.amp))


@dataclass(frozen=True)
class Dagger:
    inner: "HamExpr"


@dataclass(frozen=True)
class Tensor:
    left: "HamExpr"
    right: "HamExpr"


@dataclass(frozen=True)
class Sum:
    left: "HamExpr"
    right: "HamExpr"


@dataclass(frozen=True)
class Seq:
    """Operator product; the right operand applies to the state first."""

    left: "HamExpr"
    right: "HamExpr"


HamExpr = Union[Ladder, Identity, Dagger, Tensor, Sum, Seq]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def create(site: SiteType, amp: complex = 1.0) -> Ladder:
    return Ladder(LadderKind.CREATE, site, amp)


def annihilate(site: SiteType, amp: complex = 1.0) -> Ladder:
    return Ladder(LadderKind.ANNIHILATE, site, amp)


def identity(site: SiteType, amp: complex = 1.0) -> Identity:
    return Identity(site, amp)


def identity_chain(layout: SiteList) -> HamExpr:
    return tensor(*(Identity(s) for s in layout))


def dagger(e: HamExpr) -> Dagger:
    return Dagger(e)


def tensor(*es: HamExpr) -> HamExpr:
    """Tensor product, normalized to a right-associated chain."""
    return _chain(Tensor, "tensor", es)


def ham_sum(*es: HamExpr) -> HamExpr:
    """Linear sum, normalized to a right-associated chain."""
    return _chain(Sum, "sum", es)


def _chain(node, name: str, es) -> HamExpr:
    """Flatten nested ``node``s among es, then rebuild a right chain."""
    if not es:
        raise ValueError(f"{name} needs at least one operand")
    flat: list[HamExpr] = []
    stack = list(reversed(es))
    while stack:
        e = stack.pop()
        if isinstance(e, node):
            stack += [e.right, e.left]
        else:
            flat.append(e)
    out = flat.pop()
    for e in reversed(flat):
        out = node(e, out)
    return out


def seq(*es: HamExpr) -> HamExpr:
    """Operator product e1 e2 ... en (en applies first)."""
    if not es:
        raise ValueError("seq needs at least one operand")
    out = es[-1]
    for e in reversed(es[:-1]):
        out = Seq(e, out)
    return out


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def site_layout(e: HamExpr, path: str = "root") -> SiteList:
    """Infer the site list an expression acts on.

    Sum and Seq branches must agree; Tensor concatenates.  Raises LayoutError
    (carrying the offending subexpression path) on mismatch.
    """
    if isinstance(e, (Ladder, Identity)):
        return (e.site,)
    if isinstance(e, Dagger):
        return site_layout(e.inner, path + ".inner")
    if isinstance(e, Tensor):
        return (site_layout(e.left, path + ".left")
                + site_layout(e.right, path + ".right"))
    if isinstance(e, (Sum, Seq)):
        left = site_layout(e.left, path + ".left")
        right = site_layout(e.right, path + ".right")
        if left != right:
            kind = "sum" if isinstance(e, Sum) else "seq"
            raise LayoutError(
                f"{kind} branches act on different site lists", path, left, right)
        return left
    raise TypeError(f"not a HamExpr: {e!r}")


def desugar_indexed(op: HamExpr, j: int, layout: SiteList) -> HamExpr:
    """Embed a single-site operator at position j, padding with identities."""
    if not 0 <= j < len(layout):
        raise IndexError(f"site index {j} out of range for {len(layout)} sites")
    op_layout = site_layout(op)
    if len(op_layout) != 1:
        raise LayoutError("indexed operator must act on a single site",
                          "root", op_layout, (layout[j],))
    if op_layout[0] != layout[j]:
        raise LayoutError(f"operator site type does not match layout[{j}]",
                          "root", op_layout, (layout[j],))
    factors = [Identity(s) for s in layout]
    factors[j] = op
    return tensor(*factors)


def scale(z: complex, e: HamExpr) -> HamExpr:
    """Multiply an expression by a scalar, folding it into leaf amplitudes.

    Distributes over Sum into both branches and into exactly one factor of
    Seq and Tensor, so no residual scalar node is needed.
    """
    z = complex(z)
    if isinstance(e, Ladder):
        return Ladder(e.kind, e.site, z * e.amp)
    if isinstance(e, Identity):
        return Identity(e.site, z * e.amp)
    if isinstance(e, Sum):
        return Sum(scale(z, e.left), scale(z, e.right))
    if isinstance(e, Seq):
        return Seq(scale(z, e.left), e.right)
    if isinstance(e, Tensor):
        return Tensor(scale(z, e.left), e.right)
    if isinstance(e, Dagger):
        # (w x)^dag = conj(w) x^dag, so push the conjugate inside
        return Dagger(scale(z.conjugate(), e.inner))
    raise TypeError(f"not a HamExpr: {e!r}")


def expr_allclose(e1: HamExpr, e2: HamExpr, tol: float = 1e-12) -> bool:
    """Structural equality up to `tol` on leaf amplitudes."""
    if type(e1) is not type(e2):
        return False
    if isinstance(e1, Ladder):
        return (e1.kind == e2.kind and e1.site == e2.site
                and abs(e1.amp - e2.amp) <= tol)
    if isinstance(e1, Identity):
        return e1.site == e2.site and abs(e1.amp - e2.amp) <= tol
    if isinstance(e1, Dagger):
        return expr_allclose(e1.inner, e2.inner, tol)
    return (expr_allclose(e1.left, e2.left, tol)
            and expr_allclose(e1.right, e2.right, tol))
