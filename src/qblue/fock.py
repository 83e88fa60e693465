"""Truncated Fock states and the big-step operator interpreter.

States are sparse complex combinations of occupation-number kets over a fixed
site layout; the empty combination is the absorbing zero state.  Applying an
expression walks it structurally: ladder leaves act on single occupations
with sqrt factors, sums branch, sequencing composes, and tensor application
splits the ket at the operand boundary while threading the fermionic parity
of the already-processed left block.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import LayoutError, StateFormatError
from .expr import (
    Boson, Fermion, HamExpr, Identity, Ladder, LadderKind, Seq, SiteList,
    Sum, Tensor, site_dim, site_layout,
)
from .typecheck import dagger_normalize

AMP_PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class Ket:
    """One amplitude-weighted occupation vector."""

    amp: complex
    occ: tuple  # tuple[int, ...], one occupation per site


@dataclass(frozen=True)
class FockState:
    """Canonical sparse state: merged kets sorted by occupation vector.

    An empty term tuple is the zero state (it absorbs every operator and
    annihilates any ket it is tensored with).
    """

    layout: SiteList
    terms: tuple  # tuple[Ket, ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return math.sqrt(sum(abs(k.amp) ** 2 for k in self.terms))


def make_state(layout: SiteList, kets) -> FockState:
    """Build a canonical state, validating occupations against the layout."""
    acc: dict[tuple, complex] = {}
    for amp, occ in kets:
        occ = tuple(int(k) for k in occ)
        _check_occ(layout, occ)
        acc[occ] = acc.get(occ, 0j) + complex(amp)
    terms = tuple(Ket(acc[occ], occ) for occ in sorted(acc)
                  if abs(acc[occ]) > AMP_PRUNE_TOL)
    return FockState(tuple(layout), terms)


def zero_state(layout: SiteList) -> FockState:
    return FockState(tuple(layout), ())


def basis_ket(layout: SiteList, occ, amp: complex = 1.0) -> FockState:
    return make_state(layout, [(amp, tuple(occ))])


def _check_occ(layout, occ):
    if len(occ) != len(layout):
        raise LayoutError("occupation vector arity does not match layout",
                          "state", tuple(layout), None)
    for k, site in zip(occ, layout):
        if not 0 <= k < site_dim(site):
            raise ValueError(
                f"occupation {k} out of range for site {site}")


# ---------------------------------------------------------------------------
# Single-site ladder action
# ---------------------------------------------------------------------------

def apply_single(kind: LadderKind, site, k: int):
    """Act on one occupation number.

    Returns (coeff, k') or None for the zero state.  A creator on the top
    occupation and an annihilator on 0 both vanish; otherwise the sqrt
    ladder factors apply (for fermions these are always 1).
    """
    m = site_dim(site)
    if kind is LadderKind.CREATE:
        if k == m - 1:
            return None
        return math.sqrt(k + 1), k + 1
    if k == 0:
        return None
    return math.sqrt(k), k - 1


def fermion_sign(layout: SiteList, occ_prefix) -> int:
    """Parity factor (-1)^(occupied fermionic sites in the prefix).

    Bosonic sites contribute 1 regardless of occupation.
    """
    parity = 0
    for site, k in zip(layout, occ_prefix):
        if isinstance(site, Fermion):
            parity += k
    return -1 if parity % 2 else 1


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

def apply(e: HamExpr, s: FockState) -> FockState:
    """Big-step application of an operator expression to a state."""
    layout = site_layout(e)
    if layout != s.layout:
        raise LayoutError("operator and state act on different site lists",
                          "apply", layout, s.layout)
    if s.is_zero:
        return s
    e = dagger_normalize(e)
    acc: dict[tuple, complex] = {}
    for ket in s.terms:
        for coeff, occ in _apply_occ(e, layout, ket.occ, 0):
            val = ket.amp * coeff
            acc[occ] = acc.get(occ, 0j) + val
    terms = tuple(Ket(acc[occ], occ) for occ in sorted(acc)
                  if abs(acc[occ]) > AMP_PRUNE_TOL)
    return FockState(s.layout, terms)


def _apply_occ(e, layout, occ, parity):
    """Yield (coeff, occ') pairs; parity counts occupied fermionic sites to
    the left of this block, after their own operators already applied."""
    if isinstance(e, Ladder):
        res = apply_single(e.kind, e.site, occ[0])
        if res is None:
            return []
        coeff, k2 = res
        coeff = coeff * e.amp
        if isinstance(e.site, Fermion) and parity % 2:
            coeff = -coeff
        return [(coeff, (k2,))]
    if isinstance(e, Identity):
        return [(e.amp, occ)]
    if isinstance(e, Sum):
        return (_apply_occ(e.left, layout, occ, parity)
                + _apply_occ(e.right, layout, occ, parity))
    if isinstance(e, Seq):
        out = []
        for c1, mid in _apply_occ(e.right, layout, occ, parity):
            for c2, fin in _apply_occ(e.left, layout, mid, parity):
                out.append((c1 * c2, fin))
        return out
    if isinstance(e, Tensor):
        left_layout = site_layout(e.left)
        cut = len(left_layout)
        right_layout = layout[cut:]
        out = []
        for cl, occ_l in _apply_occ(e.left, left_layout, occ[:cut], parity):
            p2 = parity + sum(k for site, k in zip(left_layout, occ_l)
                              if isinstance(site, Fermion))
            for cr, occ_r in _apply_occ(e.right, right_layout, occ[cut:], p2):
                out.append((cl * cr, occ_l + occ_r))
        return out
    raise TypeError(f"not a HamExpr: {e!r}")


# ---------------------------------------------------------------------------
# State arithmetic
# ---------------------------------------------------------------------------

def add_states(s1: FockState, s2: FockState, z1=1.0, z2=1.0) -> FockState:
    if s1.layout != s2.layout:
        raise LayoutError("states have different layouts", "add",
                          s1.layout, s2.layout)
    kets = [(z1 * k.amp, k.occ) for k in s1.terms]
    kets += [(z2 * k.amp, k.occ) for k in s2.terms]
    return make_state(s1.layout, kets)


def normalize(s: FockState) -> FockState:
    """Scale so the 2-norm is 1; the zero state has no normalization."""
    n = s.norm()
    if n == 0:
        raise ValueError("cannot normalize the zero state")
    return FockState(s.layout,
                     tuple(Ket(k.amp / n, k.occ) for k in s.terms))


def inner_product(s1: FockState, s2: FockState) -> complex:
    """<s1|s2> = sum conj(amp1) * amp2 over matching occupation vectors."""
    if s1.layout != s2.layout:
        raise LayoutError("states have different layouts", "inner_product",
                          s1.layout, s2.layout)
    amps = {k.occ: k.amp for k in s1.terms}
    out = 0j
    for k in s2.terms:
        if k.occ in amps:
            out += amps[k.occ].conjugate() * k.amp
    return out


def expectation(e: HamExpr, s: FockState) -> float:
    """<s|e|s> / ||s||^2 for a Hermitian operator; returns the real part."""
    from .typecheck import Flag, typecheck
    if s.is_zero:
        raise ValueError("expectation value of the zero state is undefined")
    ty = typecheck(e)
    if ty.flag is not Flag.H:
        from .errors import NonHermitianError
        raise NonHermitianError(
            "expectation requires a Hermitian operator (flag h), got flag p")
    val = inner_product(s, apply(e, s)) / (s.norm() ** 2)
    if not abs(val.imag) < 1e-10:
        raise ValueError(f"imaginary residue {val.imag} in expectation")
    return val.real


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
# Layout header then one ket per line:
#   sites: t(2), t(4), F
#   (0.7071067811865476,0.0) |0,1,0>

_SITE_RE = re.compile(r"^\s*(t\(\s*(\d+)\s*\)|F)\s*$")
_KET_RE = re.compile(
    r"^\s*\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)\s*\|([0-9,\s]*)[>⟩]\s*$")


def parse_sites(text: str) -> SiteList:
    sites = []
    for part in text.split(","):
        m = _SITE_RE.match(part)
        if not m:
            raise StateFormatError(f"bad site type {part.strip()!r}")
        sites.append(Fermion() if m.group(1) == "F" else Boson(int(m.group(2))))
    return tuple(sites)


def format_sites(layout: SiteList) -> str:
    return ", ".join(str(s) for s in layout)


def parse_state(text: str) -> FockState:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("sites:"):
        raise StateFormatError("state text must start with a 'sites:' header")
    layout = parse_sites(lines[0].split(":", 1)[1])
    kets = []
    for ln in lines[1:]:
        m = _KET_RE.match(ln)
        if not m:
            raise StateFormatError(f"bad ket line {ln.strip()!r}")
        amp = complex(float(m.group(1)), float(m.group(2)))
        occ = tuple(int(x) for x in m.group(3).split(",")) if m.group(3).strip() else ()
        kets.append((amp, occ))
    return make_state(layout, kets)


def format_state(s: FockState) -> str:
    lines = [f"sites: {format_sites(s.layout)}"]
    for k in s.terms:
        occ = ",".join(str(x) for x in k.occ)
        lines.append(f"({k.amp.real!r},{k.amp.imag!r}) |{occ}>")
    return "\n".join(lines) + "\n"
