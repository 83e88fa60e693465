"""Truncated Fock states and the operator interpreter.

States are sparse complex combinations of occupation-number kets over a fixed
site layout; the empty combination is the absorbing zero state.  ``apply``
lowers each factor of the root product once to a term list (coefficients
times the ladder operators of the active sites, in application order) and
applies it to the whole merged state; a fermionic ladder operator takes the
sign (-1)^(occupied fermionic sites to its left) in the current occupation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import compress

from .errors import (
    AMP_PRUNE_TOL, EXPECTATION_IM_TOL, LayoutError, NonHermitianError,
    StateFormatError,
)
from .expr import (
    Boson, Dagger, Fermion, HamExpr, LadderKind, Seq, SiteList, site_dim,
    site_layout,
)
from .typecheck import _terms


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
    """Big-step application of an operator expression to a state: each
    factor of the root product applies to the whole merged state in turn,
    and only the final state is pruned and sorted."""
    layout = site_layout(e)
    if layout != s.layout:
        raise LayoutError("operator and state act on different site lists",
                          "apply", layout, s.layout)
    # fermionic[:j] selects the sites whose occupation signs an op at site j
    fermionic = [isinstance(site, Fermion) for site in layout]
    prefixes = [fermionic[:j] for j in range(len(layout))]
    state = {ket.occ: ket.amp for ket in s.terms}
    for factor, flip in _factors(e):
        terms = _terms(factor, flip)
        out: dict[tuple, complex] = {}
        for occ, amp in state.items():
            for coeff, ops in terms:
                val = amp * coeff
                cur = list(occ)
                for j, kind in ops:
                    res = apply_single(kind, layout[j], cur[j])
                    if res is None:
                        break
                    c, cur[j] = res
                    if fermionic[j] and sum(compress(cur, prefixes[j])) % 2:
                        c = -c
                    val *= c
                else:
                    key = tuple(cur)
                    out[key] = out.get(key, 0j) + val
        state = out
    terms = tuple(Ket(state[occ], occ) for occ in sorted(state)
                  if abs(state[occ]) > AMP_PRUNE_TOL)
    return FockState(s.layout, terms)


def _factors(e: HamExpr, flip: bool = False) -> list:
    """(factor, flip) pairs of the root product spine, first applied first;
    a Dagger on the spine reverses the order below it and flips factors."""
    if isinstance(e, Dagger):
        return _factors(e.inner, not flip)
    if isinstance(e, Seq):
        order = e.children if flip else reversed(e.children)
        return [f for c in order for f in _factors(c, flip)]
    return [(e, flip)]


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
        raise NonHermitianError(
            "expectation requires a Hermitian operator (flag h), got flag p")
    val = inner_product(s, apply(e, s)) / (s.norm() ** 2)
    if not abs(val.imag) < EXPECTATION_IM_TOL:
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
