"""Truncated Fock states and the operator interpreter.

States are sparse complex combinations of occupation-number kets over a fixed
site layout; the empty combination is the absorbing zero state.  ``apply``
lowers each factor of the root product (the children of its Seq nodes,
last child first) once to a term list (coefficients times the ladder
operators of the active sites, in application order) and applies it to
the whole merged state; an adjoint arrives already built from atoms, sums
and products.  A fermionic ladder operator takes the sign (-1)^(occupied
fermionic sites to its left) in the current occupation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import compress

from .errors import ZERO_TOL, LayoutError, StateFormatError
from .expr import (
    Boson, Fermion, HamExpr, LadderKind, Seq, SiteList, site_dim,
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


def make_state(layout: SiteList, kets) -> FockState:
    """Build a canonical state, validating occupations against the layout."""
    kets = [(amp, tuple(map(int, occ))) for amp, occ in kets]
    for _, occ in kets:
        _check_occ(layout, occ)
    return _merged(layout, kets)


def _merged(layout: SiteList, kets) -> FockState:
    """The canonical state of kets already checked against the layout."""
    acc: dict[tuple, complex] = {}
    for amp, occ in kets:
        acc[occ] = acc.get(occ, 0j) + complex(amp)
    terms = tuple(Ket(acc[occ], occ) for occ in sorted(acc)
                  if abs(acc[occ]) > ZERO_TOL)
    return FockState(tuple(layout), terms)


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


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

def apply(e: HamExpr, s: FockState) -> FockState:
    """Big-step application of an operator expression to a state: each
    factor of the root product applies to the whole merged state in turn,
    and only the final state is pruned and sorted."""
    layout = e.layout
    if layout != s.layout:
        raise LayoutError("operator and state act on different site lists",
                          "apply", layout, s.layout)
    # fermionic[:j] selects the sites whose occupation signs an op at site j
    fermionic = [isinstance(site, Fermion) for site in layout]
    prefixes = [fermionic[:j] for j in range(len(layout))]
    state = {ket.occ: ket.amp for ket in s.terms}
    for factor in _factors(e):
        terms = _terms(factor)
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
                  if abs(state[occ]) > ZERO_TOL)
    return FockState(s.layout, terms)


def _factors(e: HamExpr) -> list:
    """Factors of the root product spine, first applied first."""
    return ([f for c in reversed(e.children) for f in _factors(c)]
            if isinstance(e, Seq) else [e])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
# Layout header then one ket per line:
#   sites: t(2), t(4), F
#   (0.7071067811865476,0.0) |0,1,0>

_SITE_RE = re.compile(r"^\s*(t\(\s*(\d+)\s*\)|F)\s*$")
_KET_RE = re.compile(
    r"^\s*\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)\s*\|([0-9,\s]*)[>⟩]\s*$")


def format_sites(layout: SiteList) -> str:
    return ", ".join(str(s) for s in layout)


def parse_state(text: str) -> FockState:
    """The state of text.  A malformed line raises StateFormatError at its
    line and the 1-based column of the bad field: a header other than
    ``sites:`` and site types F or t(m >= 1), a line that is no ket, an
    amplitude part that is not a finite number, or an occupation vector of
    the wrong length or out of range."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if not header.lstrip().startswith("sites:"):
        raise StateFormatError("state text must start with a 'sites:' header",
                               n, _column(header, 0))
    layout = _parse_sites(n, header)
    # _parse_ket checks each ket's occupations, to report the column
    return _merged(layout,
                   [_parse_ket(n, ln, layout) for n, ln in lines[1:]])


def _parse_sites(n: int, header: str) -> SiteList:
    """The site types that header line n lists after its 'sites:'."""
    sites = []
    start = header.index(":") + 1
    for part in header[start:].split(","):
        sites.append(_at(n, _column(header, start), _site, part))
        start += len(part) + 1
    return tuple(sites)


def _site(text: str):
    """The site type F or t(m) that text names."""
    m = _SITE_RE.match(text)
    if not m:
        raise ValueError(f"bad site type {text.strip()!r}")
    return Fermion() if m[1] == "F" else Boson(int(m[2]))


def _parse_ket(n: int, line: str, layout: SiteList) -> tuple:
    """(amplitude, occupations) of ket line n."""
    m = _KET_RE.match(line)
    if not m:
        raise StateFormatError(f"bad ket line {line.strip()!r}", n,
                               _column(line, 0))
    amp = complex(*(_at(n, m.start(g) + 1, _finite, m[g]) for g in (1, 2)))
    col = m.start(3) + 1
    occ = (tuple(_at(n, col, int, x) for x in m[3].split(","))
           if m[3].strip() else ())
    _at(n, col, _check_occ, layout, occ)
    return amp, occ


def _finite(text: str) -> float:
    """The finite float that text names."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"amplitude part {text} is not finite")
    return value


def _column(line: str, offset: int) -> int:
    """The 1-based column of the first non-blank character of line at or
    after offset; one past the end when there is none."""
    rest = line[offset:]
    return offset + len(rest) - len(rest.lstrip()) + 1


def _at(n: int, col: int, convert, *args):
    """convert(*args), a ValueError or LayoutError it raises reported as a
    StateFormatError at line n, column col."""
    try:
        return convert(*args)
    except (ValueError, LayoutError) as exc:
        raise StateFormatError(str(exc), n, col) from None


def format_state(s: FockState) -> str:
    lines = [f"sites: {format_sites(s.layout)}"]
    for k in s.terms:
        occ = ",".join(str(x) for x in k.occ)
        lines.append(f"({k.amp.real!r},{k.amp.imag!r}) |{occ}>")
    return "\n".join(lines) + "\n"
