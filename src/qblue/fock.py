"""Truncated Fock states and the operator interpreter.

States are sparse complex combinations of occupation-number kets over a fixed
site layout; the empty combination is the absorbing zero state.  ``apply``
walks the operator tree over the whole state: an atom maps each ket through its
ladder, a sum adds its children's results into one accumulator, and a product
applies its children to the merged state, last child first; an adjoint arrives
already built from atoms, sums and products.  A fermionic ladder takes the sign
(-1)^(occupied fermionic sites to its left).  Inside ``apply`` a ket is one
int: site i holds its occupation in a field (d_i - 1).bit_length() bits wide,
site 0 the most significant, so int order is occupation order, and the sign is
the parity of the ket's bits under a mask of the fermionic sites before the
ladder.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    ZERO_TOL, LayoutError, ParseError, finite_float, natural, negligible,
)
from .expr import Atom, Boson, Fermion, HamExpr, Seq, SiteList, Sum, site_dim


@dataclass(frozen=True)
class Ket:
    """One amplitude-weighted occupation vector."""

    amp: complex
    occ: tuple  # tuple[int, ...], one occupation per site


@dataclass(frozen=True)
class FockState:
    """Canonical sparse state: merged kets sorted by occupation vector.

    An empty term tuple is the zero state, which every operator keeps.
    """

    layout: SiteList
    terms: tuple  # tuple[Ket, ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _summed(kets) -> dict:
    """occ -> (amp, mag) of (amp, occ) pairs: the amplitudes listed for
    each occupation summed, and their magnitudes."""
    acc: dict[tuple, tuple] = {}
    for amp, occ in kets:
        a, m = acc.get(occ, (0j, 0.0))
        acc[occ] = a + complex(amp), m + abs(amp)
    return acc


def _state(layout: SiteList, acc: dict) -> FockState:
    """The state of acc, occ -> (amp, mag), kets sorted, an amplitude
    dropped when ``negligible`` at ZERO_TOL against its mag."""
    return FockState(tuple(layout), tuple(
        Ket(a, occ) for occ, (a, m) in sorted(acc.items())
        if not negligible(a, m, ZERO_TOL)))


def _check_occ(layout, occ):
    if len(occ) != len(layout):
        raise ValueError("occupation vector arity does not match layout")
    for k, site in zip(occ, layout):
        if not 0 <= k < site_dim(site):
            raise ValueError(
                f"occupation {k} out of range for site {site}")


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

def apply(e: HamExpr, s: FockState) -> FockState:
    """Big-step application of an operator expression to a state: the tree
    acts on the whole merged state, and only the final state is pruned and
    sorted.  Each amplitude carries the magnitudes of every path summed
    into it, so a residue in an intermediate state drops with its terms.
    A product multiplies its atoms' amplitudes before their ladders apply,
    so only its first factor scales; a sum inside it applies in doubles.
    A result amplitude left non-finite by an overflow on the way is a
    ValueError, as no state holds it.  The kets are packed into int keys
    on entry and unpacked at the end; a ladder moves its site's field from
    k to k', with weight sqrt(max(k, k')), and vanishes if k' leaves 0..d-1."""
    layout = e.layout
    if layout != s.layout:
        raise LayoutError("operator and state act on different site lists",
                          "apply", layout, s.layout)
    widths = [(site_dim(site) - 1).bit_length() for site in layout]
    shifts = list(accumulate(reversed(widths), initial=0))[-2::-1]
    fields = [(shift, (1 << w) - 1) for shift, w in zip(shifts, widths)]
    # a fermion's parity mask holds the bits of the fermions before it
    bits = [isinstance(site, Fermion) << n for site, n in zip(layout, shifts)]
    parity = [b and mask for b, mask in zip(bits, accumulate(bits, initial=0))]

    def act(node: HamExpr, state: dict, out: dict, z=1, w=1.0):
        """Add z times node applied to state into out, magnitudes times w;
        z None applies an atom's ladder at unit amplitude."""
        if isinstance(node, Atom):
            z, w = (1, 1.0) if z is None else (z * node.amp, w * abs(node.amp))
            if node.ladder is None:
                for x, (amp, mag) in state.items():
                    a, m = out.get(x, (0j, 0.0))
                    out[x] = a + amp * z, m + mag * w
                return
            j, kind = node.ladder
            (shift, field), before = fields[j], parity[j]
            # k moves to k + kind, inside 0..d-1 for k in lo..hi
            up, step = kind > 0, kind << shift
            lo, hi = 1 - up, site_dim(layout[j]) - 1 - up
            for x, (amp, mag) in state.items():
                k = x >> shift & field
                if not lo <= k <= hi:
                    continue
                c = math.sqrt(k + up)
                m = mag * w * c
                if before and (x & before).bit_count() & 1:
                    c = -c
                x += step
                a, acc = out.get(x, (0j, 0.0))
                out[x] = a + amp * z * c, acc + m
        elif isinstance(node, Sum):
            for c in node.children:
                act(c, state, out, z, w)
        elif isinstance(node, Seq):
            for c in reversed(node.children[1:]):
                mid: dict = {}
                if isinstance(c, Atom):   # its amplitude joins z
                    z, w = z * c.amp, w * abs(c.amp)
                act(c, state, mid, None if isinstance(c, Atom) else 1)
                state = mid
            act(node.children[0], state, out, z, w)
        else:
            raise TypeError(f"not a HamExpr: {node!r}")

    out: dict[int, tuple] = {}
    act(e, {sum([k << shift for k, shift in zip(ket.occ, shifts)]):
            (ket.amp, abs(ket.amp)) for ket in s.terms}, out)
    if not all(cmath.isfinite(a) for a, _ in out.values()):
        raise ValueError("an amplitude overflows the float range")
    return _state(layout, {tuple([x >> shift & f for shift, f in fields]): v
                           for x, v in out.items()})


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
# Layout header then one ket per line:
#   sites: t(2), t(4), F
#   (0.7071067811865476,0.0) |0,1,0>
# Its numbers are in the digits 0-9 by errors.finite_float and errors.natural.

_SITE_RE = re.compile(r"^\s*(t\(\s*([^)\s]+)\s*\)|F)\s*$")
_KET_RE = re.compile(
    r"^\s*\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)\s*\|([0-9,\s]*)[>⟩]\s*$")


def format_sites(layout: SiteList) -> str:
    return ", ".join(str(s) for s in layout)


def parse_state(text: str) -> FockState:
    """The state of text, each ket tested against the amplitudes listed
    for its occupation only, so a state ``format_state`` wrote reads back
    unchanged.  A malformed line raises ParseError at its line and
    the 1-based column of the bad field: a header other than ``sites:`` and
    site types F or t(m >= 1), a line that is no ket, an amplitude part
    that is not a finite number, or an occupation vector of the wrong
    length or out of range."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if not header.lstrip().startswith("sites:"):
        raise ParseError("state text must start with a 'sites:' header",
                         n, _column(header, 0))
    layout = _parse_sites(n, header)
    # _parse_ket checks each ket's occupations, to report the column
    return _state(layout, _summed(
        _parse_ket(n, ln, layout) for n, ln in lines[1:]))


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
    return Fermion() if m[1] == "F" else Boson(natural(m[2]))


def _parse_ket(n: int, line: str, layout: SiteList) -> tuple:
    """(amplitude, occupations) of ket line n."""
    m = _KET_RE.match(line)
    if not m:
        raise ParseError(f"bad ket line {line.strip()!r}", n, _column(line, 0))
    amp = complex(*(_at(n, m.start(g) + 1, finite_float, m[g]) for g in (1, 2)))
    col = m.start(3) + 1
    occ = (tuple(_at(n, col, natural, x.strip()) for x in m[3].split(","))
           if m[3].strip() else ())
    _at(n, col, _check_occ, layout, occ)
    return amp, occ


def _column(line: str, offset: int) -> int:
    """The 1-based column of the first non-blank character of line at or
    after offset; one past the end when there is none."""
    rest = line[offset:]
    return offset + len(rest) - len(rest.lstrip()) + 1


def _at(n: int, col: int, convert, *args):
    """convert(*args), a ValueError it raises reported as a ParseError at
    line n, column col."""
    try:
        return convert(*args)
    except ValueError as exc:
        raise ParseError(str(exc), n, col) from None


def format_state(s: FockState) -> str:
    lines = [f"sites: {format_sites(s.layout)}"]
    for k in s.terms:
        occ = ",".join(str(x) for x in k.occ)
        lines.append(f"({k.amp.real!r},{k.amp.imag!r}) |{occ}>")
    return "\n".join(lines) + "\n"
