"""Hypothesis strategies that draw programs as text, each with its matrix.

``programs`` draws a ``Drawn``: the text of a program with one definition
``H``, and the matrix that the parser docstring gives that text, built from
``oracle`` alone.  This module imports nothing from qblue, so the parsed
program and the drawn matrix are two independent routes to the meaning of
the text.

The draws use every construct of the surface syntax: a/adag/I on any site
and X/Y/Z on two-level sites, expanded as the docstring defines them
(a^dag + a, i a - i a^dag, a^dag a - a a^dag); literal prefixes; binary
``+`` and ``-`` and a leading minus; juxtaposition; parentheses;
``dag(...)``; and ``sum k in lo..hi { ... }`` with indices k + c.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np
from hypothesis import strategies as st

import oracle

DIMS = {"F": 2, "t(2)": 2, "t(3)": 3, "t(4)": 4, "t(8)": 8}

# the site types one layout draws from
FAMILIES = {
    "F": ("F",), "t(2)": ("t(2)",), "t(3)": ("t(3)",),
    "F/t(2)": ("F", "t(2)"), "F/t(3)": ("F", "t(3)"),
    "t(4)": ("t(4)",), "t(8)": ("t(8)",), "t(4)/t(8)": ("t(4)", "t(8)"),
    "mixed": ("F", "t(2)", "t(3)", "t(4)"),
}
# the families of the graded (Jordan-Wigner) product of fermions and bosons
GRADED = ("F", "t(2)", "t(3)", "F/t(3)")

# literal prefixes as (text, value): int, float, exponent, imaginary,
# (re+imi), sqrt(..) and negatives
LITERALS = [
    ("2", 2), ("0.5", 0.5), ("1.25", 1.25), ("3e-2", 0.03), ("2i", 2j),
    ("0.5i", 0.5j), ("(0.5+0.25i)", 0.5 + 0.25j), ("(-1.5-2i)", -1.5 - 2j),
    ("sqrt(2)", math.sqrt(2)), ("-0.75", -0.75), ("-2i", -2j),
    ("-sqrt(3)", -math.sqrt(3)), ("-(0.5-1i)", -(0.5 - 1j)),
]


def program_text(sites, *bodies) -> str:
    """A program on sites with the definitions H (one body) or H0, H1, ..."""
    names = ([f"H{k}" for k in range(len(bodies))] if len(bodies) > 1
             else ["H"])
    return f"sites {', '.join(sites)};\n" + "".join(
        f"{name} = {body};\n" for name, body in zip(names, bodies))


@dataclass(frozen=True)
class Drawn:
    """A drawn definition: its sites, its body, and its meaning, a function
    from the loop indices in scope to (matrix, magnitudes).  The magnitudes
    add the absolute values of every term summed into each entry, the scale
    a rounding error in that entry is relative to."""

    sites: tuple
    body: str
    meaning: Callable = field(repr=False)

    @property
    def text(self) -> str:
        return program_text(self.sites, self.body)

    @cached_property
    def _value(self):
        # an entry past the float range is inf or nan, as in the library
        with np.errstate(over="ignore", invalid="ignore"):
            return self.meaning({})

    @property
    def matrix(self) -> np.ndarray:
        return self._value[0]

    @property
    def magnitudes(self) -> np.ndarray:
        return self._value[1]

    @property
    def magnitude(self) -> float:
        """The largest entry of the magnitudes."""
        return self.magnitudes.max()

    @property
    def tolerance(self) -> float:
        """A bound on the rounding of any entry of the matrix."""
        return 1e-12 * self.magnitude

    def times(self, literal: str, value) -> "Drawn":
        """The body scaled by a literal of that value."""
        return Drawn(self.sites, f"{literal} * ({self.body})",
                     lambda env: _scaled(value, self.meaning(env)))

    def adjoint(self) -> "Drawn":
        return Drawn(self.sites, f"dag({self.body})",
                     lambda env: _adjoint(self.meaning(env)))

    def __add__(self, other: "Drawn") -> "Drawn":
        # after a '+', a leading minus would be read as a literal's sign
        right = other.body
        if right.startswith("- "):
            right = f"({right})"
        return Drawn(self.sites, f"{self.body} + {right}",
                     lambda env: _total([self.meaning(env),
                                         other.meaning(env)]))

    def __matmul__(self, other: "Drawn") -> "Drawn":
        return Drawn(self.sites, f"({self.body}) ({other.body})",
                     lambda env: _product([self.meaning(env),
                                           other.meaning(env)]))


def _scaled(z, mb):
    return z * mb[0], abs(z) * mb[1]


def _adjoint(mb):
    return mb[0].conj().T, mb[1].T


def _total(mbs):
    ms, bs = zip(*mbs)
    return sum(ms), sum(bs)


def _product(mbs):
    ms, bs = zip(*mbs)
    return reduce(np.matmul, ms), reduce(np.matmul, bs)


def _negated(mb):
    return -mb[0], mb[1]


class _Layout:
    """The oracle matrices of the atoms of a drawn layout, whose site j the
    text names j + offset."""

    def __init__(self, sites, offset):
        self.offset = offset
        self.n = len(sites)
        self.dims = [DIMS[s] for s in sites]
        self.fermionic = [s == "F" for s in sites]

    def ladder(self, mat, j):
        op = mat(self.dims[j])
        if self.fermionic[j]:
            return oracle.jw_embedded(op, j, self.dims, self.fermionic)
        return oracle.embedded(op, j, self.dims)

    def atom(self, name, j):
        c = self.ladder(oracle.create_mat, j)
        a = self.ladder(oracle.annihilate_mat, j)
        m = {"a": a, "adag": c, "I": np.eye(len(c), dtype=complex),
             "X": c + a, "Y": 1j * a - 1j * c, "Z": c @ a - a @ c}[name]
        return m, abs(m)


def layouts(families=tuple(FAMILIES), max_dim=64):
    """Site texts of one family, at least one site, the longest prefix of
    total dimension at most max_dim."""
    def within(sites):
        while len(sites) > 1 and math.prod(DIMS[s] for s in sites) > max_dim:
            sites = sites[:-1]
        return tuple(sites)

    return st.sampled_from(list(families)).flatmap(
        lambda f: st.lists(st.sampled_from(FAMILIES[f]), min_size=1,
                           max_size=6)).map(within)


# Each piece of the grammar is a function of ``draw`` that recurses
# directly, so a draw builds no strategy object per node.
_KINDS = {0: st.sampled_from(["atom", "scaled"]),
          1: st.sampled_from(["atom", "scaled", "dag", "paren", "loop"])}
_NAMES = {False: st.sampled_from(["a", "adag", "I"]),
          True: st.sampled_from(["a", "adag", "I", "X", "Y", "Z"])}
_LITERAL = st.sampled_from(LITERALS)
_SIGN = st.sampled_from("+-")
_COUNT = st.integers(1, 2)


def _index(draw, lay, loops):
    """(text, sites visited, site in an environment) of a site index: a
    number, or k + c for a loop index k in scope.  A loop (k, lo, hi) runs
    over sites lo..hi, and k takes their values in the text."""
    pick = draw(st.integers(0, len(loops)))
    if pick == len(loops):
        j = draw(st.integers(0, lay.n - 1))
        return str(j + lay.offset), [j], lambda env: j
    var, lo, hi = loops[pick]
    c = draw(st.integers(-lo, lay.n - 1 - hi))
    text = var if c == 0 else f"{var} + {c}" if c > 0 else f"{var} - {-c}"
    return (text, [v + c for v in range(lo, hi + 1)],
            lambda env: env[var] + c - lay.offset)


def _atom(draw, lay, loops):
    text, visits, where = _index(draw, lay, loops)
    name = draw(_NAMES[all(lay.dims[j] == 2 for j in visits)])
    return f"{name}({text})", lambda env: lay.atom(name, where(env))


def _factor(draw, lay, loops, depth):
    kind = draw(_KINDS[min(depth, 1)])
    if kind == "atom":
        return _atom(draw, lay, loops)
    if kind == "scaled":
        literal, z = draw(_LITERAL)
        text, f = _factor(draw, lay, loops, max(depth - 1, 0))
        return f"{literal} * {text}", lambda env: _scaled(z, f(env))
    if kind == "loop":
        var = "jkmn"[len(loops)]
        lo = draw(st.integers(0, lay.n - 1))
        hi = draw(st.integers(lo, min(lay.n - 1, lo + 2)))
        text, f = _expr(draw, lay, [*loops, (var, lo, hi)], depth - 1)
        lo, hi = lo + lay.offset, hi + lay.offset
        return (f"sum {var} in {lo}..{hi} {{ {text} }}",
                lambda env: _total([f({**env, var: v})
                                    for v in range(lo, hi + 1)]))
    text, f = _expr(draw, lay, loops, depth - 1)
    if kind == "dag":
        return f"dag({text})", lambda env: _adjoint(f(env))
    return f"({text})", f


def _term(draw, lay, loops, depth):
    """Juxtaposed factors, the product; a later factor that starts with a
    minus goes in parentheses, or the minus would be a binary one."""
    factors = [_factor(draw, lay, loops, depth)
               for _ in range(draw(_COUNT))]
    texts = [factors[0][0]] + [f"({t})" if t.startswith("-") else t
                               for t, _ in factors[1:]]
    fs = [f for _, f in factors]
    return " ".join(texts), lambda env: _product([f(env) for f in fs])


def _expr(draw, lay, loops, depth):
    """Terms joined by + and -, the first maybe after a leading minus."""
    terms = [(draw(_SIGN), *_term(draw, lay, loops, depth))
             for _ in range(draw(_COUNT))]
    text = ("- " if terms[0][0] == "-" else "") + terms[0][1]
    for sign, t, _ in terms[1:]:
        text += f" {sign} {t}"
    return text, lambda env: _total([_negated(f(env)) if sign == "-"
                                     else f(env) for sign, _, f in terms])


@st.composite
def on(draw, sites, depth=2, offset=0):
    """A Drawn definition on sites, site j written j + offset."""
    body, meaning = _expr(draw, _Layout(sites, offset), [], depth)
    return Drawn(tuple(sites), body, meaning)


def programs(families=tuple(FAMILIES), max_dim=64, depth=2):
    """A Drawn definition on a layout of one of ``families``."""
    return layouts(families, max_dim).flatmap(lambda sites: on(sites, depth))
