"""Surface syntax for Hamiltonian programs.

A program declares a site layout and named operator definitions::

    sites t(2), t(2);
    Hhop = adag(0) a(1) + adag(1) a(0);
    HI1  = sum j in 0..0 { Z(j) Z(j+1) + 0.8 * X(j+1) };

Juxtaposition is the operator product, ``#`` the tensor product, ``+``/``-``
linear combination (``A - 0.5 * B`` is a difference), ``dag(...)`` the
adjoint.  An indexed atom a/adag/I is one node over the declared layout
that lists the given site, the identity implicit at every other site;
X/Y/Z expand to their ladder combinations (a^dag + a, i a - i a^dag,
a^dag a - a a^dag) on two-dimensional sites.  ``sum j in lo..hi { ... }``
unrolls inclusively with index arithmetic of the form j + constant into
one n-ary sum, as ``+`` chains and juxtaposition build one n-ary sum and
product.  Scalar literals: ``1.5``, ``-2i``, ``(0.5+0.5i)``, ``sqrt(2)``.
Operands whose site lists disagree raise LayoutError with the definition
name and the source line and column of the operand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import LayoutError, ParseError
from .expr import (
    Atom, Boson, Dagger, Fermion, HamExpr, LadderKind, Seq, SiteList, Sum,
    ham_sum, intern_layout, scale, seq, site_dim, site_layout, tensor,
)


@dataclass
class Program:
    layout: SiteList
    defs: dict  # name -> HamExpr, insertion-ordered

    def __post_init__(self):
        self.layout = intern_layout(self.layout)


def validate_program(p: Program):
    """Check every definition acts on the declared layout; each node stores
    its layout, so this reads one attribute per definition."""
    for name, e in p.defs.items():
        if e.layout is not p.layout:
            raise LayoutError(
                f"definition {name!r} does not act on the declared sites",
                name, site_layout(e), p.layout)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<imag>(?:\d+\.\d+|\.\d+|\d+)(?:[eE][+-]?\d+)?i\b)
  | (?P<float>(?:\d+\.\d+|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<dotdot>\.\.)
  | (?P<punct>[()=;,+\-*#{}])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(Token("punct" if kind == "dotdot" else kind,
                                text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0
        self.layout: SiteList = ()
        self.name = ""   # the definition being parsed

    # -- token plumbing

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            shown = t.text or "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", t.line, t.col)
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- grammar

    def program(self) -> Program:
        t = self.peek()
        if t.text != "sites":
            self.fail("program must start with a 'sites' declaration")
        self.next()
        self.layout = intern_layout(self.site_list())
        self.expect(";")
        defs: dict[str, HamExpr] = {}
        while self.peek().kind != "eof":
            name_tok = self.peek()
            if name_tok.kind != "name":
                self.fail("expected a definition name")
            if name_tok.text in defs:
                raise ParseError(f"duplicate definition {name_tok.text!r}",
                                 name_tok.line, name_tok.col)
            self.next()
            self.expect("=")
            self.name = name_tok.text
            e = self.expr({})
            self.expect(";")
            if e.layout is not self.layout:
                raise LayoutError(
                    f"definition {self.name!r} does not act on the declared "
                    "sites", self.name, e.layout, self.layout,
                    name_tok.line, name_tok.col)
            defs[name_tok.text] = e
        if not defs:
            self.fail("program has no definitions")
        return Program(self.layout, defs)

    def site_list(self) -> SiteList:
        sites = [self.site()]
        while self.peek().text == ",":
            self.next()
            sites.append(self.site())
        return tuple(sites)

    def site(self):
        t = self.next()
        if t.text == "F":
            return Fermion()
        if t.text == "t":
            self.expect("(")
            m = self.next()
            if m.kind != "int":
                raise ParseError("expected a site dimension", m.line, m.col)
            self.expect(")")
            return Boson(int(m.text))
        raise ParseError(f"expected a site type t(m) or F, found {t.text!r}",
                         t.line, t.col)

    def expr(self, env: dict) -> HamExpr:
        negate = False
        if self.peek().text == "-" and not self._literal_ahead(1):
            # leading minus on a non-literal term
            self.next()
            negate = True
        starts = [self.peek()]
        first = self.term(env)
        parts = [scale(-1, first) if negate else first]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            starts.append(self.peek())
            part = self.term(env)
            parts.append(scale(-1, part) if op == "-" else part)
        return ham_sum(*self._agree("sum", parts, starts))

    def term(self, env: dict) -> HamExpr:
        starts = [self.peek()]
        factors = [self.tensor_factor(env)]
        while self._starts_factor():
            starts.append(self.peek())
            factors.append(self.tensor_factor(env))
        return seq(*self._agree("seq", factors, starts))

    def _agree(self, kind: str, parts, starts):
        """parts, or LayoutError at the first one whose layout differs."""
        first = parts[0].layout
        for part, t in zip(parts, starts):
            if part.layout is not first:
                raise LayoutError(
                    f"{kind} branches act on different site lists",
                    self.name, first, part.layout, t.line, t.col)
        return parts

    def tensor_factor(self, env: dict) -> HamExpr:
        parts = [self.factor(env)]
        while self.peek().text == "#":
            self.next()
            parts.append(self.factor(env))
        return tensor(*parts)

    def _starts_factor(self) -> bool:
        t = self.peek()
        if t.kind in ("int", "float", "imag"):
            return True
        if t.kind == "name":
            return t.text in ("a", "adag", "I", "X", "Y", "Z", "dag", "sum",
                              "sqrt")
        # a '-' between factors is always the binary minus of expr()
        return t.text == "("

    def _literal_ahead(self, offset: int) -> bool:
        t = self.peek(offset)
        return t.kind in ("int", "float", "imag") or t.text == "sqrt"

    def factor(self, env: dict) -> HamExpr:
        t = self.peek()
        if t.text == "dag":
            self.next()
            self.expect("(")
            inner = self.expr(env)
            self.expect(")")
            return Dagger(inner)
        if t.text == "sum":
            return self.sum_loop(env)
        if t.text in ("a", "adag", "I", "X", "Y", "Z") and \
                self.peek(1).text == "(":
            return self.indexed_atom(env)
        if t.kind in ("int", "float", "imag") or t.text in ("sqrt", "-"):
            z = self.literal()
            self.expect("*")
            return scale(z, self.factor(env))
        if t.text == "(":
            z = self._try_paren_complex()
            if z is not None:
                self.expect("*")
                return scale(z, self.factor(env))
            self.next()
            inner = self.expr(env)
            self.expect(")")
            return inner
        self.fail(f"expected an operator factor, found {t.text or 'end of input'!r}")

    def indexed_atom(self, env: dict) -> HamExpr:
        t = self.next()
        name = t.text
        self.expect("(")
        j = self.index_expr(env)
        self.expect(")")
        if not 0 <= j < len(self.layout):
            raise ParseError(f"site index {j} out of range for "
                             f"{len(self.layout)} sites", t.line, t.col)
        if name == "I":
            return Atom(self.layout)
        if name in ("X", "Y", "Z") and site_dim(self.layout[j]) != 2:
            raise ParseError(f"{name}({j}) needs a two-dimensional site, "
                             f"found {self.layout[j]}", t.line, t.col)
        cr = lambda amp=1.0: Atom(  # noqa: E731
            self.layout, ((j, LadderKind.CREATE),), amp)
        an = lambda amp=1.0: Atom(  # noqa: E731
            self.layout, ((j, LadderKind.ANNIHILATE),), amp)
        if name == "a":
            return an()
        if name == "adag":
            return cr()
        if name == "X":
            return Sum(cr(), an())
        if name == "Y":
            return Sum(an(1j), cr(-1j))
        return Sum(Seq(cr(), an()), scale(-1, Seq(an(), cr())))

    def sum_loop(self, env: dict) -> HamExpr:
        self.expect("sum")
        var = self.next()
        if var.kind != "name":
            raise ParseError("expected a sum index name", var.line, var.col)
        self.expect("in")
        lo_tok = self.peek()
        lo = self.int_value(env)
        self.expect("..")
        hi = self.int_value(env)
        self.expect("{")
        if lo > hi:
            raise ParseError(f"empty sum range {lo}..{hi}",
                             lo_tok.line, lo_tok.col)
        body_start = self.pos
        parts = []
        for v in range(lo, hi + 1):
            self.pos = body_start
            parts.append(self.expr({**env, var.text: v}))
        self.expect("}")
        starts = [self.tokens[body_start]] * len(parts)
        return ham_sum(*self._agree("sum", parts, starts))

    def index_expr(self, env: dict) -> int:
        value = self.int_value(env)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.int_value(env)
            value = value + rhs if op == "+" else value - rhs
        return value

    def int_value(self, env: dict) -> int:
        t = self.next()
        if t.kind == "int":
            return int(t.text)
        if t.kind == "name":
            if t.text not in env:
                raise ParseError(f"unbound index {t.text!r}", t.line, t.col)
            return env[t.text]
        raise ParseError(f"expected an index, found {t.text!r}", t.line, t.col)

    def literal(self) -> complex:
        sign = 1.0
        if self.peek().text == "-":
            self.next()
            sign = -1.0
        t = self.peek()
        if t.text == "sqrt":
            self.next()
            self.expect("(")
            v = self.next()
            if v.kind not in ("int", "float"):
                raise ParseError("expected a number inside sqrt",
                                 v.line, v.col)
            self.expect(")")
            return sign * math.sqrt(float(v.text))
        if t.text == "(":
            z = self._try_paren_complex()
            if z is None:
                self.fail("expected a complex literal")
            return sign * z
        if t.kind == "imag":
            self.next()
            return sign * complex(0.0, float(t.text[:-1]))
        if t.kind in ("int", "float"):
            self.next()
            return sign * float(t.text)
        raise ParseError(f"expected a scalar literal, found {t.text!r}",
                         t.line, t.col)

    def _try_paren_complex(self):
        """Parse '(re+imi)' starting at '('; None, with the position
        unchanged, if the parenthesis opens a grouped expression instead."""
        k = 2 if self.peek(1).text == "-" else 1
        re_tok, op, im_tok, close = (self.peek(k + i) for i in range(4))
        if (re_tok.kind not in ("int", "float") or op.text not in ("+", "-")
                or im_tok.kind != "imag" or close.text != ")"):
            return None
        self.pos += k + 4
        im = float(im_tok.text[:-1])
        return complex((-1.0 if k == 2 else 1.0) * float(re_tok.text),
                       im if op.text == "+" else -im)


def parse(source: str) -> Program:
    """Parse a program; raises ParseError with line/column on bad syntax."""
    return _Parser(source).program()


# ---------------------------------------------------------------------------
# Pretty printer (indexed form)
# ---------------------------------------------------------------------------

def format_program(p: Program) -> str:
    from .fock import format_sites
    lines = [f"sites {format_sites(p.layout)};"]
    for name, e in p.defs.items():
        lines.append(f"{name} = {format_expr(e)};")
    return "\n".join(lines) + "\n"


def format_expr(e: HamExpr) -> str:
    """Render in re-parseable indexed form.

    Covers everything the surface syntax itself produces: atoms that list
    at most one site, combined by n-ary sums and products and by dag.
    Raises ValueError for tensor products and for atoms that list several
    sites, which have no indexed rendering.
    """
    parts = e.children if isinstance(e, Sum) else (e,)
    return " + ".join(_format_term(p) for p in parts)


def _format_term(e: HamExpr) -> str:
    factors = e.children if isinstance(e, Seq) else (e,)
    return " ".join(_format_factor(f) for f in factors)


def _format_factor(e: HamExpr) -> str:
    if isinstance(e, Dagger):
        return f"dag({format_expr(e.inner)})"
    if isinstance(e, Sum):
        return f"({format_expr(e)})"
    if isinstance(e, Seq):
        return f"({_format_term(e)})"
    if not isinstance(e, Atom) or len(e.ops) > 1:
        raise ValueError(f"expression has no indexed rendering: {e!r}")
    atom = "I(0)"
    if e.ops:
        j, kind = e.ops[0]
        atom = f"{'adag' if kind is LadderKind.CREATE else 'a'}({j})"
    if e.amp == 1:
        return atom
    return f"({_format_literal(e.amp)} * {atom})"


def _format_literal(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return f"{z.imag!r}i"
    return f"({z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i)"
