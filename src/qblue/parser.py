"""Surface syntax for Hamiltonian programs.

A program declares a site layout and named operator definitions::

    sites t(2), t(2);
    Hhop = adag(0) a(1) + adag(1) a(0);
    HI1  = sum j in 0..0 { Z(j) Z(j+1) + 0.8 * X(j+1) };

Juxtaposition is the operator product, ``#`` the tensor product, ``+``/``-``
linear combination (``A - 0.5 * B`` is a difference), ``dag(...)`` the
adjoint.  Indexed atoms a/adag/I embed a single-site operator at the given
site with identity padding; X/Y/Z expand to their ladder combinations
(a^dag + a, i a - i a^dag, a^dag a - a a^dag) on two-dimensional sites.
``sum j in lo..hi { ... }`` unrolls inclusively with index arithmetic of the
form j + constant.  Scalar literals: ``1.5``, ``-2i``, ``(0.5+0.5i)``,
``sqrt(2)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import LayoutError, ParseError
from .expr import (
    Boson, Dagger, Fermion, HamExpr, Identity, Ladder, LadderKind, Seq,
    SiteList, Sum, Tensor, desugar_indexed, ham_sum, scale, seq, site_dim,
    site_layout, tensor,
)


@dataclass
class Program:
    layout: SiteList
    defs: dict  # name -> HamExpr, insertion-ordered


def validate_program(p: Program):
    """Check every definition acts on the declared layout."""
    for name, e in p.defs.items():
        inferred = site_layout(e)
        if inferred != p.layout:
            raise LayoutError(
                f"definition {name!r} does not act on the declared sites",
                name, inferred, p.layout)


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
        self.layout = self.site_list()
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
            e = self.expr({})
            self.expect(";")
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
        first = self.term(env)
        parts = [scale(-1, first) if negate else first]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            part = self.term(env)
            parts.append(scale(-1, part) if op == "-" else part)
        return ham_sum(*parts)

    def term(self, env: dict) -> HamExpr:
        factors = [self.tensor_factor(env)]
        while self._starts_factor():
            factors.append(self.tensor_factor(env))
        return seq(*factors)

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
            saved = self.pos
            z = self._try_paren_complex()
            if z is not None:
                self.expect("*")
                return scale(z, self.factor(env))
            self.pos = saved
            self.next()
            inner = self.expr(env)
            self.expect(")")
            return inner
        self.fail(f"expected an operator factor, found {t.text or 'end of input'!r}")

    def indexed_atom(self, env: dict) -> HamExpr:
        name = self.next().text
        self.expect("(")
        j = self.index_expr(env)
        self.expect(")")
        if not 0 <= j < len(self.layout):
            self.fail(f"site index {j} out of range for {len(self.layout)} sites")
        site = self.layout[j]
        if name == "a":
            return desugar_indexed(Ladder(LadderKind.ANNIHILATE, site), j,
                                   self.layout)
        if name == "adag":
            return desugar_indexed(Ladder(LadderKind.CREATE, site), j,
                                   self.layout)
        if name == "I":
            return desugar_indexed(Identity(site), j, self.layout)
        if site_dim(site) != 2:
            self.fail(f"{name}({j}) needs a two-dimensional site, "
                      f"found {site}")
        cr = lambda amp=1.0: desugar_indexed(  # noqa: E731
            Ladder(LadderKind.CREATE, site, amp), j, self.layout)
        an = lambda amp=1.0: desugar_indexed(  # noqa: E731
            Ladder(LadderKind.ANNIHILATE, site, amp), j, self.layout)
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
        lo = self.int_value(env)
        self.expect("..")
        hi = self.int_value(env)
        self.expect("{")
        if lo > hi:
            self.fail(f"empty sum range {lo}..{hi}")
        body_start = self.pos
        parts = []
        for v in range(lo, hi + 1):
            self.pos = body_start
            parts.append(self.expr({**env, var.text: v}))
        self.expect("}")
        return ham_sum(*parts)

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
        """Parse '(re+imi)' starting at '('; None (position restored) if the
        parenthesis opens a grouped expression instead."""
        saved = self.pos
        self.next()  # (
        sign = 1.0
        if self.peek().text == "-":
            self.next()
            sign = -1.0
        re_tok = self.peek()
        if re_tok.kind not in ("int", "float"):
            self.pos = saved
            return None
        self.next()
        op = self.peek().text
        if op not in ("+", "-"):
            self.pos = saved
            return None
        self.next()
        im_tok = self.peek()
        if im_tok.kind != "imag":
            self.pos = saved
            return None
        self.next()
        if self.peek().text != ")":
            self.pos = saved
            return None
        self.next()
        im = float(im_tok.text[:-1])
        return complex(sign * float(re_tok.text),
                       im if op == "+" else -im)


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

    Covers everything the surface syntax itself produces (identity-padded
    chains combined with +, juxtaposition, and dag); raises ValueError for
    tensor shapes that have no indexed rendering.
    """
    parts = _flatten(e, Sum)
    return " + ".join(_format_term(p) for p in parts)


def _flatten(e, node):
    if isinstance(e, node):
        return _flatten(e.left, node) + _flatten(e.right, node)
    return [e]


def _format_term(e: HamExpr) -> str:
    factors = _flatten(e, Seq)
    return " ".join(_format_factor(f) for f in factors)


def _format_factor(e: HamExpr) -> str:
    if isinstance(e, Dagger):
        return f"dag({format_expr(e.inner)})"
    if isinstance(e, Sum):
        return f"({format_expr(e)})"
    if isinstance(e, Seq):
        return f"({_format_term(e)})"
    z, atom = _chain_atom(e)
    if z == 1:
        return atom
    return f"({_format_literal(z)} * {atom})"


def _chain_atom(e: HamExpr):
    """(scalar, 'a(j)'-style atom) for an identity-padded tensor chain."""
    factors = _flatten(e, Tensor)
    z = 1 + 0j
    active = []
    for j, f in enumerate(factors):
        if isinstance(f, Identity):
            z *= f.amp
        elif isinstance(f, Ladder):
            active.append((j, f))
        else:
            raise ValueError(
                f"expression has no indexed rendering: {f!r}")
    if not active:
        return z, "I(0)"
    if len(active) > 1:
        raise ValueError("tensor chain with several active sites has no "
                         "indexed rendering")
    j, f = active[0]
    z *= f.amp
    name = "adag" if f.kind is LadderKind.CREATE else "a"
    return z, f"{name}({j})"


def _format_literal(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return f"{z.imag!r}i"
    return f"({z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i)"
