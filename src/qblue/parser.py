"""Surface syntax for Hamiltonian programs.

A program declares a site layout and named operator definitions::

    sites t(2), t(2);
    Hhop = adag(0) a(1) + adag(1) a(0);
    HI1  = sum j in 0..0 { Z(j) Z(j+1) + 0.8 * X(j+1) };

Juxtaposition is the operator product, ``+``/``-`` linear combination
(``A - 0.5 * B`` is a difference), ``dag(...)`` the adjoint.  An indexed
atom a/adag/I is one node over the declared layout that names the given
site, the identity implicit at every other site; on two-dimensional sites
X/Y/Z expand to a^dag + a, i a - i a^dag and 2 a^dag a - I, which there
equals a^dag a - a a^dag.  ``sum j in lo..hi { ... }`` unrolls inclusively
with index arithmetic of the form j + constant into one n-ary sum, as
``+`` chains and juxtaposition build one n-ary sum and product.  Scalar
literals: ``1.5``, ``-2i``, ``(0.5+0.5i)``, ``sqrt(2)``, in the digits 0-9
of ``errors.NUMBER``, the one number rule of every qblue reader.  Every
node of a parsed program spans the declared layout: atoms are built on it,
and scaling, ``dag``, sums, products and sum loops keep their children's
layout.  So the parser has no layouts to reconcile, and a program has no
layout errors.

The parser pays once per token and once per atom.  The tokenizer scans the
source once, with one ``findall``, and a token keeps its index in the token
list; the line and column of an error are found by a second scan, only when
the error is raised.  A literal prefix such as ``0.8 *`` folds into the
amplitudes of the indexed atom it scales, so that atom is built once with
its final amplitude.  A literal, or a chain of prefixes, that makes an
amplitude overflow is a ParseError at the literal.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass

from .errors import NUMBER, AmplitudeError, ParseError, natural
from .expr import (
    Atom, Boson, Fermion, HamExpr, LadderKind, Seq, SiteList, Sum, dagger,
    ham_sum, scale, seq, site_dim,
)


@dataclass
class Program:
    layout: SiteList
    defs: dict  # name -> HamExpr, insertion-ordered


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""(?:\s+|//[^\n]*)*(
    """ + NUMBER + r"""(?:i\b)?
  | [A-Za-z_][A-Za-z_0-9]* | \.\. | [()=;,+\-*{}] | \Z | [\s\S]+ )""",
                       re.VERBOSE)

# the kind of a token by its first character; "" is the eof token
_KINDS = {**dict.fromkeys(string.ascii_letters + "_", "name"),
          **dict.fromkeys("()=;,+-*{}", "punct"), "": "eof"}
# and the kind of a number by the name of the group it matches in full
_NUMBER_RE = re.compile(
    f"(?P<int>[0-9]+)|(?P<float>{NUMBER})|(?P<imag>{NUMBER}i)")


def _kind(text: str) -> str:
    """The kind of a token that is a number, ``..`` or bad."""
    m = _NUMBER_RE.fullmatch(text)
    return m.lastgroup if m else "punct" if text == ".." else "bad"


def tokenize(src: str) -> list:
    """The tokens of src as ``(kind, text, index)`` tuples, from one scan.

    ``findall`` returns each token's text, whitespace and ``//`` comments
    skipped before it, and the text gives the kind; an unexpected character
    takes the rest of the source as a ``bad`` token.  Eof tokens pad the
    end, so every lookahead is a plain index.  A token keeps its index, not
    its offset: ``_position`` scans again, and only for an error.
    """
    texts = _TOKEN_RE.findall(src)
    kinds = {text: _KINDS.get(text[:1]) or _kind(text) for text in set(texts)}
    tokens = [(kinds[text], text, i) for i, text in enumerate(texts)]
    if len(tokens) > 1 and tokens[-2][0] == "bad":
        raise ParseError(f"unexpected character {tokens[-2][1][0]!r}",
                         *_position(src, len(tokens) - 2))
    return tokens + tokens[-1:] * 6   # peek() looks at most 5 tokens ahead


def _position(src: str, index: int) -> tuple:
    """The 1-based line and column of the token at index in src."""
    offset = [m.start(1) for m in _TOKEN_RE.finditer(src)][index]
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_NUMBERS = ("int", "float", "imag")
_ATOMS = ("a", "adag", "I", "X", "Y", "Z")
_FACTOR_STARTS = frozenset((*_ATOMS, "dag", "sum", "sqrt", "("))
_CREATE, _ANNIHILATE = LadderKind.CREATE, LadderKind.ANNIHILATE


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.layout: SiteList = ()

    # -- token plumbing: a token is (kind, text, index)

    def peek(self, ahead=0) -> tuple:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple:
        # past the first eof token the padding reads as more eof tokens
        self.pos += 1
        return self.tokens[self.pos - 1]

    def at(self, t) -> tuple:
        """Line and column of token t."""
        return _position(self.src, t[2])

    def expect(self, text: str) -> None:
        t = self.tokens[self.pos]
        if t[1] != text:
            shown = t[1] or "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", *self.at(t))
        self.pos += 1

    def fail(self, message: str):
        raise ParseError(message, *self.at(self.peek()))

    # -- grammar

    def program(self) -> Program:
        if self.peek()[1] != "sites":
            self.fail("program must start with a 'sites' declaration")
        self.next()
        self.layout = self.site_list()
        self.expect(";")
        defs: dict[str, HamExpr] = {}
        while self.peek()[0] != "eof":
            name_tok = self.peek()
            if name_tok[0] != "name":
                self.fail("expected a definition name")
            if name_tok[1] in defs:
                raise ParseError(f"duplicate definition {name_tok[1]!r}",
                                 *self.at(name_tok))
            self.next()
            self.expect("=")
            defs[name_tok[1]] = self.expr({})
            self.expect(";")
        if not defs:
            self.fail("program has no definitions")
        return Program(self.layout, defs)

    def site_list(self) -> SiteList:
        sites = [self.site()]
        while self.peek()[1] == ",":
            self.next()
            sites.append(self.site())
        return tuple(sites)

    def site(self):
        t = self.next()
        if t[1] == "F":
            return Fermion()
        if t[1] == "t":
            self.expect("(")
            m = self.next()
            if m[0] != "int":
                raise ParseError("expected a site dimension", *self.at(m))
            dim = self.int_of(m)
            if dim < 1:
                raise ParseError("site dimension must be at least 1",
                                 *self.at(m))
            self.expect(")")
            return Boson(dim)
        raise ParseError(f"expected a site type t(m) or F, found {t[1]!r}",
                         *self.at(t))

    def expr(self, env: dict) -> HamExpr:
        parts = self.terms(env)
        return parts[0] if len(parts) == 1 else ham_sum(*parts)

    def terms(self, env: dict) -> list:
        """The signed terms of an expr; a sum loop gathers all of its own."""
        tokens = self.tokens
        after = tokens[self.pos + 1]
        # a leading minus on a non-literal term
        negate = (tokens[self.pos][1] == "-" and after[0] not in _NUMBERS
                  and after[1] != "sqrt")
        self.pos += negate
        first = self.term(env)
        parts = [scale(-1, first) if negate else first]
        while (op := tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            part = self.term(env)
            parts.append(scale(-1, part) if op == "-" else part)
        return parts

    def term(self, env: dict) -> HamExpr:
        """Juxtaposed factors; a '-' between them is expr()'s binary minus."""
        factors = [self.factor(env)]
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.pos]
            if text not in _FACTOR_STARTS and kind not in _NUMBERS:
                return factors[0] if len(factors) == 1 else seq(*factors)
            factors.append(self.factor(env))

    def factor(self, env: dict, z=None) -> HamExpr:
        """One factor times z, the literal prefix before it if any.  An
        indexed atom takes z into its amplitudes; any other factor, a
        further prefix included, goes through scale(z, ...) as before."""
        tokens = self.tokens
        kind, text, _ = start = tokens[self.pos]
        if text in _ATOMS and tokens[self.pos + 1][1] == "(":
            return self.indexed_atom(env, z)
        w = None
        if kind in _NUMBERS or text in ("sqrt", "-"):
            w = self.literal()
        elif text == "(":
            w = self._try_paren_complex()
        if w is not None:
            self.expect("*")
            try:
                e = self.factor(env, complex(w))
            except AmplitudeError:   # w made an amplitude overflow
                raise ParseError("scalar literal overflows the amplitude range",
                                 *self.at(start)) from None
        elif text == "dag":
            self.next()
            self.expect("(")
            e = dagger(self.expr(env))
            self.expect(")")
        elif text == "sum":
            e = self.sum_loop(env)
        elif text == "(":
            self.next()
            e = self.expr(env)
            self.expect(")")
        else:
            self.fail("expected an operator factor, found "
                      f"{text or 'end of input'!r}")
        return e if z is None else scale(z, e)

    def indexed_atom(self, env: dict, z=None) -> HamExpr:
        tokens, pos = self.tokens, self.pos
        t, idx = tokens[pos], tokens[pos + 2]   # past the '(' factor() saw
        # a bare index, the common case, skips index_expr
        if tokens[pos + 3][1] == ")" and (idx[0] == "int" or idx[1] in env):
            j = self.int_of(idx) if idx[0] == "int" else env[idx[1]]
            self.pos = pos + 4
        else:
            self.pos = pos + 2
            j = self.index_expr(env)
            self.expect(")")
        name, lay = t[1], self.layout
        if not 0 <= j < len(lay):
            try:
                shown = f"site index {j}"
            except ValueError:   # more digits than Python converts to text
                shown = "site index"
            raise ParseError(f"{shown} out of range for {len(lay)} sites",
                             *self.at(t))
        if name in ("X", "Y", "Z") and site_dim(lay[j]) != 2:
            raise ParseError(f"{name}({j}) needs a two-dimensional site, "
                             f"found {lay[j]}", *self.at(t))
        # each atom built once, with the amplitude scale(z, atom) gives it:
        # z * base, or base itself when there is no prefix
        one = 1 + 0j if z is None else z * (1 + 0j)
        if name in ("a", "adag", "I"):
            return Atom(lay, None if name == "I" else
                        (j, _CREATE if name == "adag" else _ANNIHILATE), one)
        cr, an = (j, _CREATE), (j, _ANNIHILATE)
        if name == "X":
            return Sum(Atom(lay, cr, one), Atom(lay, an, one))
        if name == "Y":
            return Sum(Atom(lay, an, 1j if z is None else z * 1j),
                       Atom(lay, cr, -1j if z is None else z * -1j))
        return Sum(Seq(Atom(lay, cr, 2 + 0j if z is None else z * (2 + 0j)),
                       Atom(lay, an)),
                   Atom(lay, None, -1 + 0j if z is None else z * (-1 + 0j)))

    def sum_loop(self, env: dict) -> HamExpr:
        self.expect("sum")
        var = self.next()
        if var[0] != "name":
            raise ParseError("expected a sum index name", *self.at(var))
        self.expect("in")
        lo_tok = self.peek()
        lo = self.int_value(env)
        self.expect("..")
        hi = self.int_value(env)
        self.expect("{")
        if lo > hi:
            raise ParseError(f"empty sum range {lo}..{hi}", *self.at(lo_tok))
        body_start = self.pos
        parts = []
        for v in range(lo, hi + 1):
            self.pos = body_start
            parts.extend(self.terms({**env, var[1]: v}))
        self.expect("}")
        return ham_sum(*parts)

    def index_expr(self, env: dict) -> int:
        value = self.int_value(env)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.int_value(env)
            value = value + rhs if op == "+" else value - rhs
        return value

    def int_value(self, env: dict) -> int:
        t = self.next()
        if t[0] == "int":
            return self.int_of(t)
        if t[0] == "name":
            if t[1] not in env:
                raise ParseError(f"unbound index {t[1]!r}", *self.at(t))
            return env[t[1]]
        raise ParseError(f"expected an index, found {t[1]!r}", *self.at(t))

    def int_of(self, t) -> int:
        """The value of int token t, or a ParseError at t when it has more
        digits than Python converts to an integer."""
        try:
            return natural(t[1])
        except ValueError as exc:
            raise ParseError(str(exc), *self.at(t)) from None

    def literal(self) -> complex:
        sign = 1.0
        if self.peek()[1] == "-":
            self.next()
            sign = -1.0
        t = self.peek()
        if t[1] == "sqrt":
            self.next()
            self.expect("(")
            v = self.next()
            if v[0] not in ("int", "float"):
                raise ParseError("expected a number inside sqrt", *self.at(v))
            self.expect(")")
            return sign * math.sqrt(float(v[1]))
        if t[1] == "(":
            z = self._try_paren_complex()
            if z is None:
                self.fail("expected a complex literal")
            return sign * z
        if t[0] == "imag":
            self.next()
            return sign * complex(0.0, float(t[1][:-1]))
        if t[0] in ("int", "float"):
            self.next()
            return sign * float(t[1])
        raise ParseError(f"expected a scalar literal, found {t[1]!r}",
                         *self.at(t))

    def _try_paren_complex(self):
        """Parse '(re+imi)' starting at '('; None, with the position
        unchanged, if the parenthesis opens a grouped expression instead."""
        k = 2 if self.peek(1)[1] == "-" else 1
        re_tok, op, im_tok, close = (self.peek(k + i) for i in range(4))
        if (re_tok[0] not in ("int", "float") or op[1] not in ("+", "-")
                or im_tok[0] != "imag" or close[1] != ")"):
            return None
        self.pos += k + 4
        im = float(im_tok[1][:-1])
        return complex((-1.0 if k == 2 else 1.0) * float(re_tok[1]),
                       im if op[1] == "+" else -im)


def parse(source: str) -> Program:
    """Parse a program; raises ParseError with line/column on bad syntax."""
    return _Parser(source).program()
