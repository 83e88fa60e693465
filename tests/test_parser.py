import math
import re

import pytest
from hypothesis import given, strategies as st

from qblue.encodings import encode_for_compile
from qblue.errors import ParseError
from qblue.expr import (
    Atom, Boson, Flag, LadderKind, Seq, Sum, dagger, ham_sum, scale, seq,
)
from qblue.fock import format_sites
from qblue.parser import _position, parse, tokenize
from qblue.typecheck import canonicalize, typecheck

from strategies import layouts, on, program_text

T2 = Boson(2)


def definition(source):
    return next(iter(parse(source).defs.values()))


def pauli_terms(e):
    hs, _ = encode_for_compile(canonicalize(e))
    return dict((s, c) for c, s in hs.terms)


def test_binary_minus_before_a_literal_is_a_difference():
    # Z(j) = 2 adag a - I encodes to -Z on qubit j
    e = definition("sites t(2), t(2);\nH = Z(0) - 0.5 * Z(1);\n")
    assert pauli_terms(e) == {"ZI": -1, "IZ": 0.5}


def test_binary_minus_keeps_a_hermitian_difference_hermitian():
    e = definition("sites t(2);\nH = X(0) - 0.5 * Z(0);\n")
    assert typecheck(e)[0].flag is Flag.H


def test_minus_before_an_imaginary_literal_splits_the_sum():
    e = definition("sites t(2), t(2);\nH = X(0) -2i * X(1);\n")
    assert isinstance(e, Sum)
    assert pauli_terms(e) == {"XI": 1, "IX": -2j}


# ---------------------------------------------------------------------------
# parse(format_program(p)) is p
# ---------------------------------------------------------------------------

def format_program(p):
    """The program in re-parseable indexed form.

    Covers every tree the parser builds: atoms that list at most one site,
    combined by n-ary sums and products.
    """
    lines = [f"sites {format_sites(p.layout)};"]
    lines += [f"{name} = {format_expr(e)};" for name, e in p.defs.items()]
    return "\n".join(lines) + "\n"


def format_expr(e):
    parts = e.children if isinstance(e, Sum) else (e,)
    return " + ".join(format_term(p) for p in parts)


def format_term(e):
    factors = e.children if isinstance(e, Seq) else (e,)
    return " ".join(format_factor(f) for f in factors)


def format_factor(e):
    if isinstance(e, Sum):
        return f"({format_expr(e)})"
    if isinstance(e, Seq):
        return f"({format_term(e)})"
    atom = "I(0)"
    if e.ladder:
        j, kind = e.ladder
        atom = f"{'adag' if kind is LadderKind.CREATE else 'a'}({j})"
    return atom if e.amp == 1 else f"({format_literal(e.amp)} * {atom})"


def format_literal(z):
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return f"{z.imag!r}i"
    return f"({z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i)"


def program_texts():
    """Program text with one to three drawn definitions on one layout."""
    return layouts().flatmap(
        lambda sites: st.lists(on(sites), min_size=1, max_size=3).map(
            lambda drawn: program_text(sites, *(d.body for d in drawn))))


@given(program_texts())
def test_format_program_round_trips(text):
    p = parse(text)
    q = parse(format_program(p))
    assert q.layout == p.layout
    assert q.defs == p.defs
    assert format_program(q) == format_program(p)


def test_round_trip_keeps_literals_dag_and_minus():
    text = ("sites t(2), t(2), F;\n"
            "H = -X(0) - 0.5 * Z(1)"
            " + sqrt(2) * dag((0.5-0.25i) * adag(2) a(0))"
            " -2i * Y(1) + sum k in 0..1 { I(k) a(k+1) };\n")
    p = parse(text)
    assert parse(format_program(p)).defs == p.defs


# ---------------------------------------------------------------------------
# source positions of parse errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, message, line, col", [
    ("sites t(2);\nH = a(0) $ a(0);", "unexpected character '$'", 2, 10),
    ("sites t(2)\nH = a(0);", "expected ';', found 'H'", 2, 1),
    ("H = a(0);", "must start with a 'sites' declaration", 1, 1),
    ("sites t(2);\n3 = a(0);", "expected a definition name", 2, 1),
    ("sites t(2);\nH = a(0);\nH = a(0);", "duplicate definition 'H'", 3, 1),
    ("sites t(2);\n", "program has no definitions", 2, 1),
    ("sites t(x);", "expected a site dimension", 1, 9),
    ("sites q;", "expected a site type t(m) or F, found 'q'", 1, 7),
    ("sites t(2);\nH = + a(0);", "expected an operator factor, found '+'",
     2, 5),
    ("sites t(2);\nH = a(0) adag(5);", "site index 5 out of range", 2, 10),
    ("sites t(3);\nH = Z(0);", "Z(0) needs a two-dimensional site", 2, 5),
    ("sites t(2);\nH = sum 3 in 0..1 { a(0) };", "expected a sum index name",
     2, 9),
    ("sites t(2);\nH = sum j in 1..0 { a(j) };", "empty sum range 1..0",
     2, 14),
    ("sites t(2);\nH = a(k);", "unbound index 'k'", 2, 7),
    ("sites t(2);\nH = a(+);", "expected an index, found '+'", 2, 7),
    ("sites t(2);\nH = sqrt(x) * a(0);", "expected a number inside sqrt",
     2, 10),
    ("sites t(2);\nH = 0.5 * -(a(0));", "expected a complex literal", 2, 12),
    ("sites t(2);\nH = 0.5 * - a(0);", "expected a scalar literal, found 'a'",
     2, 13),
    ("sites t(2);\nH = a(0) # a(0);", "unexpected character '#'", 2, 10),
    ("sites t(2), t(0);", "site dimension must be at least 1", 1, 15),
    ("sites t(2);\nH = a(0) ² a(0);", "unexpected character '²'", 2, 10),
    # a digit of the literals is 0-9, not any decimal digit
    ("sites t(٣);\nH = a(0);", "unexpected character '٣'", 1, 9),
    ("sites t(2);\nH = 0.5٣ * a(0);", "unexpected character '٣'", 2, 8),
])
def test_parse_error_positions(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert message in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)


# ---------------------------------------------------------------------------
# error positions survive any spacing between tokens
# ---------------------------------------------------------------------------

# A token of the surface syntax, for splitting generated program text.
TOKEN_TEXT = re.compile(
    r"[0-9]+\.[0-9]+i?|[0-9]+(?:[eE][+-]?[0-9]+)?i?|\.\.|\w+|\S")
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\n\n", " \t\r\n ",
              "// a comment\n", "\t//x(0) $ @\r\n"]


@given(program_texts(), st.data())
def test_error_positions_under_any_spacing(text, data):
    tokens = TOKEN_TEXT.findall(text)
    n = len(parse(text).layout)
    at_index = [k for k in range(2, len(tokens) - 1)
                if tokens[k - 2] in ("a", "adag", "I", "X", "Y", "Z")
                and tokens[k - 1] == "(" and tokens[k].isdigit()
                and tokens[k + 1] == ")"]
    kinds = ["character"] + (["index"] if at_index else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "character":
        # a character no token starts with, between two tokens
        k = data.draw(st.integers(0, len(tokens)))
        tokens.insert(k, data.draw(st.sampled_from("$@?%`!#")))
        marked = k
    else:
        k = data.draw(st.sampled_from(at_index))
        tokens[k] = str(n + data.draw(st.integers(0, 3)))
        marked = k - 2   # the error points at the atom's name
    pieces = [data.draw(st.sampled_from(["", *SEPARATORS]))]
    for token in tokens:
        pieces += [token, data.draw(st.sampled_from(SEPARATORS))]
    # line and column of the marked token, counted piece by piece
    line, col = 1, 1
    for piece in pieces[:2 * marked + 1]:
        if "\n" in piece:
            line += piece.count("\n")
            col = len(piece) - piece.rfind("\n")
        else:
            col += len(piece)
    with pytest.raises(ParseError) as err:
        parse("".join(pieces))
    assert (err.value.line, err.value.col) == (line, col)
    if kind == "character":
        assert f"unexpected character {tokens[marked]!r}" in str(err.value)
    else:
        assert f"out of range for {n} sites" in str(err.value)


# ---------------------------------------------------------------------------
# the one-scan tokenizer agrees with the named-group tokenizer it replaced
# ---------------------------------------------------------------------------

REFERENCE_TOKEN_RE = re.compile(r"""
    (?:\s+|//[^\n]*)*                  # whitespace and comments first
    (?: (?P<imag>(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?i\b)
      | (?P<float>(?:[0-9]+\.[0-9]+|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
                  |[0-9]+[eE][+-]?[0-9]+)
      | (?P<int>[0-9]+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<punct>\.\.|[()=;,+\-*{}])
      | (?P<eof>\Z)
      | (?P<bad>[\s\S]+) )                # an unexpected character, to the end
""", re.VERBOSE)


def reference_tokenize(src):
    """The tokens of src as ``(kind, text, offset)`` tuples: one regex match
    per token, the kind the name of the group that matched."""
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in REFERENCE_TOKEN_RE.finditer(src)]
    if len(tokens) > 1 and tokens[-2][0] == "bad":
        offset = tokens[-2][2]
        raise ParseError(f"unexpected character {src[offset]!r}",
                         *reference_position(src, offset))
    return tokens + tokens[-1:] * 6


def reference_position(src, offset):
    """The 1-based line and column of offset in src."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def assert_tokens_match_the_reference(src):
    """The same kinds and texts, and at each token the line and column of
    the reference's offset; or the same ParseError at the same place."""
    try:
        want = reference_tokenize(src)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            tokenize(src)
        assert (str(err.value), err.value.line, err.value.col) == (
            str(exc), exc.line, exc.col)
        return
    got = tokenize(src)
    assert [t[:2] for t in got] == [t[:2] for t in want]
    assert [_position(src, t[2]) for t in got] == [
        reference_position(src, t[2]) for t in want]


@pytest.mark.parametrize("src", [
    "2in", ".5", "..5", "1..2", "1e5i", "1.5e", "2ie", "sites t(٣);",
    "sites t(2);\nH = a(0); // no newline after it", "", " \n\t", "// x",
    # ² is a digit to str.isdigit and ٣ a decimal digit, but neither is 0-9
    "sites t(2);\nH = a(0) ² a(0);", "2²", "a(0) . a(1)", "0.5 .", "x@",
])
def test_tokenize_matches_the_reference_on(src):
    assert_tokens_match_the_reference(src)


def test_tokenize_kinds():
    assert [t[:2] for t in tokenize("2in .5 1..2 1e5i t(3)")[:12]] == [
        ("int", "2"), ("name", "in"), ("float", ".5"), ("int", "1"),
        ("punct", ".."), ("int", "2"), ("imag", "1e5i"), ("name", "t"),
        ("punct", "("), ("int", "3"), ("punct", ")"), ("eof", "")]


@given(program_texts(), st.data())
def test_tokenize_matches_the_reference(text, data):
    separator = st.sampled_from(["", *SEPARATORS])
    pieces = [data.draw(separator)]
    for token in TOKEN_TEXT.findall(text):
        pieces += [token, data.draw(separator)]
    src = "".join(pieces)
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, len(src)))
        src = src[:k] + data.draw(st.sampled_from("$@²٣é")) + src[k:]
    assert_tokens_match_the_reference(src)


# ---------------------------------------------------------------------------
# a literal prefix folds into the atoms it scales, with the same amplitudes
# ---------------------------------------------------------------------------

LAYOUT = (T2, T2)


def cr(j, amp=1.0):
    return Atom(LAYOUT, (j, LadderKind.CREATE), amp)


def an(j, amp=1.0):
    return Atom(LAYOUT, (j, LadderKind.ANNIHILATE), amp)


def X(j):
    return ham_sum(cr(j), an(j))


def Y(j):
    return ham_sum(an(j, 1j), cr(j, -1j))


def Z(j):
    return ham_sum(seq(cr(j, 2), an(j)), Atom(LAYOUT, None, -1))


@pytest.mark.parametrize("body, want", [
    ("0.8 * Z(0) Z(1)", seq(scale(0.8, Z(0)), Z(1))),
    ("-0.5 * Y(0)", scale(-0.5, Y(0))),
    ("(0.5+0.5i) * dag(a(0))", scale(0.5 + 0.5j, dagger(an(0)))),
    ("sqrt(2) * (X(0) + Z(1))", scale(math.sqrt(2), ham_sum(X(0), Z(1)))),
    ("2 * sum j in 0..1 { X(j) }", scale(2, ham_sum(X(0), X(1)))),
    ("- X(0)", scale(-1, X(0))),
    ("0.1 * 3 * sqrt(3) * -2i * Y(1)",
     scale(0.1, scale(3, scale(math.sqrt(3), scale(-2j, Y(1)))))),
    ("(0.3-0.7i) * 1.1 * (0.5-0i) * I(0)",
     scale(0.3 - 0.7j, scale(1.1, scale(complex(0.5, -0.0), Atom(LAYOUT))))),
    # (0.1 * 0.2) * 0.3 rounds to 0.006000000000000001
    ("0.1 * 0.2 * 0.3 * a(0)", scale(0.1, scale(0.2, scale(0.3, an(0))))),
    # 1e300 * 1e300 overflows, but no amplitude does
    ("1e300 * 1e300 * 0 * adag(1)",
     scale(1e300, scale(1e300, scale(0, cr(1))))),
])
def test_literal_prefix_folds_into_the_atoms(body, want):
    got = definition(f"sites t(2), t(2);\nH = {body};\n")
    assert got == want
    # every amplitude to the bit and the sign of zero, chains of prefixes
    # included: each prefix multiplies from the atom outwards, as nested
    # scale calls do
    assert repr(got) == repr(want)


def test_a_tree_of_every_construct_is_unchanged():
    # recorded from the parser before the one-scan tokenizer and the
    # slotted nodes, but for Z(1), which is now 2 adag(1) a(1) - I(1)
    e = definition("sites t(2), F;\nH = -X(0) - 0.5 * Y(0) Z(1)"
                   " + (0.5-0.25i) * dag(adag(1) a(0))"
                   " + sqrt(2) * sum j in 0..0 {"
                   " sum k in 1..1 { a(j) adag(k) } }"
                   " - 2i * I(1);\n")
    assert repr(e).replace(repr(e.layout), "L").replace(
        "<LadderKind.CREATE: 1>", "CR").replace(
        "<LadderKind.ANNIHILATE: -1>", "AN") == (
        'Sum(children=(Atom(layout=L, ladder=(0, CR), amp=(-1+0j)), '
        'Atom(layout=L, ladder=(0, AN), amp=(-1+0j)), '
        'Seq(children=(Sum(children=(Atom(layout=L, ladder=(0, AN), '
        'amp=(-0-0.5j)), Atom(layout=L, ladder=(0, CR), amp=0.5j))), '
        'Sum(children=(Seq(children=(Atom(layout=L, ladder=(1, CR), '
        'amp=(2+0j)), Atom(layout=L, ladder=(1, AN), amp=(1+0j)))), '
        'Atom(layout=L, ladder=None, amp=(-1+0j)))))), '
        'Seq(children=(Atom(layout=L, ladder=(0, CR), amp=(0.5-0.25j)), '
        'Atom(layout=L, ladder=(1, AN), amp=(1-0j)))), '
        'Seq(children=(Atom(layout=L, ladder=(0, AN), '
        'amp=(1.4142135623730951+0j)), Atom(layout=L, ladder=(1, CR), '
        'amp=(1+0j)))), Atom(layout=L, ladder=None, amp=(-0-2j))))')
    assert repr(e.layout) == "(Boson(dim=2), Fermion())"


@pytest.mark.parametrize("k", [0, 1, 5])
def test_a_sum_loop_builds_one_sum(k, monkeypatch):
    # the iterations' terms collect into one list, so no Sum of one
    # iteration is built only to be spliced into the loop's
    built = []
    init = Sum.__init__

    def counting(self, *children):
        built.append(len(children))
        init(self, *children)

    monkeypatch.setattr(Sum, "__init__", counting)
    body = "adag(j) a(j+1) + adag(j+1) a(j)"
    e = definition(f"sites {', '.join(['F'] * (k + 2))};\n"
                   f"H = sum j in 0..{k} {{ {body} }};\n")
    assert built == [2 * (k + 1)]
    assert len(e.children) == 2 * (k + 1)
