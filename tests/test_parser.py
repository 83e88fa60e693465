import pytest
from hypothesis import given, strategies as st

from qblue.encodings import encode_for_compile
from qblue.errors import LayoutError, ParseError
from qblue.expr import Boson, Flag, Sum
from qblue.parser import format_program, parse
from qblue.typecheck import canonicalize, typecheck

T2 = Boson(2)


def definition(source):
    return next(iter(parse(source).defs.values()))


def pauli_terms(e):
    hs, _ = encode_for_compile(canonicalize(e), "direct")
    return dict((s, c) for c, s in hs.terms)


def test_binary_minus_before_a_literal_is_a_difference():
    # Z(j) = adag a - a adag encodes to -Z on qubit j
    e = definition("sites t(2), t(2);\nH = Z(0) - 0.5 * Z(1);\n")
    assert pauli_terms(e) == {"ZI": -1, "IZ": 0.5}


def test_binary_minus_keeps_a_hermitian_difference_hermitian():
    e = definition("sites t(2);\nH = X(0) - 0.5 * Z(0);\n")
    assert typecheck(e).flag is Flag.H


def test_minus_before_an_imaginary_literal_splits_the_sum():
    e = definition("sites t(2), t(2);\nH = X(0) -2i * X(1);\n")
    assert isinstance(e, Sum)
    assert pauli_terms(e) == {"XI": 1, "IX": -2j}


# ---------------------------------------------------------------------------
# parse(format_program(p)) is p
# ---------------------------------------------------------------------------

SITE_TEXT = {"t(2)": 2, "F": 2, "t(3)": 3}
LITERALS = ["0.5", "2", "1.25", "3e-2", "2i", "0.5i", "(0.5+0.25i)",
            "(-1.5-2i)", "sqrt(2)", "-0.75", "-2i"]


@st.composite
def expr_text(draw, dims, index, depth):
    """Program text of an expression; ``index`` draws a site-index text and
    its value."""
    kinds = ["atom", "atom", "scaled"]
    if depth > 0:
        kinds += ["dag", "paren", "product", "sum"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        text, j = draw(index)
        names = ["a", "adag", "I"] + (["X", "Y", "Z"] if dims[j] == 2 else [])
        return f"{draw(st.sampled_from(names))}({text})"
    if kind == "scaled":
        literal = draw(st.sampled_from(LITERALS))
        return f"{literal} * {draw(expr_text(dims, index, 0))}"
    inner = draw(expr_text(dims, index, depth - 1))
    if kind == "dag":
        return f"dag({inner})"
    if kind == "paren":
        # a leading minus opens an expression
        return f"({draw(st.sampled_from(['', '-']))}{inner})"
    if kind == "product":
        return f"{inner} {draw(expr_text(dims, index, depth - 1))}"
    op = draw(st.sampled_from([" + ", " - "]))
    return f"{inner}{op}{draw(expr_text(dims, index, depth - 1))}"


@st.composite
def definition_text(draw, dims):
    n = len(dims)
    fixed = st.integers(0, n - 1).map(lambda j: (str(j), j))
    if not draw(st.booleans()):
        return draw(expr_text(dims, fixed, 2))
    # sum k in lo..hi { ... } with atoms at k + c inside the layout
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    offsets = st.integers(-lo, n - 1 - hi)
    looped = offsets.map(lambda c: (f"k+{c}" if c >= 0 else f"k-{-c}", None))

    @st.composite
    def index(draw_index):
        if draw_index(st.booleans()):
            return draw_index(fixed)
        text, _ = draw_index(looped)
        # an X/Y/Z at k+c needs every site it visits to be two-dimensional
        return text, max(range(n), key=lambda j: dims[j])

    body = draw(expr_text(dims, index(), 2))
    return f"sum k in {lo}..{hi} {{ {body} }}"


@st.composite
def program_text(draw):
    sites = draw(st.lists(st.sampled_from(sorted(SITE_TEXT)), min_size=1,
                          max_size=3))
    dims = [SITE_TEXT[s] for s in sites]
    if len(set(dims)) > 1:
        # loops may visit any site, so keep X/Y/Z valid everywhere
        sites = [s if SITE_TEXT[s] == 2 else "t(2)" for s in sites]
        dims = [2] * len(sites)
    defs = draw(st.lists(definition_text(dims), min_size=1, max_size=3))
    return f"sites {', '.join(sites)};\n" + "".join(
        f"H{k} = {body};\n" for k, body in enumerate(defs))


@given(program_text())
def test_format_program_round_trips(text):
    p = parse(text)
    q = parse(format_program(p))
    assert q.layout is p.layout
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
# source positions of parse and layout errors
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
    ("sites t(2), t(2);\nH = a(0) # -(a(0));", "expected a complex literal",
     2, 13),
    ("sites t(2), t(2);\nH = a(0) # - a(0);",
     "expected a scalar literal, found 'a'", 2, 14),
])
def test_parse_error_positions(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert message in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)


def test_layout_errors_name_the_definition_and_operand():
    with pytest.raises(LayoutError) as err:
        parse("sites t(2);\nH = a(0);\nG = a(0) # a(0) + 0.5 * a(0);\n")
    assert (err.value.path, err.value.line, err.value.col) == ("G", 3, 19)
    assert err.value.left == (T2, T2)
    assert err.value.right == (T2,)
    with pytest.raises(LayoutError) as err:
        parse("sites t(2);\nH = (a(0) # a(0)) a(0);\n")
    assert (err.value.path, err.value.line, err.value.col) == ("H", 2, 19)
    with pytest.raises(LayoutError) as err:
        parse("sites t(2);\nH = a(0);\n  G = a(0) # I(0);\n")
    assert (err.value.path, err.value.line, err.value.col) == ("G", 3, 3)
    assert (err.value.left, err.value.right) == ((T2, T2), (T2,))
