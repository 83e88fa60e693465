from qblue.encodings import encode_for_compile
from qblue.expr import Flag, Sum
from qblue.parser import parse
from qblue.typecheck import canonicalize, typecheck


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
