import pytest
from hypothesis import given

from qblue.errors import LayoutError, ParseError
from qblue.expr import (
    Atom, Boson, Fermion, LadderKind, Seq, Sum, annihilate, create, dagger,
    ham_sum, identity, scale, seq, site_dim, tensor, total_dim,
)
from qblue.parser import parse

from strategies import graded_trees

T2 = Boson(2)
T4 = Boson(4)
F = Fermion()


def test_site_dimensions():
    assert site_dim(T4) == 4
    assert site_dim(F) == 2
    assert total_dim((T2, T4, F)) == 16


def test_boson_dimension_must_be_positive():
    with pytest.raises(ValueError):
        Boson(0)


def test_amplitudes_must_be_finite():
    with pytest.raises(ValueError):
        create(T2, float("nan"))
    with pytest.raises(ValueError):
        identity(T2, complex(1, float("inf")))


def test_site_layout_of_leaves_and_tensor():
    e = tensor(annihilate(T2), annihilate(T4))
    assert e.layout == (T2, T4)


def test_site_layout_of_seq_over_padded_ops():
    layout = (T2, T2)
    e = seq(Atom(layout, ((0, LadderKind.CREATE),)),
            Atom(layout, ((1, LadderKind.ANNIHILATE),)))
    assert e.layout == layout


def test_site_layout_mismatch_raises_with_path():
    # a Sum or Seq whose children disagree raises as it is built, at the
    # root of the node being built, with both layouts
    pair = tensor(annihilate(T2), annihilate(T2))
    for build, kind in [(Sum, "sum"), (Seq, "seq"), (ham_sum, "sum"),
                        (seq, "seq")]:
        with pytest.raises(LayoutError) as err:
            build(annihilate(T2), identity(T2), pair)
        assert err.value.path == "root"
        assert err.value.left == (T2,)
        assert err.value.right == (T2, T2)
        assert str(err.value).startswith(
            f"{kind} branches act on different site lists")


# an indexed atom of the surface syntax, such as a(j), desugars to one atom
# on the declared layout that lists site j only

def indexed(sites, atom):
    return parse(f"sites {sites};\nH = {atom};\n").defs["H"]


def test_desugar_indexed_is_one_sparse_atom():
    got = indexed("t(2), t(2)", "adag(0)")
    assert got == Atom((T2, T2), ((0, LadderKind.CREATE),))
    # the tensor product of the single-site atoms is the same one atom
    assert got == tensor(create(T2), identity(T2))


def test_desugar_indexed_single_site_is_bare():
    assert indexed("t(2)", "a(0)") == annihilate(T2)


def test_desugar_indexed_middle_position():
    got = indexed("t(4), t(4), t(4)", "a(1)")
    assert got == tensor(identity(T4), annihilate(T4), identity(T4))
    assert got.ops == ((1, LadderKind.ANNIHILATE),)
    assert got.layout == (T4, T4, T4)


def test_desugar_indexed_rejects_bad_index_and_site():
    with pytest.raises(ParseError, match="site index 2 out of range"):
        indexed("t(2), t(2)", "adag(2)")
    with pytest.raises(ParseError, match="needs a two-dimensional site"):
        indexed("t(4), t(2)", "X(0)")


def test_desugar_layout_roundtrip_property():
    layouts = ["t(2)", "t(2), t(4)", "F, F, t(2)", "t(4), t(4), t(4), t(2)"]
    for sites in layouts:
        program = parse(f"sites {sites};\n" + "".join(
            f"H{j} = adag({j});\n" for j in range(sites.count(",") + 1)))
        for e in program.defs.values():
            assert e.layout is program.layout


def test_scale_distributes_over_sum():
    e = ham_sum(annihilate(T2), create(T2))
    assert scale(2, e) == ham_sum(annihilate(T2, 2), create(T2, 2))


def test_scale_enters_one_tensor_factor():
    e = tensor(annihilate(T2), identity(T2))
    got = scale(3j, e)
    assert got == tensor(annihilate(T2, 3j), identity(T2))


def test_scale_on_scaled_ladder_multiplies():
    assert scale(-1, annihilate(T2, 1j)) == annihilate(T2, -1j)


def test_scale_wraps_identity_amplitude():
    assert scale(0.5, identity(T2)) == Atom((T2,), (), 0.5)


def test_scale_one_is_noop_and_composition():
    e = seq(create(T2), annihilate(T2))
    assert scale(1, e) == e
    assert scale(2, scale(3, e)) == scale(6, e)


def test_scale_through_dagger_conjugates():
    e = dagger(annihilate(T2, 1j))
    assert e == create(T2, -1j)
    assert scale(2j, e) == create(T2, 2)
    assert dagger(scale(2j, annihilate(T2))) == create(T2, -2j)


def test_tensor_sum_and_seq_flatten_to_one_nary_node():
    a, b, c = annihilate(T2), annihilate(T4), annihilate(F)
    kind = LadderKind.ANNIHILATE
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c)) == Atom(
        (T2, T4, F), ((0, kind), (1, kind), (2, kind)))
    s = ham_sum(a, create(T2))
    assert tensor(tensor(s, s), s) == tensor(s, tensor(s, s))
    # each operand embedded at its offset; the first operand applies
    # first, so it is the last child
    layout = (T2, T2, T2)

    def at(j):
        return Sum(Atom(layout, ((j, kind),)),
                   Atom(layout, ((j, LadderKind.CREATE),)))

    assert tensor(s, tensor(s, s)) == tensor(s, s, s) == Seq(
        at(2), at(1), at(0))
    assert ham_sum(ham_sum(a, a), a) == ham_sum(a, ham_sum(a, a))
    assert ham_sum(a, ham_sum(a, a)) == Sum(a, a, a)
    assert seq(seq(a, a), a) == seq(a, seq(a, a)) == Seq(a, a, a)


def test_layouts_are_stored_at_build():
    layout = (T2, F)
    e = ham_sum(Atom(layout, ((0, LadderKind.CREATE),)),
                Atom(list(layout), ((1, LadderKind.ANNIHILATE),)))
    # a node keeps its first child's tuple and accepts an equal one
    assert e.layout is e.children[0].layout is layout
    assert e.children[1].layout == layout
    x = ham_sum(create(T2), annihilate(T2))
    assert tensor(x, create(F)).layout == e.layout
    # a node whose children disagree is never built
    with pytest.raises(LayoutError):
        Sum(e, create(T2))
    assert Seq(create(T2), create(T2)).layout == (T2,)


@given(graded_trees())
def test_dagger_is_an_involution_on_trees(e):
    d = dagger(e)
    assert d.layout == e.layout
    assert dagger(d) == e


def test_dagger_builds_the_adjoint_tree():
    a, b = annihilate(T2, 2j), create(T2)
    assert dagger(a) == create(T2, -2j)
    assert dagger(seq(a, b)) == Seq(annihilate(T2), create(T2, -2j))
    assert dagger(ham_sum(a, b)) == Sum(create(T2, -2j), annihilate(T2))
    # two fermionic creators trade places: a minus sign
    assert dagger(tensor(create(F), create(F))) == Atom(
        (F, F), ((0, LadderKind.ANNIHILATE), (1, LadderKind.ANNIHILATE)), -1)


def test_atoms_list_distinct_sites_in_order():
    kind = LadderKind.CREATE
    for ops in [((1, kind), (0, kind)), ((0, kind), (0, kind)), ((2, kind),)]:
        with pytest.raises(ValueError):
            Atom((T2, T2), ops)
    with pytest.raises(ValueError):
        Atom(())


def test_associativity_renormalization_preserves_matrices():
    import numpy as np
    from qblue.linalg import expr_to_matrix
    a, b, c = annihilate(T2), create(T4), identity(T2, 2.0)
    left = tensor(tensor(a, b), c)
    right = tensor(a, b, c)
    assert np.allclose(expr_to_matrix(left), expr_to_matrix(right), atol=1e-15)
