from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given

from qblue.errors import LayoutError, ParseError
from qblue.expr import (
    Atom, Boson, Fermion, LadderKind, Seq, Sum, dagger, ham_sum, scale, seq,
    site_dim, total_dim,
)
from qblue.parser import parse

from helpers import op, parsed
from strategies import GRADED, programs

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
        Atom((T2,), (0, LadderKind.CREATE), float("nan"))
    with pytest.raises(ValueError):
        Atom((T2,), None, complex(1, float("inf")))


def test_site_layout_of_leaves_and_tensor():
    # a product of atoms on different sites is their tensor product
    e = op("t(2), t(4)", "a(0) a(1)")
    assert e.layout == (T2, T4)
    assert [c.layout for c in e.children] == [(T2, T4)] * 2


def test_site_layout_of_seq_over_padded_ops():
    e = op("t(2), t(2)", "adag(0) a(1)")
    assert isinstance(e, Seq)
    assert e.layout == (T2, T2)


def test_site_layout_mismatch_raises_with_path():
    # a Sum or Seq whose children disagree raises as it is built, at the
    # root of the node being built, with both layouts
    pair = op("t(2), t(2)", "a(0) a(1)")
    for build, kind in [(Sum, "sum"), (Seq, "seq"), (ham_sum, "sum"),
                        (seq, "seq")]:
        with pytest.raises(LayoutError) as err:
            build(op("t(2)", "a(0)"), op("t(2)", "I(0)"), pair)
        assert err.value.path == "root"
        assert err.value.left == (T2,)
        assert err.value.right == (T2, T2)
        assert str(err.value).startswith(
            f"{kind} branches act on different site lists")


# an indexed atom of the surface syntax, such as a(j), desugars to one atom
# on the declared layout that names site j only

def test_desugar_indexed_is_one_sparse_atom():
    got = op("t(2), t(2)", "adag(0)")
    assert got == Atom((T2, T2), (0, LadderKind.CREATE))


def test_desugar_indexed_single_site_is_bare():
    assert op("t(2)", "a(0)") == Atom((T2,), (0, LadderKind.ANNIHILATE))


def test_desugar_indexed_middle_position():
    got = op("t(4), t(4), t(4)", "a(1)")
    assert got == Atom((T4,) * 3, (1, LadderKind.ANNIHILATE))
    assert got.ladder == (1, LadderKind.ANNIHILATE)
    assert got.layout == (T4, T4, T4)


def test_desugar_indexed_rejects_bad_index_and_site():
    with pytest.raises(ParseError, match="site index 2 out of range"):
        op("t(2), t(2)", "adag(2)")
    with pytest.raises(ParseError, match="needs a two-dimensional site"):
        op("t(4), t(2)", "X(0)")


def test_desugar_layout_roundtrip_property():
    layouts = ["t(2)", "t(2), t(4)", "F, F, t(2)", "t(4), t(4), t(4), t(2)"]
    for sites in layouts:
        program = parse(f"sites {sites};\n" + "".join(
            f"H{j} = adag({j});\n" for j in range(sites.count(",") + 1)))
        for e in program.defs.values():
            assert e.layout is program.layout


def test_scale_distributes_over_sum():
    e = op("t(2)", "a(0) + adag(0)")
    assert scale(2, e) == op("t(2)", "2 * a(0) + 2 * adag(0)")


def test_scale_on_scaled_ladder_multiplies():
    assert scale(-1, op("t(2)", "1i * a(0)")) == op("t(2)", "-1i * a(0)")


def test_scale_wraps_identity_amplitude():
    assert scale(0.5, op("t(2)", "I(0)")) == Atom((T2,), None, 0.5)


def test_scale_one_is_noop_and_composition():
    e = op("t(2), t(2)", "adag(0) a(1)")
    assert scale(1, e) == e
    assert scale(2, scale(3, e)) == scale(6, e)
    # a product takes the scalar into its first factor only
    assert scale(3j, e) == op("t(2), t(2)", "3i * adag(0) a(1)")


def test_scale_through_dagger_conjugates():
    e = dagger(op("t(2)", "1i * a(0)"))
    assert e == op("t(2)", "-1i * adag(0)")
    assert scale(2j, e) == op("t(2)", "2 * adag(0)")
    assert dagger(scale(2j, op("t(2)", "a(0)"))) == op("t(2)",
                                                       "-2i * adag(0)")


def test_sum_and_seq_flatten_to_one_nary_node():
    a = op("t(2)", "a(0)")
    assert ham_sum(ham_sum(a, a), a) == ham_sum(a, ham_sum(a, a))
    assert ham_sum(a, ham_sum(a, a)) == Sum(a, a, a)
    assert seq(seq(a, a), a) == seq(a, seq(a, a)) == Seq(a, a, a)


def test_layouts_are_stored_at_build():
    layout = (T2, F)
    e = ham_sum(Atom(layout, (0, LadderKind.CREATE)),
                Atom(list(layout), (1, LadderKind.ANNIHILATE)))
    # a node keeps its first child's tuple and accepts an equal one
    assert e.layout is e.children[0].layout is layout
    assert e.children[1].layout == layout
    assert op("t(2), F", "X(0) adag(1)").layout == e.layout
    # a node whose children disagree is never built
    c = op("t(2)", "adag(0)")
    with pytest.raises(LayoutError):
        Sum(e, c)
    assert Seq(c, c).layout == (T2,)


@given(programs(GRADED, max_dim=81))
def test_dagger_is_an_involution_on_trees(drawn):
    e = parsed(drawn)
    d = dagger(e)
    assert d.layout == e.layout
    assert dagger(d) == e


def test_dagger_builds_the_adjoint_tree():
    a, b = op("t(2)", "2i * a(0)"), op("t(2)", "adag(0)")
    assert dagger(a) == op("t(2)", "-2i * adag(0)")
    assert dagger(seq(a, b)) == op("t(2)", "a(0) (-2i * adag(0))")
    assert dagger(ham_sum(a, b)) == op("t(2)", "-2i * adag(0) + a(0)")


def test_an_atoms_ladder_names_a_site_of_its_layout():
    for j in (-1, 2):
        with pytest.raises(ValueError, match="names none of its 2 sites"):
            Atom((T2, T2), (j, LadderKind.CREATE))
    assert Atom((T2, T2), (1, LadderKind.CREATE)).ladder[0] == 1
    with pytest.raises(ValueError):
        Atom(())



def rebuilt(e):
    """An equal tree of new nodes, built by the constructors alone."""
    if isinstance(e, Atom):
        return Atom(list(e.layout), e.ladder, e.amp)
    return type(e)(*(rebuilt(c) for c in e.children))


def test_nodes_are_slotted_frozen_and_equal_to_a_rebuilt_copy():
    e = op("t(2), F", "-X(0) - 0.5 * Y(0) Z(1) + 2i * dag(adag(1) a(0))")
    nodes = [e, e.children[2], e.children[2].children[0].children[0]]
    assert [type(n) for n in nodes] == [Sum, Seq, Atom]
    for node in nodes:
        assert not hasattr(node, "__dict__")
        field = "amp" if isinstance(node, Atom) else "children"
        with pytest.raises(FrozenInstanceError):
            setattr(node, field, getattr(node, field))
        with pytest.raises(FrozenInstanceError):
            node.layout = ()
        copy = rebuilt(node)
        assert copy is not node and copy.layout is not node.layout
        assert copy == node and hash(copy) == hash(node)
        assert repr(copy) == repr(node)
    # a Sum or Seq leaves its layout out of its repr, as before
    assert repr(e).count("layout=") == repr(e).count("Atom(")
