import pytest

from qblue.errors import LayoutError
from qblue.expr import (
    Atom, Boson, Fermion, LadderKind, Seq, Sum, Tensor, annihilate, create,
    desugar_indexed, expr_allclose, ham_sum, identity, scale, seq, site_dim,
    site_layout, tensor, total_dim,
)

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
    assert site_layout(e) == (T2, T4)


def test_site_layout_of_seq_over_padded_ops():
    layout = (T2, T2)
    e = seq(desugar_indexed(create(T2), 0, layout),
            desugar_indexed(annihilate(T2), 1, layout))
    assert site_layout(e) == layout


def test_site_layout_mismatch_raises_with_path():
    bad = Sum(annihilate(T2), tensor(annihilate(T2), annihilate(T2)))
    with pytest.raises(LayoutError) as err:
        site_layout(bad)
    assert "root" in err.value.path
    assert err.value.left == (T2,)
    assert err.value.right == (T2, T2)


def test_desugar_indexed_is_one_sparse_atom():
    got = desugar_indexed(create(T2), 0, (T2, T2))
    assert got == Atom((T2, T2), ((0, LadderKind.CREATE),))
    # the tensor product of the single-site atoms is the same one atom
    assert got == tensor(create(T2), identity(T2))


def test_desugar_indexed_single_site_is_bare():
    assert desugar_indexed(annihilate(T2), 0, (T2,)) == annihilate(T2)


def test_desugar_indexed_middle_position():
    got = desugar_indexed(annihilate(T4), 1, (T4, T4, T4))
    assert got == tensor(identity(T4), annihilate(T4), identity(T4))
    assert got.ops == ((1, LadderKind.ANNIHILATE),)
    assert site_layout(got) == (T4, T4, T4)


def test_desugar_indexed_rejects_bad_index_and_site():
    with pytest.raises(IndexError):
        desugar_indexed(create(T2), 2, (T2, T2))
    with pytest.raises(LayoutError):
        desugar_indexed(create(T4), 0, (T2, T2))


def test_desugar_layout_roundtrip_property():
    layouts = [(T2,), (T2, T4), (F, F, T2), (T4, T4, T4, T2)]
    for layout in layouts:
        for j, site in enumerate(layout):
            e = desugar_indexed(create(site), j, layout)
            assert site_layout(e) == layout


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
    assert expr_allclose(scale(2, scale(3, e)), scale(6, e))


def test_scale_through_dagger_conjugates():
    from qblue.expr import Dagger
    from qblue.typecheck import canonicalize
    e = Dagger(annihilate(T2))
    assert canonicalize(scale(2j, e)) == canonicalize(create(T2, 2j))


def test_tensor_sum_and_seq_flatten_to_one_nary_node():
    a, b, c = annihilate(T2), annihilate(T4), annihilate(F)
    kind = LadderKind.ANNIHILATE
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c)) == Atom(
        (T2, T4, F), ((0, kind), (1, kind), (2, kind)))
    s = ham_sum(a, create(T2))
    assert tensor(tensor(s, s), s) == tensor(s, tensor(s, s))
    assert tensor(s, tensor(s, s)) == Tensor(s, s, s)
    assert ham_sum(ham_sum(a, a), a) == ham_sum(a, ham_sum(a, a))
    assert ham_sum(a, ham_sum(a, a)) == Sum(a, a, a)
    assert seq(seq(a, a), a) == seq(a, seq(a, a)) == Seq(a, a, a)


def test_layouts_are_interned_and_stored_at_build():
    layout = (T2, F)
    e = ham_sum(desugar_indexed(create(T2), 0, layout),
                desugar_indexed(annihilate(F), 1, list(layout)))
    assert e.layout is e.children[0].layout is e.children[1].layout
    x = ham_sum(create(T2), annihilate(T2))
    assert tensor(x, create(F)).layout is e.layout
    # a node whose children disagree stores no layout until asked where
    assert Sum(e, create(T2)).layout is None
    assert Seq(create(T2), create(T2)).layout == (T2,)


def test_atoms_list_distinct_sites_in_order():
    kind = LadderKind.CREATE
    for ops in [((1, kind), (0, kind)), ((0, kind), (0, kind)), ((2, kind),)]:
        with pytest.raises(ValueError):
            Atom((T2, T2), ops)
    with pytest.raises(ValueError):
        Atom(())


def test_associativity_renormalization_preserves_matrices():
    import numpy as np
    from qblue.expr import Tensor as RawTensor
    from qblue.linalg import expr_to_matrix
    a, b, c = annihilate(T2), create(T4), identity(T2, 2.0)
    left = RawTensor(RawTensor(a, b), c)
    right = tensor(a, b, c)
    assert np.allclose(expr_to_matrix(left), expr_to_matrix(right), atol=1e-15)
