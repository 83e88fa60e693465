"""Hypothesis strategies for random well-formed operator expressions."""

from hypothesis import strategies as st

from qblue.expr import (
    Boson, Fermion, Seq, Sum, annihilate, create, dagger, identity, tensor,
)

AMPS = st.sampled_from([1, -0.5, 2j, 0.3 + 0.4j])


@st.composite
def well_formed(draw, layout, depth=3):
    """Random expression acting on ``layout``: tensors split the layout,
    sums and products repeat it, and ``dagger`` builds the adjoint tree of a
    subtree.  Every tree is built from atoms, sums and products, and each
    node's children agree on their layout, so no constructor raises."""
    kinds = ["sum", "seq", "dag"] if depth > 0 else []
    kinds.append("leaf" if len(layout) == 1 else "tensor")
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        site, amp = layout[0], draw(AMPS)
        return draw(st.sampled_from([create(site, amp), annihilate(site, amp),
                                     identity(site, amp)]))
    sub = max(depth - 1, 0)
    if kind == "tensor":
        k = draw(st.integers(1, len(layout) - 1))
        return tensor(draw(well_formed(layout[:k], sub)),
                      draw(well_formed(layout[k:], sub)))
    if kind == "dag":
        return dagger(draw(well_formed(layout, sub)))
    node = Sum if kind == "sum" else Seq
    return node(draw(well_formed(layout, sub)), draw(well_formed(layout, sub)))


def graded_trees(max_sites=4):
    """well_formed trees on F, t(2), t(3) or mixed F / t(3) layouts."""
    f, t2, t3 = Fermion(), Boson(2), Boson(3)
    kinds = st.sampled_from([[f], [t2], [t3], [f, t3]])
    layouts = kinds.flatmap(lambda k: st.lists(
        st.sampled_from(k), min_size=1, max_size=max_sites))
    return layouts.flatmap(lambda layout: well_formed(tuple(layout)))
