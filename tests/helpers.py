"""Small conversions that several test modules check the library through.

Unlike ``oracle``, these call the library: a definition is parsed from
program text, a state is built from (amplitude, occupations) pairs with
``make_state``, and Pauli sums compare term by term.
"""

import numpy as np
import pytest

from qblue import circuit
from qblue.errors import COEFF_EQ_TOL
from qblue.expr import site_dim
from qblue.fock import _check_occ, _state, _summed
from qblue.linalg import expr_to_sparse, sparse
from qblue.parser import parse


def expr_to_matrix(e):
    """Dense matrix M with M v(s) = v(apply(e, s)) for every basis state
    s: the Sparse of ``expr_to_sparse``, densified."""
    return expr_to_sparse(e).toarray()


def to_sparse(m):
    """The Sparse of the dense matrix m, from its nonzero entries: the
    form the solvers take."""
    nz = np.nonzero(m := np.asarray(m))
    return sparse(len(m), *nz, m[nz])


def unitary(c):
    """The unitary of circuit c: the circuit applied to the identity."""
    return circuit.apply_circuit(c, np.eye(2 ** c.width))


def make_state(layout, kets):
    """The canonical state of (amp, occ) pairs, each occupation checked
    against the layout and the amplitudes of one occupation summed; an
    amplitude drops when ``negligible`` against the largest one, as a
    computed state, such as an eigenvector, is known to that precision."""
    kets = [(amp, tuple(map(int, occ))) for amp, occ in kets]
    for _, occ in kets:
        _check_occ(layout, occ)
    acc = _summed(kets)
    top = max((abs(a) for a, _ in acc.values()), default=0.0)
    return _state(layout, {occ: (a, top) for occ, (a, _) in acc.items()})


def basis_ket(layout, occ):
    """The state |occ> on layout."""
    return make_state(layout, [(1.0, tuple(occ))])


def state_to_vector(s):
    """Column vector of a FockState in the row-major occupation basis, the
    basis of ``expr_to_matrix``."""
    dims = [site_dim(site) for site in s.layout]
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    for ket in s.terms:
        v[np.ravel_multi_index(ket.occ, dims)] += ket.amp
    return v


def pauli_allclose(a, b):
    """Same width and strings, coefficients within COEFF_EQ_TOL."""
    return (a.qubits == b.qubits and len(a.terms) == len(b.terms)
            and all(sa == sb and abs(ca - cb) <= COEFF_EQ_TOL
                    for (ca, sa), (cb, sb) in zip(a.terms, b.terms)))


def op(sites, body):
    """The definition H = body of a program on sites, e.g.
    ``op("F, t(2)", "a(1) adag(0)")``."""
    return parse(f"sites {sites};\nH = {body};\n").defs["H"]


def parsed(drawn):
    """The parsed definition of a drawn program."""
    return parse(drawn.text).defs["H"]


def run_counts(c):
    """(unitary(c), runs built, runs applied): a run is built
    when its 2^k x 2^k unitary is made, and applied once per np.matmul on
    the whole matrix or per far cx applied to it in place.  Only an
    np.matmul whose right factor holds the 4^n entries of the whole matrix
    counts, so no other product shifts the counts."""
    built, applied = [], []
    apply, matmul = circuit._apply, np.matmul

    def counting_apply(gates, u, lo):
        # a run's unitary has at most 2^FUSE rows; a far cx's run meets
        # the whole matrix, which has more
        (applied if len(u) > 2 ** circuit.FUSE else built).append(gates)
        return apply(gates, u, lo)

    def counting_matmul(r, u):
        if np.size(u) == 4 ** c.width:
            applied.append(r)
        return matmul(r, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit, "_apply", counting_apply)
        patch.setattr(np, "matmul", counting_matmul)
        u = unitary(c)
    return u, len(built), len(applied)
