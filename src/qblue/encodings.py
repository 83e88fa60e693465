"""Particle-system transformations onto qubit layouts.

Three encoders are provided: the t(2) ladder <-> Pauli substitution, the
unary truncated-boson encoding onto n+1 qubits per site, and the
Jordan-Wigner fermion map with Z strings.  ``ladder_to_pauli`` and
``jordan_wigner`` use the creator convention a^dag = (X + iY)/2; the
compile pipeline uses the adjoint substitution (``encode_for_compile``)
so the emitted circuit reproduces the expression's occupation-basis matrix
exactly.  The two conventions coincide on any operator invariant under
exchanging creators with annihilators (hopping terms, X-style sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EncodingError
from .expr import (
    Boson, Fermion, HamExpr, Identity, Ladder, LadderKind, SiteList, Seq,
    Sum, Tensor, ham_sum, identity_chain, scale, site_layout, tensor,
)
from .pauli import PauliSum, identity_sum, pauli_sum
from .typecheck import canonicalize, dagger_normalize


@dataclass(frozen=True)
class EncodingReport:
    """How input sites map onto output qubits.

    ``site_map[k]`` is the half-open qubit range occupied by input site k;
    the ranges partition the all-qubit output layout.
    """

    method: str              # "direct" | "jw" | "hp"
    input_layout: SiteList
    output_layout: SiteList
    site_map: tuple          # tuple[tuple[int, int], ...]
    truncation: int | None = None   # hp level n, if applicable

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "input_sites": [str(s) for s in self.input_layout],
            "output_sites": [str(s) for s in self.output_layout],
            "site_map": [list(r) for r in self.site_map],
            "truncation": self.truncation,
        }


def encoding_report(layout: SiteList, method: str,
                    truncation: int | None = None) -> EncodingReport:
    if method == "hp":
        width = truncation + 1
    else:
        width = 1
    site_map = tuple((k * width, (k + 1) * width) for k in range(len(layout)))
    out = tuple(Boson(2) for _ in range(width * len(layout)))
    return EncodingReport(method, tuple(layout), out, site_map, truncation)


# ---------------------------------------------------------------------------
# t(2) ladder <-> Pauli
# ---------------------------------------------------------------------------

def _single_op_pauli(kind: LadderKind, q: int, w: int,
                     creator_plus: bool, z_string: bool) -> PauliSum:
    """Pauli form of one ladder operator embedded at qubit q of w.

    creator_plus selects a^dag = (X+iY)/2 (else (X-iY)/2); z_string prefixes
    Z on qubits 0..q-1 for the fermionic parity.
    """
    prefix = ("Z" if z_string else "I") * q
    suffix = "I" * (w - q - 1)
    sign = 1j if (kind is LadderKind.CREATE) == creator_plus else -1j
    return pauli_sum(w, [
        (0.5, prefix + "X" + suffix),
        (0.5 * sign, prefix + "Y" + suffix),
    ])


def _terms_to_pauli(e: HamExpr, creator_plus: bool, z_string: bool) -> PauliSum:
    form = canonicalize(e)
    w = len(form.layout)
    products = []
    for term in form.terms:
        acc = identity_sum(w, term.coeff)
        for q, monomial in enumerate(term.factors):
            for kind in monomial:   # application order; new op multiplies left
                acc = _single_op_pauli(kind, q, w, creator_plus, z_string) * acc
        products.extend(acc.terms)
    return pauli_sum(w, products)


def ladder_to_pauli(e: HamExpr) -> PauliSum:
    """Pauli form of a qubit-typed expression via a^dag = (X+iY)/2,
    a = (X-iY)/2 (so a^dag+a -> X, i a - i a^dag -> Y, a^dag a - a a^dag -> Z).
    """
    layout = site_layout(e)
    for site in layout:
        if site != Boson(2):
            raise EncodingError(
                f"ladder_to_pauli requires all t(2) sites, found {site} "
                "(fermions must go through jordan_wigner first)")
    return _terms_to_pauli(e, creator_plus=True, z_string=False)


def jordan_wigner(e: HamExpr) -> PauliSum:
    """Fermion-to-qubit map: a_j -> Z^j (x) a (x) I..., then the t(2)
    substitution.  Output operators anti-commute like the inputs.
    """
    layout = site_layout(e)
    for site in layout:
        if not isinstance(site, Fermion):
            raise EncodingError(
                f"jordan_wigner requires all fermionic sites, found {site}")
    return _terms_to_pauli(e, creator_plus=True, z_string=True)


def pauli_to_ladder(p: PauliSum) -> HamExpr:
    """Ladder form over t(2) sites with the same Pauli meaning.

    Letters expand per I = a^dag a + a a^dag, X = a^dag + a,
    Y = i a - i a^dag, Z = a^dag a - a a^dag.
    """
    q2 = Boson(2)
    cr = Ladder(LadderKind.CREATE, q2)
    an = Ladder(LadderKind.ANNIHILATE, q2)
    letter_expr = {
        "I": Sum(Seq(cr, an), Seq(an, cr)),
        "X": Sum(cr, an),
        "Y": Sum(Ladder(LadderKind.ANNIHILATE, q2, 1j),
                 Ladder(LadderKind.CREATE, q2, -1j)),
        "Z": Sum(Seq(cr, an), scale(-1, Seq(an, cr))),
    }
    layout = tuple(q2 for _ in range(p.qubits))
    if not p.terms:
        return scale(0.0, identity_chain(layout))
    parts = []
    for coeff, string in p.terms:
        factors = [letter_expr[letter] for letter in string]
        parts.append(scale(coeff, tensor(*factors)))
    return ham_sum(*parts)


# ---------------------------------------------------------------------------
# Truncated bosons: unary encoding onto n+1 qubits per site
# ---------------------------------------------------------------------------

def holstein_primakoff(e: HamExpr, n: int) -> HamExpr:
    """Rewrite a t(2^(n+1))-typed expression over n+1 qubits per site.

    Occupation v encodes as the qubit string with a single 1 at position v;
    position n is the overflow bit.  A creator moves the mark from position
    j to j+1 with weight sqrt(j+1) (zero the j-th position, mark the
    j+1-th); the annihilator is its adjoint.  Matrix elements agree with the
    input on the encoded occupations 0..n-1; behavior outside the one-hot
    subspace is unspecified.
    """
    if n < 1:
        raise EncodingError("truncation level must be >= 1")
    want = 2 ** (n + 1)
    layout = site_layout(e)
    for site in layout:
        if site != Boson(want):
            raise EncodingError(
                f"holstein_primakoff at level {n} requires t({want}) sites, "
                f"found {site}")
    return _hp(dagger_normalize(e), n)


def _hp(e: HamExpr, n: int) -> HamExpr:
    qubit = Boson(2)
    if isinstance(e, Ladder):
        # creator: annihilate position j, create position j+1
        pos_kind = (LadderKind.ANNIHILATE if e.kind is LadderKind.CREATE
                    else LadderKind.CREATE)
        parts = []
        for j in range(n):
            factors = [Identity(qubit) for _ in range(n + 1)]
            factors[j] = Ladder(pos_kind, qubit)
            factors[j + 1] = Ladder(pos_kind.flipped, qubit)
            parts.append(scale(math.sqrt(j + 1), tensor(*factors)))
        return scale(e.amp, ham_sum(*parts))
    if isinstance(e, Identity):
        return scale(e.amp, identity_chain(tuple(qubit for _ in range(n + 1))))
    if isinstance(e, Tensor):
        return Tensor(_hp(e.left, n), _hp(e.right, n))
    if isinstance(e, Sum):
        return Sum(_hp(e.left, n), _hp(e.right, n))
    if isinstance(e, Seq):
        return Seq(_hp(e.left, n), _hp(e.right, n))
    raise TypeError(f"unexpected node {e!r} (expression was dagger-normalized)")


def hp_encode_state(s, n: int):
    """Map a state over t(2^(n+1)) sites onto the unary qubit encoding.

    Only occupations 0..n are representable (n marks the overflow bit).
    """
    from .fock import make_state
    qubit = Boson(2)
    out_layout = tuple(qubit for _ in range(len(s.layout) * (n + 1)))
    kets = []
    for ket in s.terms:
        occ = []
        for v in ket.occ:
            if v > n:
                raise EncodingError(
                    f"occupation {v} not representable at truncation level {n}")
            occ.extend(1 if j == v else 0 for j in range(n + 1))
        kets.append((ket.amp, tuple(occ)))
    return make_state(out_layout, kets)


# ---------------------------------------------------------------------------
# Matrix-faithful encoding used by the compiler
# ---------------------------------------------------------------------------

def infer_encoding(layout: SiteList):
    """Pick the encoding a layout needs: ('direct'|'jw'|'hp', hp_level)."""
    if all(isinstance(s, Fermion) for s in layout):
        return "jw", None
    if any(isinstance(s, Fermion) for s in layout):
        raise EncodingError("mixed fermion/boson layouts are not encodable")
    dims = {s.dim for s in layout}
    if dims == {2}:
        return "direct", None
    if len(dims) != 1:
        raise EncodingError("boson sites must share one dimension to encode")
    d = dims.pop()
    n = (d.bit_length() - 1) - 1
    if d != 2 ** (n + 1) or n < 1:
        raise EncodingError(
            f"boson dimension {d} is not a power of two >= 4")
    return "hp", n


def encode_for_compile(e: HamExpr, method: str = "auto",
                       hp_level: int | None = None):
    """(PauliSum, EncodingReport) whose matrix equals expr_to_matrix(e).

    Uses the adjoint substitution a -> (X+iY)/2 so the occupation basis maps
    to the computational basis index-for-index; fermions get standard
    Jordan-Wigner Z strings.
    """
    layout = site_layout(e)
    if method == "auto":
        method, inferred = infer_encoding(layout)
        hp_level = hp_level if hp_level is not None else inferred
    if method == "hp":
        n = hp_level
        if n is None:
            kind, n = infer_encoding(layout)
            if kind != "hp":
                raise EncodingError("hp encoding needs a truncation level")
        e = holstein_primakoff(e, n)
        report = encoding_report(layout, "hp", n)
        return _terms_to_pauli(e, creator_plus=False, z_string=False), report
    if method == "jw":
        for site in layout:
            if not isinstance(site, Fermion):
                raise EncodingError(f"jw encoding requires fermionic sites, "
                                    f"found {site}")
        report = encoding_report(layout, "jw")
        return _terms_to_pauli(e, creator_plus=False, z_string=True), report
    if method == "direct":
        for site in layout:
            if site != Boson(2):
                raise EncodingError(f"direct encoding requires t(2) sites, "
                                    f"found {site}")
        report = encoding_report(layout, "direct")
        return _terms_to_pauli(e, creator_plus=False, z_string=False), report
    raise EncodingError(f"unknown encoding {method!r}")
