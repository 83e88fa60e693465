"""Independent dense-matrix reference used to cross-check the library.

Everything here is written directly against the definitions (explicit loops
and krons), on purpose not sharing code with qblue.linalg, so agreement is
a genuine two-route check.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def create_mat(dim):
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m[k + 1, k] = np.sqrt(k + 1)
    return m


def annihilate_mat(dim):
    return create_mat(dim).conj().T


def kron_all(*mats):
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_string_matrix(string):
    return kron_all(*(PAULI[c] for c in string))


def embedded(op, j, dims):
    """op at site j, identities elsewhere (bosonic embedding)."""
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[j] = op
    return kron_all(*mats)


def jw_ladder(kind, j, n):
    """Occupation-basis fermionic ladder operator at site j of n, built from
    the Z-string definition (sign = parity of occupied sites before j)."""
    op = create_mat(2) if kind == "create" else annihilate_mat(2)
    mats = [Z] * j + [op] + [I2] * (n - j - 1)
    return kron_all(*mats)


def jw_embedded(op, j, dims, fermionic):
    """Odd operator op at site j with a Z on every fermionic site before j
    and identities elsewhere; fermionic[i] marks the fermionic sites."""
    mats = [Z if fermionic[i] and i < j else np.eye(d, dtype=complex)
            for i, d in enumerate(dims)]
    mats[j] = op
    return kron_all(*mats)


def fermion_parity(layout):
    """(-1)^(occupied fermionic modes) of every basis state, row-major; a
    site is "F" (a fermionic mode) or an int m (an m-level boson)."""
    diag = np.ones(1)
    for site in layout:
        diag = np.kron(diag, [1, -1] if site == "F" else np.ones(site))
    return diag


def graded_kron(a, layout_a, b, layout_b):
    """The graded tensor product A (x) B_even + (P_A A) (x) B_odd, where
    B_even and B_odd keep the entries of B whose row and column have equal
    and unequal fermion parity, and P_A scales A's rows by the parity of
    layout_a: B's odd part sees the parity that A leaves behind."""
    parity_b = fermion_parity(layout_b)
    odd = np.not_equal.outer(parity_b, parity_b)
    b_even = np.where(odd, 0, b)
    b_odd = np.where(odd, b, 0)
    p_a = np.diag(fermion_parity(layout_a))
    return np.kron(a, b_even) + np.kron(p_a @ a, b_odd)


# ---------------------------------------------------------------------------
# Gates, from their definitions; qubit 0 is the most significant index bit
# ---------------------------------------------------------------------------

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.diag([1, 1j])
SDG_GATE = np.diag([1, -1j])


def rotation(axis, angle):
    """exp(-i (angle/2) P) = cos(angle/2) I - i sin(angle/2) P."""
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * PAULI[axis]


def cx_on(control, target, n):
    """CX by its basis map |..c..t..> -> |..c..(t xor c)..>."""
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        bits = [(j >> (n - 1 - q)) & 1 for q in range(n)]
        bits[target] ^= bits[control]
        i = int("".join(str(b) for b in bits), 2)
        m[i, j] = 1
    return m


def gate_on(name, qubits, angle, n):
    """n-qubit matrix of one gate, named as in the circuit text format."""
    if name == "cx":
        return cx_on(qubits[0], qubits[1], n)
    if name in ("rx", "ry", "rz"):
        single = rotation(name[1].upper(), angle)
    else:
        single = {"h": HADAMARD, "s": S_GATE, "sdg": SDG_GATE}[name]
    return embedded(single, qubits[0], [2] * n)


def circuit_unitary(gates, n, phase=0.0):
    """e^{i phase} times the gate product; gates are (name, qubits, angle)
    triples in application order."""
    u = np.eye(2 ** n, dtype=complex)
    for name, qubits, angle in gates:
        u = gate_on(name, qubits, angle, n) @ u
    return np.exp(1j * phase) * u


def expval(m, vec):
    vec = np.asarray(vec, dtype=complex)
    return (vec.conj() @ (m @ vec)) / (vec.conj() @ vec)


def max_norm(a, b=None):
    d = a if b is None else a - b
    return abs(np.asarray(d)).max()
