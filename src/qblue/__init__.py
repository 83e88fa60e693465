"""Typed second-quantization Hamiltonians: states, typing, encodings,
and compilation to digital circuits or analog machine schedules."""

from .errors import (
    CompileError, DimensionCapError, LayoutError, NonHermitianError,
    ParseError, QBlueError,
)
from .expr import (
    Atom, Boson, Fermion, Flag, HamExpr, LadderKind, OpType, Seq, Sum,
    dagger, ham_sum, scale, seq, site_dim, total_dim,
)
from .typecheck import (
    CanonicalForm, adjoint, canonical_allclose, canonicalize,
    hermiticity_report, typecheck,
)
from .fock import FockState, Ket, apply, format_state, parse_state
from .pauli import PauliSum, is_hermitian_pauli, pauli_sum, pauli_to_matrix
from .encodings import encode_for_compile
from .linalg import GroundResult, evolve, ground_energy, vector_to_state
from .circuit import Circuit, Gate, apply_circuit, format_circuit, parse_circuit
from .trotter import (
    IBM, MachineSpec, TrotterPlan, compile_digital,
    encode_hermitian, fit_machine, plan_to_circuit, synthesize_term,
    trotterize, verify_circuit,
)
from .parser import Program, parse

__version__ = "0.1.0"
