"""Typed second-quantization Hamiltonians: states, typing, encodings,
and compilation to digital circuits or analog machine schedules."""

from .errors import (
    CompileError, DimensionCapError, EncodingError, FitError, LayoutError,
    NonHermitianError, ParseError, QBlueError, StateFormatError,
)
from .expr import (
    Atom, Boson, Dagger, Fermion, Flag, HamExpr, LadderKind,
    OpType, Seq, Sum, Tensor, annihilate, create, dagger, desugar_indexed,
    expr_allclose, ham_sum, identity, identity_chain, scale, seq,
    site_dim, site_layout, tensor, total_dim,
)
from .typecheck import (
    CanonicalForm, CanonicalTerm, adjoint, canonical_allclose,
    canonical_to_expr, canonicalize, hermiticity_report, is_hermitian,
    typecheck,
)
from .fock import (
    FockState, Ket, add_states, apply, apply_single, basis_ket, expectation,
    fermion_sign, format_state, inner_product, make_state, normalize,
    parse_state, zero_state,
)
from .pauli import (
    PauliSum, is_hermitian_pauli, pauli_allclose, pauli_sum, pauli_to_matrix,
    simplify,
)
from .encodings import EncodingReport, encode_for_compile
from .linalg import (
    GroundResult, expr_to_matrix, ground_energy, matrix_exp_sim, matrix_log,
    phase_aligned_distance, state_to_vector, vector_to_state,
)
from .circuit import Circuit, Gate, circuit_to_matrix, format_circuit, parse_circuit
from .trotter import (
    AnalogSchedule, MachineSpec, TrotterPlan, compile_digital, fit_machine,
    ibm_machine, plan_to_circuit, schedule_to_pauli,
    synthesize_term, trotterize, verify_circuit,
)
from .parser import Program, format_expr, format_program, parse

__version__ = "0.1.0"
