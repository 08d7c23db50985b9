"""Advance sharing for stabilizer-based quantum secret sharing.

Given a stabilizer code over a prime field, decide which share sets can be
distributed before the secret exists, build the matching
entanglement-assisted code and encoding circuit, and verify the whole
protocol on a dense qudit simulator.
"""

from .advance import (
    EAQECCPlan,
    NormalForm,
    ShareableSet,
    construct_eaqecc,
    dual_min_weight,
    enumerate_advance_shareable,
    is_advance_shareable,
    is_advance_shareable_sufficient,
    normal_form,
    shareable_sets,
)
from .clifford import (
    CliffordCircuit,
    Gate,
    PhasedPauli,
    conjugate_pauli,
    encoding_circuit,
    gate,
    symplectic_matrix,
    synthesize,
    to_unitary,
)
from .errors import (
    AdvShareError,
    BudgetExceededError,
    CodeFileError,
    DependentRowsError,
    GramMismatchError,
    InvariantError,
    NotAdvanceShareableError,
    NotCommutativeError,
    UncorrectableErasureError,
)
from .pauli import (
    PauliOperator,
    StabilizerCode,
    code_distance,
    commutation_exponent,
    f_inv,
    f_map,
    pauli_mul,
    random_stabilizer,
    validate_stabilizer,
    weight,
)
from .sim import (
    AccessLabel,
    ProtocolTranscript,
    QuditState,
    TrialRecord,
    apply_circuit,
    apply_pauli,
    classify_access,
    correctable_erasure,
    encode_advance,
    encode_with_reference,
    entropic_audit,
    erase_and_decode,
    fidelity,
    make_epr,
    random_state,
    reconstruct,
    simulate_protocol,
)
from .symplectic import (
    SymplecticCode,
    min_symplectic_weight,
    puncture,
    shorten,
    symplectic_dual,
    symplectic_product,
)

__version__ = "0.1.0"
