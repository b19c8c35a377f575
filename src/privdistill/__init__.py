"""Private quantum states, local-filtering distillation, and bound certificates."""

from .bounds import (
    BoundReport,
    EfCertificate,
    PairBound,
    binary_entropy,
    ed_lower_bound,
    ef_certificate,
    hashing_rate,
    key_rate,
)
from .filtering import (
    FilterError,
    FilterOutcome,
    FilterSet,
    apply_filter,
    build_filters,
    filter_outcomes,
)
from .linalg import (
    Factor,
    LayoutError,
    SubsystemLayout,
    factor_permutation,
    kron_all,
    layout,
    partial_trace,
    permute_factors,
    von_neumann_entropy,
)
from .overlap import (
    OverlapResult,
    PairOverlap,
    brute_force_eta,
    cross_operator,
    eta_optimize,
    optimize_pair,
    optimize_pairs,
)
from .private_states import (
    PrivateState,
    PrivateStateSpec,
    build_private_state,
    depolarized_spec,
    eigenvectors_of_pdit,
    random_spec,
    tensor_power_spec,
    with_shield,
)
from .serialize import (
    matrix_from_json,
    matrix_to_json,
    read_json,
    spec_from_json,
    spec_to_json,
    state_to_json,
    write_json,
    write_matrix,
    write_spec,
)
from .states import (
    DensityMatrix,
    StateValidationError,
    UnitaryOp,
    bell_vector,
    random_density,
    random_unitary,
    validate_state,
    validate_unitary,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
