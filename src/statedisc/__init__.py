"""Explicit unitary + POVM constructions for quantum state discrimination.

Small-dimension (<= 8) toolkit: build discrimination schemes as concrete
(ensemble, coupling unitary, labeled POVM, closed-form success) bundles,
verify them through an independent measurement pipeline, compare mixed
schemes against the best fully unambiguous alternatives, and reproduce
every number by seeded Monte-Carlo simulation.
"""
from types import ModuleType as _ModuleType

from .analysis import (
    ComparisonColumns,
    ComparisonRecord,
    OptimizeResult,
    compare_columns,
    max_unambiguous_symmetric_grid,
    optimize_unambiguous_special,
    right_classicality_check,
    simplex_grid,
    theorem21_bound,
    theorem21_check,
    theorem31_check,
)
from .errors import (
    AmplitudeOutOfRangeError,
    DimensionMismatchError,
    DiscriminationError,
    EmptyGridError,
    GammaOutOfRangeError,
    GramMismatchError,
    GramNotPsdError,
    HypothesisViolatedError,
    InfeasibleAmplitudesError,
    InvalidGammaError,
    InvariantViolationError,
    LabelMismatchError,
    NotHermitianError,
    NotPsdError,
    OverlapConstraintViolatedError,
    ParamOutOfRangeError,
    ZeroProbabilityOutcomeError,
)
from .linalg import (
    commutator,
    dag,
    frobenius,
    hermitian_eig,
    isometry_completion,
    psd_cholesky,
)
from .measurement import (
    OutcomeLabel,
    Povm,
    confusion_matrix,
    unambiguity_check,
)
from .montecarlo import (
    SimResult,
    SkippedPoint,
    SweepResult,
    brute_force_success,
    simulate,
    sweep,
)
from .schemes import (
    MixedGeneralParams,
    MixedSpecialParams,
    RraParams,
    Scheme,
    SeparableDecomposition,
    UnambiguousSpecialParams,
    XuResult,
    ZeroAuxParams,
    build_mixed_general,
    build_mixed_special,
    build_rra,
    build_unambiguous_special,
    build_zero_aux,
    coupled_ensemble,
    scheme_confusion,
    separable_decomposition,
    xu_max_unambiguous,
    zero_aux_posterior,
)
from .states import (
    DensityMatrix,
    Ensemble,
    GramSpec,
    Ket,
    ensemble_density,
    inner,
    states_from_gram,
)

__version__ = "0.1.0"

# Every name imported above, once: the public names that are not modules.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
