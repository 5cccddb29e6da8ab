"""Domain error types.

Every error carries a stable machine-readable ``code`` (the class name
without the ``Error`` suffix) so callers such as the CLI can report
failures on a single line without parsing prose.
"""
from __future__ import annotations


class DiscriminationError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class DimensionMismatchError(DiscriminationError):
    """Operands live on incompatible spaces."""


class NotHermitianError(DiscriminationError):
    """Matrix is not Hermitian within tolerance."""


class NotPsdError(DiscriminationError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class GramMismatchError(DiscriminationError):
    """Domain and image vectors do not share a Gram matrix."""


class ZeroProbabilityOutcomeError(DiscriminationError):
    """Conditioning on an outcome whose probability is numerically zero."""


class LabelMismatchError(DiscriminationError):
    """Outcome labels do not match what the operation requires."""


class OverlapConstraintViolatedError(DiscriminationError):
    """Supplied amplitudes are inconsistent with the state overlaps."""


class AmplitudeOutOfRangeError(DiscriminationError):
    """An amplitude magnitude exceeds 1."""


class GammaOutOfRangeError(DiscriminationError):
    """Overlap parameter outside the scheme's admissible interval."""


class ParamOutOfRangeError(DiscriminationError):
    """Scheme parameter outside its admissible range."""


class GramNotPsdError(DiscriminationError):
    """Requested overlaps are not realizable by any set of states."""


class InfeasibleAmplitudesError(DiscriminationError):
    """Failure amplitudes violate the feasibility constraint."""


class InvalidGammaError(DiscriminationError):
    """Symmetric overlap outside [0, 1)."""


class HypothesisViolatedError(DiscriminationError):
    """Inputs do not satisfy the hypothesis of the requested result."""


class EmptyGridError(DiscriminationError):
    """A sweep was requested over an empty parameter grid."""


class InvariantViolationError(DiscriminationError):
    """An internal consistency check failed; indicates a bug or bad input."""
