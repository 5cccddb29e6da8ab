"""Pure states, density matrices, weighted ensembles, and overlap synthesis.

All wrapper types validate on construction and hold read-only arrays, so a
value that exists is a value that satisfies its invariants.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg, tol
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotPsdError,
    ParamOutOfRangeError,
)

# 1/sqrt(2): the |+>/|-> amplitude, and the largest two-orthogonal overlap.
_HALF_SQRT2 = np.sqrt(0.5)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def validate_priors(priors, n: int) -> np.ndarray:
    """Caller-supplied priors as a float array of ``n`` probabilities.

    Raises :class:`DimensionMismatchError` for a wrong count and
    :class:`ParamOutOfRangeError` unless every prior is non-negative and
    they sum to 1 within ``tol.PRIORS``; the test is written so that NaN
    and infinity fail it.
    """
    p = np.array(priors, dtype=float).reshape(-1)
    if p.shape[0] != n:
        raise DimensionMismatchError(f"expected {n} priors, got {p.shape[0]}")
    if not priors_ok(p):
        raise ParamOutOfRangeError("priors must be non-negative and sum to 1")
    return p


def priors_ok(p: np.ndarray) -> np.ndarray:
    """Which prior vectors along the last axis are probability vectors.

    True where every entry is non-negative and the entries sum to 1 within
    ``tol.PRIORS``; NaN and infinity fail.  The sum runs left to right, so
    a vector gets the same answer alone or as a row of a batch.
    """
    if p.ndim == 1:  # one vector: the same additions, on Python floats
        values = p.tolist()
        total = functools.reduce(operator.add, values[1:], values[0])  # NaN wins
        return np.bool_(min(values) >= 0.0 and abs(total - 1.0) <= tol.PRIORS)
    total = p[..., 0]
    # inf + -inf is NaN and an overflowing sum is inf; both fail below.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, p.shape[-1]):
            total = total + p[..., k]
    return (p >= 0.0).all(axis=-1) & (np.abs(total - 1.0) <= tol.PRIORS)


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit vector in C^dim."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = linalg.as_cvector(self.amplitudes)
        if a.shape[0] < 1:
            raise DimensionMismatchError("empty state vector")
        norm = linalg.frobenius(a)
        if abs(norm - 1.0) > tol.NORM:
            raise InvariantViolationError(f"ket norm {norm!r} differs from 1")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> np.ndarray:
        """Outer product |k><k| as a bare matrix."""
        return np.outer(self.amplitudes, np.conj(self.amplitudes))


def inner(a: Ket, b: Ket) -> complex:
    """Inner product <a|b>, antilinear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"<a|b> with dims {a.dim} and {b.dim}")
    return complex(np.conj(a.amplitudes) @ b.amplitudes)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_cmatrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        w, _ = linalg.hermitian_eig(m)  # raises NotHermitianError beyond tol.HERMITIAN
        if w.min() < -tol.DENSITY:
            raise NotPsdError(f"density matrix eigenvalue {w.min():.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > tol.DENSITY:
            raise InvariantViolationError(f"density matrix trace {tr!r} differs from 1")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket: Ket) -> "DensityMatrix":
        return cls(ket.density())


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with prior probabilities, all on one space."""

    states: tuple[Ket, ...]
    priors: np.ndarray

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise DimensionMismatchError("ensemble needs at least one state")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise DimensionMismatchError("ensemble states live on different spaces")
        p = np.array(self.priors, dtype=float).reshape(-1)
        if p.shape[0] != len(states):
            raise DimensionMismatchError(
                f"{len(states)} states but {p.shape[0]} priors"
            )
        if not priors_ok(p):
            raise InvariantViolationError(
                f"priors {p.tolist()!r} are not non-negative summing to 1"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", _freeze(p))

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)


def states_from_gram(overlaps, priors) -> Ensemble:
    """Synthesize kets in C^n realizing the requested overlaps, with priors.

    ``overlaps[i, j]`` is the required ``<u_i|u_j>``.  The i-th ket is the
    conjugated i-th row of the matrix's triangular PSD factor, which fixes
    the phase convention (real non-negative diagonal pivots).  Raises
    :class:`NotHermitianError` or :class:`NotPsdError` when the overlaps
    are not realizable, :class:`InvariantViolationError` unless their
    diagonal is 1; :class:`Ensemble` checks the priors.
    """
    rows = np.conj(linalg.psd_cholesky(overlaps))
    diagonal = np.diagonal(np.asarray(overlaps, dtype=np.complex128))
    if np.abs(diagonal - 1.0).max() > tol.DENSITY:
        raise InvariantViolationError("overlap matrix diagonal must be 1")
    return Ensemble(tuple(map(Ket, rows)), priors)


def ensemble_density(ensemble: Ensemble) -> DensityMatrix:
    """Average state ``sum_i p_i |u_i><u_i|``."""
    rho = np.zeros((ensemble.dim, ensemble.dim), dtype=np.complex128)
    for p, s in zip(ensemble.priors, ensemble.states):
        rho += p * s.density()
    return DensityMatrix(rho)
