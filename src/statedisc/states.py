"""Pure states, density matrices, weighted ensembles, and overlap synthesis.

All wrapper types validate on construction and hold read-only arrays, so a
value that exists is a value that satisfies its invariants.
"""
from __future__ import annotations

import functools
import numbers
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


def _real_number(name: str, value, whole: bool = False):
    """``value`` as a float, or an int if ``whole``: a real number, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not whole:
            return float(value)
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    what = "whole" if whole else "real"
    raise ParamOutOfRangeError(f"{name} {value!r} is not a {what} number")


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


def _unit_vector(v) -> np.ndarray:
    """``v`` as a finite, non-empty complex128 vector of norm 1."""
    a = linalg.as_complex(v, 1)
    if a.shape[0] < 1:
        raise DimensionMismatchError("empty state vector")
    norm = linalg.frobenius(a)
    if abs(norm - 1.0) > tol.NORM:
        raise InvariantViolationError(f"ket norm {norm!r} differs from 1")
    return _freeze(a)


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit vector in C^dim."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _unit_vector(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


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
        m = linalg.as_complex(self.matrix, 2)
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
        return cls(np.outer(ket.amplitudes, np.conj(ket.amplitudes)))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with prior probabilities, all on one space; ``states`` is one
    read-only (n, dim) stack, row i state i, each row checked as a Ket."""

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        rows = [_unit_vector(v) for v in self.states]
        if not rows:
            raise DimensionMismatchError("ensemble needs at least one state")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatchError("ensemble states live on different spaces")
        p = validate_priors(self.priors, len(rows))
        object.__setattr__(self, "states", _freeze(np.array(rows)))
        object.__setattr__(self, "priors", _freeze(p))

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.states.shape[0]


def states_from_gram(overlaps, priors) -> Ensemble:
    """Synthesize states in C^n realizing the requested overlaps, with priors.

    ``overlaps[i, j]`` is the required ``<u_i|u_j>``.  State i is the
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
    return Ensemble(rows, priors)


def ensemble_density(ensemble: Ensemble) -> DensityMatrix:
    """Average state ``sum_i p_i |u_i><u_i|``."""
    rho = np.zeros((ensemble.dim, ensemble.dim), dtype=np.complex128)
    for p, u in zip(ensemble.priors, ensemble.states):
        rho += p * np.outer(u, np.conj(u))
    return DensityMatrix(rho)
