"""POVMs, confusion matrices, and the unambiguity check.

A measurement is a stack of PSD elements summing to the identity, each
tagged with an outcome label: either "this outcome identifies state i" or
"this outcome is inconclusive".  A success probability is read off the
confusion matrix as the sum over identifying outcomes; for an unambiguous
measurement it also equals one minus the inconclusive weight, which the
property tests check on every unambiguous builder.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg, tol
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    LabelMismatchError,
    NotHermitianError,
    NotPsdError,
)
from .states import Ensemble


@dataclass(frozen=True)
class OutcomeLabel:
    """Tag attached to a POVM element: Identify(index) or Inconclusive."""

    index: int | None = None

    @classmethod
    def identify(cls, index: int) -> "OutcomeLabel":
        if index < 0:
            raise LabelMismatchError(f"identify index {index} is negative")
        return cls(index)

    @classmethod
    def inconclusive(cls) -> "OutcomeLabel":
        return cls(None)

    @property
    def is_identify(self) -> bool:
        return self.index is not None

    def __str__(self) -> str:
        return "inconclusive" if self.index is None else f"identify:{self.index}"


@dataclass(frozen=True, eq=False)
class Povm:
    """Labeled POVM on C^dim; ``elements`` is one read-only (K, dim, dim) stack."""

    elements: np.ndarray
    labels: tuple[OutcomeLabel, ...]
    completeness_residual: float = field(init=False, repr=False)

    def __post_init__(self):
        elements = tuple(linalg.as_cmatrix(m) for m in self.elements)
        labels = tuple(self.labels)
        if not elements:
            raise DimensionMismatchError("POVM needs at least one element")
        if len(labels) != len(elements):
            raise LabelMismatchError(
                f"{len(elements)} elements but {len(labels)} labels"
            )
        dim = elements[0].shape[0]
        square = [m.shape == (dim, dim) for m in elements] + [False]
        stack = np.array(elements[: square.index(False)]).reshape(-1, dim, dim)
        if len(stack) < len(elements):
            _check_positive(stack)  # an earlier element's failure comes first
            raise DimensionMismatchError("POVM elements differ in dimension")
        res = _completeness(stack.shape, stack.tobytes())
        stack.setflags(write=False)
        object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "completeness_residual", res)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def identify_outcome(self, state_index: int) -> int:
        """Index of the unique outcome labeled Identify(state_index)."""
        index = [lab.index for lab in self.labels]
        count = index.count(state_index)
        if count != 1:
            raise LabelMismatchError(
                f"{count} outcomes identify state {state_index}, expected 1"
            )
        return index.index(state_index)


def _check_positive(stack: np.ndarray):
    """Raise at the first element that is not Hermitian, or else not PSD."""
    adjoint = stack.conj().transpose(0, 2, 1)
    herm = np.linalg.norm(stack - adjoint, axis=(1, 2))
    low = np.linalg.eigvalsh((stack + adjoint) / 2.0).min(axis=1)
    for k in np.flatnonzero((herm > tol.HERMITIAN) | (low < -tol.PSD))[:1]:
        if herm[k] > tol.HERMITIAN:
            raise NotHermitianError(
                f"Hermiticity residual {herm[k]:.3e} exceeds {tol.HERMITIAN}"
            )
        raise NotPsdError(f"POVM element eigenvalue {low[k]:.3e}")


@functools.lru_cache(maxsize=64)
def _completeness(shape: tuple, data: bytes) -> float:
    """Completeness residual of a stack of checked square elements, cached by
    its bytes: a stack seen before (a reloaded POVM) gets the same answer."""
    stack = np.frombuffer(data, dtype=np.complex128).reshape(shape)
    _check_positive(stack)
    res = linalg.frobenius(stack.sum(axis=0) - np.eye(shape[1]))
    if res > tol.COMPLETE:
        raise InvariantViolationError(
            f"POVM completeness residual {res:.3e} > {tol.COMPLETE}"
        )
    return res


def _identify_outcomes(povm: Povm, n: int) -> np.ndarray:
    """``x[i]``, the one outcome labeled Identify(i), for each of ``n``
    states; raises at the first label naming a state ``>= n``, then at the
    first state without exactly one outcome."""
    for lab in povm.labels:
        if lab.is_identify and lab.index >= n:
            raise LabelMismatchError(
                f"label identifies state {lab.index}, ensemble has {n}"
            )
    return np.array([povm.identify_outcome(i) for i in range(n)], dtype=np.intp)


def pure_confusion(vectors, povm: Povm) -> np.ndarray:
    """Confusion matrix ``conf[i, x] = <w_i|M_x|w_i>`` of pure states.

    ``vectors`` is an ``(n, dim)`` stack of state vectors.  Each norm must
    be 1 within ``tol.NORM``; each entry must lie in [0, 1] within
    ``tol.PROB`` and is then clamped; each row must sum to 1 within
    ``tol.COMPLETE``.
    """
    w = np.asarray(vectors, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] != povm.dim:
        raise DimensionMismatchError(
            f"POVM dim {povm.dim} vs state vectors of shape {w.shape}"
        )
    # Each test is written so that NaN fails it.
    norms = np.sqrt(np.vecdot(w, w).real)
    if not np.abs(norms - 1.0).max() <= tol.NORM:
        raise InvariantViolationError(f"state norms {norms!r} differ from 1")
    conf = np.einsum("id,xde,ie->ix", w.conj(), povm.elements, w).real
    for extreme in (float(conf.min()), float(conf.max())):
        if not -tol.PROB <= extreme <= 1.0 + tol.PROB:
            raise InvariantViolationError(
                f"probability = {extreme!r} outside [0, 1] by more than {tol.PROB}"
            )
    conf = np.clip(conf, 0.0, 1.0)
    sums = conf.sum(axis=1)
    if not np.abs(sums - 1.0).max() <= tol.COMPLETE:
        raise InvariantViolationError(f"outcome probabilities sum to {sums!r}")
    return conf


def confusion_matrix(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Matrix with entry (i, x) = Tr(M_x |u_i><u_i|); rows sum to 1."""
    return pure_confusion([s.amplitudes for s in ensemble.states], povm)


def unambiguity_check(ensemble: Ensemble, povm: Povm) -> tuple[bool, float]:
    """Verify that identifying outcomes never fire on the wrong state.

    Returns ``(ok, max_cross_term)`` where the cross terms are
    ``Tr(M_{x(j)} rho_i)`` for i != j.  ``ok`` also requires every
    diagonal term ``Tr(M_{x(i)} rho_i)`` to exceed ``tol.UNAMBIGUOUS``.
    """
    identify = _identify_outcomes(povm, len(ensemble))
    cols = confusion_matrix(ensemble, povm)[:, identify]
    worst = float(np.abs(cols[~np.eye(len(identify), dtype=bool)]).max(initial=0.0))
    ok = worst <= tol.UNAMBIGUOUS and bool((np.diag(cols) > tol.UNAMBIGUOUS).all())
    return ok, worst
