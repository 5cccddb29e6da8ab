"""POVMs, confusion matrices, and the unambiguity check.

A measurement is a stack of PSD elements summing to the identity, each
tagged with an outcome label: either "this outcome identifies state i" or
"this outcome is inconclusive".  A success probability is read off the
confusion matrix as the sum over identifying outcomes; for an unambiguous
measurement it also equals one minus the inconclusive weight, which the
property tests check on every unambiguous builder.
"""
from __future__ import annotations

import operator
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

    def __post_init__(self):
        index = self.index
        if index is not None:  # numpy integers are indices, booleans are not
            if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
                raise LabelMismatchError(f"identify index {index!r} is not an integer")
            if index < 0:
                raise LabelMismatchError(f"identify index {index} is negative")
            object.__setattr__(self, "index", operator.index(index))

    @classmethod
    def identify(cls, index: int) -> "OutcomeLabel":
        if index is None:
            raise LabelMismatchError("identify index None is not an integer")
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
        elements = tuple(linalg.as_complex(m, 2) for m in self.elements)
        labels = tuple(self.labels)
        if not elements:
            raise DimensionMismatchError("POVM needs at least one element")
        if len(labels) != len(elements):
            raise LabelMismatchError(
                f"{len(elements)} elements but {len(labels)} labels"
            )
        dim = elements[0].shape[0]
        if dim == 0:
            raise DimensionMismatchError(f"empty POVM element {elements[0].shape}")
        if elements[0].shape[1] != dim:
            raise DimensionMismatchError(f"POVM element {elements[0].shape} is not square")
        square = [m.shape == (dim, dim) for m in elements] + [False]
        stack = np.array(elements[: square.index(False)]).reshape(-1, dim, dim)
        _check_positive(stack)  # an earlier element's failure comes first
        if len(stack) < len(elements):
            raise DimensionMismatchError("POVM elements differ in dimension")
        with np.errstate(over="ignore"):  # an overflowed residual is inf, and fails
            res = linalg.frobenius(stack.sum(axis=0) - np.eye(dim))
        if res > tol.COMPLETE:
            raise InvariantViolationError(
                f"POVM completeness residual {res:.3e} > {tol.COMPLETE}"
            )
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


@np.errstate(over="ignore", invalid="ignore")
def _check_positive(stack: np.ndarray):
    """Raise at the first element that is not Hermitian, or else not PSD.

    Entries near the float maximum are taken as in
    ``linalg.hermitian_eig``: an overflowed residual is inf."""
    adjoint = stack.conj().transpose(0, 2, 1)
    herm = linalg._frobenius_each(stack - adjoint)
    low = np.linalg.eigvalsh(linalg._hermitian_mean(stack, adjoint)).min(axis=1)
    for k in np.flatnonzero((herm > tol.HERMITIAN) | (low < -tol.PSD))[:1]:
        if herm[k] > tol.HERMITIAN:
            raise NotHermitianError(
                f"Hermiticity residual {herm[k]:.3e} exceeds {tol.HERMITIAN}"
            )
        raise NotPsdError(f"POVM element eigenvalue {low[k]:.3e}")


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
    norms = linalg._frobenius_each(w)
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
    return pure_confusion(ensemble.states, povm)


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
