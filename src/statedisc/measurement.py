"""POVMs, outcome statistics, and success functionals.

A measurement is a list of PSD elements summing to the identity, each
tagged with an outcome label: either "this outcome identifies state i" or
"this outcome is inconclusive".  Success probabilities come in two forms,
a direct sum over identifying outcomes and, for unambiguous measurements,
one minus the inconclusive weight; both are implemented and checked
against each other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    LabelMismatchError,
    NotPsdError,
    NotUnambiguousError,
    ZeroProbabilityOutcomeError,
)
from .states import TOL_NORM, DensityMatrix, Ensemble

#: Completeness tolerance: || sum(elements) - I ||_F.
TOL_COMPLETE = 1e-9
#: Band outside [0, 1] that probabilities may occupy before clamping.
TOL_PROB = 1e-10
#: Cross-term threshold for the unambiguity test.
TOL_UNAMBIGUOUS = 1e-9
#: Probability below which an outcome cannot be conditioned on.
TOL_ZERO_PROB = 1e-12


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
    """Labeled positive operator-valued measure on C^dim."""

    elements: tuple[np.ndarray, ...]
    labels: tuple[OutcomeLabel, ...]

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
        total = np.zeros((dim, dim), dtype=np.complex128)
        for m in elements:
            if m.shape != (dim, dim):
                raise DimensionMismatchError("POVM elements differ in dimension")
            w, _ = linalg.hermitian_eig(m)
            if w.min() < -linalg.TOL_PSD:
                raise NotPsdError(f"POVM element eigenvalue {w.min():.3e}")
            total += m
        res = linalg.frobenius(total - np.eye(dim))
        if res > TOL_COMPLETE:
            raise InvariantViolationError(
                f"POVM completeness residual {res:.3e} > {TOL_COMPLETE}"
            )
        for m in elements:
            m.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def identify_outcome(self, state_index: int) -> int:
        """Index of the unique outcome labeled Identify(state_index)."""
        hits = [x for x, lab in enumerate(self.labels) if lab.index == state_index]
        if len(hits) != 1:
            raise LabelMismatchError(
                f"{len(hits)} outcomes identify state {state_index}, expected 1"
            )
        return hits[0]


def clamp_probability(value: float, what: str, tol: float) -> float:
    """``value`` clipped into [0, 1]; raises when it lies more than ``tol`` outside."""
    if not -tol <= value <= 1.0 + tol:
        raise InvariantViolationError(
            f"{what} = {value!r} outside [0, 1] by more than {tol}"
        )
    return min(1.0, max(0.0, value))


def outcome_probabilities(povm: Povm, rho: DensityMatrix) -> np.ndarray:
    """Probability vector ``p_x = Tr(M_x rho)``, clamped to [0, 1]."""
    if povm.dim != rho.dim:
        raise DimensionMismatchError(f"POVM dim {povm.dim} vs state dim {rho.dim}")
    probs = np.array(
        [
            clamp_probability(
                float(np.trace(m @ rho.matrix).real), "probability", TOL_PROB
            )
            for m in povm.elements
        ]
    )
    if abs(probs.sum() - 1.0) > TOL_COMPLETE:
        raise InvariantViolationError(f"outcome probabilities sum to {probs.sum()!r}")
    return probs


def post_measurement_state(povm: Povm, outcome: int, rho: DensityMatrix) -> DensityMatrix:
    """State after observing ``outcome``, using Kraus operator sqrt(M_x).

    Raises :class:`ZeroProbabilityOutcomeError` when the outcome has
    probability below ``TOL_ZERO_PROB``.
    """
    if not 0 <= outcome < povm.n_outcomes:
        raise LabelMismatchError(f"outcome {outcome} not in [0, {povm.n_outcomes})")
    if povm.dim != rho.dim:
        raise DimensionMismatchError(f"POVM dim {povm.dim} vs state dim {rho.dim}")
    m = povm.elements[outcome]
    p = float(np.trace(m @ rho.matrix).real)
    if p <= TOL_ZERO_PROB:
        raise ZeroProbabilityOutcomeError(f"outcome {outcome} has probability {p!r}")
    a = linalg.principal_sqrt(m)
    return DensityMatrix(a @ rho.matrix @ linalg.dag(a) / p)


def _check_identify_bijection(ensemble: Ensemble, povm: Povm) -> dict[int, int]:
    """Map state index -> outcome index over the Identify labels."""
    mapping: dict[int, int] = {}
    for x, lab in enumerate(povm.labels):
        if not lab.is_identify:
            continue
        if lab.index >= len(ensemble):
            raise LabelMismatchError(
                f"label identifies state {lab.index}, ensemble has {len(ensemble)}"
            )
        if lab.index in mapping:
            raise LabelMismatchError(f"state {lab.index} identified by two outcomes")
        mapping[lab.index] = x
    if len(mapping) != len(ensemble):
        missing = sorted(set(range(len(ensemble))) - set(mapping))
        raise LabelMismatchError(f"no identifying outcome for states {missing}")
    return mapping


def pure_confusion(vectors, povm: Povm) -> np.ndarray:
    """Confusion matrix ``conf[i, x] = <w_i|M_x|w_i>`` of pure states.

    ``vectors`` is an ``(n, dim)`` stack of state vectors.  Each norm must
    be 1 within ``TOL_NORM``; each entry must lie in [0, 1] within
    ``TOL_PROB`` and is then clamped; each row must sum to 1 within
    ``TOL_COMPLETE``.
    """
    w = np.asarray(vectors, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] != povm.dim:
        raise DimensionMismatchError(
            f"POVM dim {povm.dim} vs state vectors of shape {w.shape}"
        )
    # Each test is written so that NaN fails it.
    norms = np.linalg.norm(w, axis=1)
    if not np.abs(norms - 1.0).max() <= TOL_NORM:
        raise InvariantViolationError(f"state norms {norms!r} differ from 1")
    conf = np.einsum("id,xde,ie->ix", w.conj(), np.array(povm.elements), w).real
    for extreme in (conf.min(), conf.max()):
        clamp_probability(float(extreme), "probability", TOL_PROB)
    conf = np.clip(conf, 0.0, 1.0)
    sums = conf.sum(axis=1)
    if not np.abs(sums - 1.0).max() <= TOL_COMPLETE:
        raise InvariantViolationError(f"outcome probabilities sum to {sums!r}")
    return conf


def confusion_matrix(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Matrix with entry (i, x) = Tr(M_x |u_i><u_i|); rows sum to 1."""
    return pure_confusion([s.amplitudes for s in ensemble.states], povm)


def success_ambiguous(ensemble: Ensemble, povm: Povm) -> float:
    """Success probability when every outcome names a state.

    ``sum_i p_i Tr(M_{x(i)} rho_i)`` with x(i) the outcome identifying
    state i.  All labels must be Identify and form a bijection with the
    ensemble.
    """
    if any(not lab.is_identify for lab in povm.labels):
        raise LabelMismatchError("ambiguous-form success requires all-Identify labels")
    mapping = _check_identify_bijection(ensemble, povm)
    conf = confusion_matrix(ensemble, povm)
    total = sum(
        ensemble.priors[i] * conf[i, mapping[i]] for i in range(len(ensemble))
    )
    return clamp_probability(float(total), "success probability", TOL_PROB)


def unambiguity_check(ensemble: Ensemble, povm: Povm) -> tuple[bool, float]:
    """Verify that identifying outcomes never fire on the wrong state.

    Returns ``(ok, max_cross_term)`` where the cross terms are
    ``Tr(M_{x(j)} rho_i)`` for i != j.  ``ok`` also requires every
    diagonal term ``Tr(M_{x(i)} rho_i)`` to exceed ``TOL_UNAMBIGUOUS``.
    """
    mapping = _check_identify_bijection(ensemble, povm)
    conf = confusion_matrix(ensemble, povm)
    worst = 0.0
    ok = True
    for i in range(len(ensemble)):
        for j, x in mapping.items():
            if j == i:
                continue
            worst = max(worst, abs(float(conf[i, x])))
    if worst > TOL_UNAMBIGUOUS:
        ok = False
    for i, x in mapping.items():
        if float(conf[i, x]) <= TOL_UNAMBIGUOUS:
            ok = False
    return ok, worst


def success_unambiguous(ensemble: Ensemble, povm: Povm) -> float:
    """Success probability of an unambiguous measurement.

    Requires exactly one inconclusive outcome and a passing
    :func:`unambiguity_check`.  Computed directly as
    ``sum_i p_i Tr(M_{x(i)} rho_i)`` and cross-checked against
    ``1 - sum_i p_i Tr(M_fail rho_i)``.
    """
    fails = [x for x, lab in enumerate(povm.labels) if not lab.is_identify]
    if len(fails) != 1:
        raise LabelMismatchError(
            f"expected exactly one inconclusive outcome, found {len(fails)}"
        )
    ok, worst = unambiguity_check(ensemble, povm)
    if not ok:
        raise NotUnambiguousError(f"max cross term {worst:.3e}")
    mapping = _check_identify_bijection(ensemble, povm)
    conf = confusion_matrix(ensemble, povm)
    direct = sum(
        ensemble.priors[i] * conf[i, mapping[i]] for i in range(len(ensemble))
    )
    complement = 1.0 - sum(
        ensemble.priors[i] * conf[i, fails[0]] for i in range(len(ensemble))
    )
    if abs(direct - complement) > 1e-10:
        raise InvariantViolationError(
            f"direct and complement success forms differ by {abs(direct - complement):.3e}"
        )
    return clamp_probability(float(direct), "success probability", TOL_PROB)


def bayes_posterior(
    ensemble: Ensemble, povm: Povm, outcome: int, state_index: int
) -> float:
    """Posterior probability of ``state_index`` given ``outcome``."""
    if not 0 <= outcome < povm.n_outcomes:
        raise LabelMismatchError(f"outcome {outcome} not in [0, {povm.n_outcomes})")
    if not 0 <= state_index < len(ensemble):
        raise LabelMismatchError(f"state index {state_index} out of range")
    conf = confusion_matrix(ensemble, povm)
    marginal = float(ensemble.priors @ conf[:, outcome])
    if marginal <= TOL_ZERO_PROB:
        raise ZeroProbabilityOutcomeError(f"outcome {outcome} has probability {marginal!r}")
    return float(ensemble.priors[state_index] * conf[state_index, outcome] / marginal)
