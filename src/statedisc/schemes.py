"""Discrimination schemes: explicit ancilla couplings plus labeled POVMs.

A scheme bundles an ensemble of system states, an ancilla dimension, a
joint unitary that couples system and ancilla, a labeled POVM on the
joint space, and the closed-form success probability.  Construction
verifies the closed form against the measurement pipeline, so a scheme
that exists is a scheme whose formula is numerically honest.

Builders
--------
``build_rra``                 two states, qubit ancilla, unambiguous
``build_mixed_special``       three states (two mutually orthogonal, both
                              overlapping a third), qubit ancilla; two
                              outcomes unambiguous, one ambiguous, one
                              inconclusive-but-informative
``build_mixed_general``       same geometry with the first pair's overlap
                              freed to a second parameter
``build_unambiguous_special`` fully unambiguous family over the same
                              states, parameterized by failure amplitudes
``build_zero_aux``            ancilla-free projective variant available
                              when the overlaps satisfy a cyclic
                              consistency condition

The four coupled builders share one flagged-ancilla recipe (the layout of
Roa, Retamal and Alid-Vaccarezza, PRL 107, 080401, 2011).  A builder
validates its parameters and supplies the ensemble, the domain vectors and
each image's system parts with the ancilla in |0> and |1>, all in system
space, the closed form, and one of three POVMs made at import.  In each,
outcome k is an identifying vector k with the ancilla in |0> and the
ancilla in |1> flags the inconclusive outcome.  The recipe embeds the
images, completes domain -> images to the coupling, and returns the
validated scheme.

``SCHEME_KINDS`` is the one table of these kinds.  Each kind's inputs,
their types and whether it takes ``allow_trivial`` are read off its
builder's signature, so a builder states them once; the command line and
the JSON codec derive everything they know about a kind from the table.
"""
from __future__ import annotations

import functools
import inspect
import operator
from dataclasses import dataclass, field
from typing import Callable, Union, get_type_hints

import numpy as np

from . import linalg, measurement, tol
from .analysis import XU_CASES, _reference_point
from .errors import (
    AmplitudeOutOfRangeError,
    DimensionMismatchError,
    GammaOutOfRangeError,
    GramNotPsdError,
    HypothesisViolatedError,
    InfeasibleAmplitudesError,
    InvariantViolationError,
    OverlapConstraintViolatedError,
    ParamOutOfRangeError,
    ZeroProbabilityOutcomeError,
)
from .measurement import OutcomeLabel, Povm
from .states import (
    _HALF_SQRT2,
    Ensemble,
    Ket,
    _freeze,
    ensemble_density,
    states_from_gram,
    validate_priors,
)


@dataclass(frozen=True)
class RraParams:
    kind = "rra"
    c_plus: complex
    c_minus: complex


@dataclass(frozen=True)
class MixedSpecialParams:
    kind = "mixed-special"
    gamma: float


@dataclass(frozen=True)
class MixedGeneralParams:
    kind = "mixed-general"
    gamma: float
    alpha: float


@dataclass(frozen=True)
class UnambiguousSpecialParams:
    kind = "unambiguous-special"
    gamma: float
    x0: float
    x1: float


@dataclass(frozen=True)
class ZeroAuxParams:
    kind = "zero-aux"
    g01: complex
    g12: complex
    g20: complex


SchemeParams = Union[RraParams, MixedSpecialParams, MixedGeneralParams,
                     UnambiguousSpecialParams, ZeroAuxParams]


@dataclass(frozen=True, eq=False)
class Scheme:
    """Validated discrimination scheme on ``system (x) ancilla``.

    Construction runs the measurement pipeline once, on the coupling and the
    POVM, and keeps its read-only ``confusion`` matrix, the
    ``pipeline_success`` read off it and the ``unitarity_residual``.
    """

    ensemble: Ensemble
    ancilla_dim: int
    coupling: np.ndarray
    povm: Povm
    analytic_success: float
    params: SchemeParams
    branch_note: str = ""
    confusion: np.ndarray = field(init=False, repr=False)
    pipeline_success: float = field(init=False, repr=False)
    unitarity_residual: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.ancilla_dim < 1:
            raise DimensionMismatchError(f"ancilla dim {self.ancilla_dim} < 1")
        u = linalg.as_complex(self.coupling, 2)
        joint = self.ensemble.dim * self.ancilla_dim
        if u.shape != (joint, joint):
            raise DimensionMismatchError(
                f"coupling shape {u.shape}, expected {(joint, joint)}"
            )
        if self.povm.dim != joint:
            raise DimensionMismatchError(
                f"POVM dim {self.povm.dim}, joint space dim {joint}"
            )
        res = linalg.frobenius(linalg.dag(u) @ u - np.eye(joint))
        if res > tol.UNITARY:
            raise InvariantViolationError(f"coupling unitarity residual {res:.3e}")
        if not -tol.BOUNDARY <= self.analytic_success <= 1.0 + tol.BOUNDARY:
            raise InvariantViolationError(
                f"analytic success {self.analytic_success!r} outside [0, 1]"
            )
        object.__setattr__(self, "coupling", u)
        object.__setattr__(self, "unitarity_residual", res)
        u.setflags(write=False)

        # Closed form must match the measurement pipeline on the spot.
        conf = measurement.pure_confusion(_coupled_vectors(self), self.povm)
        identify = measurement._identify_outcomes(self.povm, len(conf))
        terms = zip(self.ensemble.priors.tolist(), conf.tolist(), identify.tolist())
        # Added in state order: the float64 products and sums, in Python.
        total = functools.reduce(operator.add, [p * row[x] for p, row, x in terms])
        if not abs(total - self.analytic_success) <= tol.PIPELINE:  # NaN fails
            raise InvariantViolationError(
                f"pipeline success {total!r} vs analytic {self.analytic_success!r}"
            )
        conf.setflags(write=False)
        object.__setattr__(self, "confusion", conf)
        object.__setattr__(self, "pipeline_success", total)


def _coupled_vectors(scheme: Scheme) -> np.ndarray:
    """Rows ``U (u_i (x) |0>)``: the states times U's ancilla-|0> columns."""
    return (scheme.coupling[:, :: scheme.ancilla_dim] @ scheme.ensemble.states.T).T


def coupled_ensemble(scheme: Scheme) -> Ensemble:
    """The coupled states as an ensemble on the joint space."""
    return Ensemble(_coupled_vectors(scheme), scheme.ensemble.priors)


def scheme_confusion(scheme: Scheme) -> np.ndarray:
    """Confusion matrix (state x outcome) that the constructor computed
    from the coupling and the POVM; ``analytic_success`` is never read."""
    return scheme.confusion


def _proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, np.conj(vec))


#: e0, e1, e2 of C^3, and |+>, |-> in its first two coordinates, read-only;
#: the first two entries of each are the C^2 vector of that name.
_E0, _E1, _E2 = _freeze(np.eye(3, dtype=np.complex128))
_PLUS, _MINUS = _freeze(_HALF_SQRT2 * np.array([_E0 + _E1, _E0 - _E1]))


def _flagged_povm(*identify: np.ndarray) -> Povm:
    """The flagged recipe's POVM for these identifying vectors.  Outcome k
    projects the system onto vector k with the ancilla in |0>; the last,
    ``inconclusive``, is the ancilla in |1>.  It keeps kron for the ``-0.0``
    that ``dump`` prints."""
    flag0, flag1 = _proj(_E0[:2]), _proj(_E1[:2])
    elements = [np.kron(_proj(vec), flag0) for vec in identify]
    labels = [OutcomeLabel.identify(k) for k in range(len(identify))]
    return Povm(
        (*elements, np.kron(np.eye(len(identify[0])), flag1)),
        (*labels, OutcomeLabel.inconclusive()),
    )


#: The flagged recipe's three layouts: rra's |+>, |-> in C^2, the mixed
#: schemes' |+>, |->, e2 and the unambiguous family's e0, e1, e2.
_RRA_POVM = _flagged_povm(_PLUS[:2], _MINUS[:2])
_MIXED_POVM = _flagged_povm(_PLUS, _MINUS, _E2)
_UNAMBIGUOUS_POVM = _flagged_povm(_E0, _E1, _E2)


def _flagged_scheme(
    ensemble: Ensemble, domain, images, povm: Povm, analytic: float,
    params: SchemeParams, branch_note: str = "",
) -> Scheme:
    """The flagged-ancilla recipe shared by the four coupled builders.

    The coupling sends each system vector ``domain[k]``, with the ancilla
    in |0>, to ``a0 (x) |0> + a1 (x) |1>`` for ``(a0, a1) = images[k]`` (a
    branch may be 0); ``povm`` is the layout of :func:`_flagged_povm` whose
    identifying vectors the images use.
    """
    dim = ensemble.dim
    # pairs[0, k] and pairs[1, k] are domain[k] and images[k] in kron's layout.
    pairs = np.zeros((2, len(images), dim, 2), dtype=np.complex128)
    for k, (d, (a0, a1)) in enumerate(zip(domain, images)):
        pairs[0, k, :, 0] = d
        pairs[1, k, :, 0], pairs[1, k, :, 1] = a0, a1
    pairs = pairs.reshape(2, len(images), 2 * dim)
    u = linalg.isometry_completion(pairs[0], pairs[1], 2 * dim)
    return Scheme(ensemble, 2, u, povm, analytic, params, branch_note)


def _snapped_sqrt(r2: float) -> float:
    """``sqrt(r2)`` for ``r2 = 1 - |c|^2``, but 0 when ``r2 <= tol.SNAP``: at
    ``|c| = 1`` a rounding of 1e-16 would leave a 1e-8 component."""
    return np.sqrt(r2) if r2 > tol.SNAP else 0.0


def _rra_kets(overlap: float) -> tuple[Ket, Ket]:
    """Qubit pair with real inner product ``overlap``, symmetric about |0>."""
    overlap = float(overlap)
    if not -1.0 <= overlap <= 1.0:
        raise ParamOutOfRangeError(f"overlap {overlap!r} outside [-1, 1]")
    c = np.sqrt((1.0 + overlap) / 2.0)
    s = np.sqrt((1.0 - overlap) / 2.0)
    return Ket(np.array([c, s])), Ket(np.array([c, -s]))


def build_rra(
    psi_plus: Ket,
    psi_minus: Ket,
    priors,
    c_plus: complex,
    c_minus: complex,
) -> Scheme:
    """Unambiguous two-state scheme on a qubit plus qubit ancilla.

    The failure amplitudes must satisfy ``conj(c_plus) * c_minus =
    <psi_minus|psi_plus>``; the joint unitary sends each input to an
    identifying branch in the +/- basis with the ancilla left in |0>,
    plus a failure branch flagged by the ancilla in |1>.  Success is
    ``1 - p_plus |c_plus|^2 - p_minus |c_minus|^2``.
    """
    if psi_plus.dim != 2 or psi_minus.dim != 2:
        raise DimensionMismatchError("two-state scheme requires qubit inputs")
    p = validate_priors(priors, 2)
    c_plus = complex(c_plus)
    c_minus = complex(c_minus)
    for name, c in (("c_plus", c_plus), ("c_minus", c_minus)):
        if not abs(c) <= 1.0 + tol.BOUNDARY:
            raise AmplitudeOutOfRangeError(f"|{name}| = {abs(c)!r} exceeds 1")
    overlap = complex(np.conj(psi_minus.amplitudes) @ psi_plus.amplitudes)
    if not abs(np.conj(c_plus) * c_minus - overlap) <= tol.OVERLAP:
        raise OverlapConstraintViolatedError(
            f"conj(c_plus)*c_minus = {complex(np.conj(c_plus) * c_minus)!r} "
            f"but <psi_minus|psi_plus> = {overlap!r}"
        )

    fail = _E0[:2]  # a failure leaves the system in |0>
    plus, minus = _PLUS[:2], _MINUS[:2]
    images = [
        (_snapped_sqrt(1.0 - abs(c_plus) ** 2) * plus, c_plus * fail),
        (_snapped_sqrt(1.0 - abs(c_minus) ** 2) * minus, c_minus * fail),
    ]
    analytic = 1.0 - p[0] * abs(c_plus) ** 2 - p[1] * abs(c_minus) ** 2
    ens = Ensemble((psi_plus.amplitudes, psi_minus.amplitudes), p)
    return _flagged_scheme(
        ens, ens.states, images, _RRA_POVM,
        analytic, RraParams(c_plus=c_plus, c_minus=c_minus),
    )


@dataclass(frozen=True)
class XuResult:
    """Piecewise maximum of unambiguous success for symmetric overlaps.

    ``permutation`` maps positions of the internally sorted priors back to
    the caller's order: ``sorted_priors[k] == priors[permutation[k]]``.
    """

    value: float
    case: str
    permutation: tuple[int, int, int]


def xu_max_unambiguous(gamma: float, priors) -> XuResult:
    """Best unambiguous success for three states with equal overlaps.

    The priors are sorted ascending internally (p0 <= p1 <= p2); the four
    regimes are checked in order and the first match wins.  When the two
    largest priors coincide the regime thresholds diverge and the value
    ``1 - gamma`` is returned with case tag ``"1-limit"``.  The closed form
    is the theorem 3.1 reference of :func:`analysis.compare_columns`, called
    for one point.
    """
    point = _reference_point("3.1", gamma, priors)
    # The kernel has validated the priors as three finite values.
    perm = np.argsort(np.asarray(priors, dtype=float).reshape(-1), kind="stable")
    return XuResult(
        float(point.reference[0]),
        XU_CASES[point.xu_case[0]],
        tuple(int(i) for i in perm),
    )


def _three_state_gram(g01: complex, g12: complex, g20: complex) -> np.ndarray:
    """Overlaps ``g01 = <u0|u1>``, ``g12 = <u1|u2>``, ``g20 = <u2|u0>``."""
    return np.array(
        [
            [1.0, g01, np.conj(g20)],
            [np.conj(g01), 1.0, g12],
            [g20, np.conj(g12), 1.0],
        ],
        dtype=np.complex128,
    )


def _mixed_amplitudes(c2: complex) -> tuple[complex, float]:
    """Interference amplitude ``c = sqrt(c2)`` and +/- amplitude ``r``.

    ``r = sqrt(1 - |c|^2)`` by :func:`_snapped_sqrt`.  The mixed coupling
    and :func:`separable_decomposition` both take the degenerate branch
    from here, so they cannot disagree on it.
    """
    c = np.sqrt(np.complex128(c2))
    return c, _snapped_sqrt(1.0 - abs(c) ** 2)


def _mixed_scheme(
    ensemble: Ensemble, gamma: float, c2: complex, analytic: float,
    params: SchemeParams, branch_note: str = "",
) -> Scheme:
    """The flagged recipe for the mixed three-state schemes.

    Splits each of the first two states into the component along the
    third plus an orthogonal remainder, then maps the remainders to +/-
    branches whose ancilla-|1> interference term carries ``c = sqrt(c2)``.
    Outcomes: +, -, and the third state, each with the ancilla in |0>.
    """
    u0, u1, u2 = ensemble.states
    scale = np.sqrt(1.0 - gamma**2)
    psi0 = (u0 - gamma * u2) / scale
    psi1 = (u1 - gamma * u2) / scale
    c, r = _mixed_amplitudes(c2)
    domain = [u2, psi0, psi1]
    images = [(_E2, 0.0), (r * _PLUS, np.conj(c) * _E1), (r * _MINUS, c * _E1)]
    if r == 0.0:
        # |c| = 1 makes psi1 a multiple of psi0 (and its image of psi0's),
        # so only the independent pair is pinned; linearity carries the rest.
        domain, images = domain[:2], images[:2]
    return _flagged_scheme(
        ensemble, domain, images, _MIXED_POVM, analytic, params, branch_note
    )


def build_mixed_special(gamma: float, priors, allow_trivial: bool = False) -> Scheme:
    """Mixed scheme for two orthogonal states both overlapping a third.

    Overlaps: ``<u2|u0> = <u2|u1> = gamma`` (real, ``0 < |gamma| <=
    1/sqrt(2)``), ``<u0|u1> = 0``.  Outcomes 0 and 1 identify u0 and u1
    unambiguously, outcome 2 identifies u2 but can be triggered by the
    others, and the inconclusive outcome never fires on u2.  Success is
    ``1 - 2 gamma^2 (1 - p2)``.

    ``allow_trivial`` admits the boundary value ``gamma = 0``.
    """
    gamma = float(gamma)
    p = validate_priors(priors, 3)
    if gamma == 0.0 and not allow_trivial:
        raise GammaOutOfRangeError("gamma = 0 is degenerate (pass allow_trivial)")
    if not abs(gamma) <= _HALF_SQRT2 + tol.BOUNDARY:
        raise GammaOutOfRangeError(
            f"|gamma| = {abs(gamma)!r} exceeds 1/sqrt(2); overlaps not realizable"
        )
    ens = states_from_gram(_three_state_gram(0.0, gamma, gamma), p)
    c2 = -(gamma**2) / (1.0 - gamma**2)
    analytic = 1.0 - 2.0 * gamma**2 * (1.0 - p[2])
    return _mixed_scheme(ens, gamma, c2, analytic, MixedSpecialParams(gamma=gamma))


def build_mixed_general(
    gamma: float, alpha: float, priors, allow_trivial: bool = False
) -> Scheme:
    """Mixed scheme with the first pair's overlap freed to ``alpha``.

    Overlaps: ``<u2|u0> = <u2|u1> = gamma``, ``<u0|u1> = alpha``, both
    real.  Success is ``1 - (2 gamma^2 - alpha)(1 - p2)`` for
    ``alpha < gamma^2`` and ``1 - alpha (1 - p2)`` otherwise.

    ``allow_trivial`` admits the boundary values ``gamma = 0``,
    ``alpha = 0`` and ``alpha = 1``; ``|gamma| = 1`` is always rejected
    because the construction divides by ``1 - gamma^2``, and so is any
    gamma close enough to 1 that this division loses the conditioning the
    coupling needs (about ``|gamma| > 0.99997``), or alpha close enough to
    either end of ``[2 gamma^2 - 1, 1]`` that the first two states' near
    dependence does (within about 1e-9, more as ``|gamma|`` grows).
    """
    gamma = float(gamma)
    alpha = float(alpha)
    p = validate_priors(priors, 3)
    if not abs(gamma) < 1.0:
        raise ParamOutOfRangeError(f"|gamma| = {abs(gamma)!r} must be < 1")
    if not allow_trivial:
        if gamma == 0.0:
            raise GammaOutOfRangeError("gamma = 0 is degenerate (pass allow_trivial)")
        if alpha in (0.0, 1.0):
            raise ParamOutOfRangeError(
                f"alpha = {alpha!r} is a boundary value (pass allow_trivial)"
            )
    if not abs(alpha) <= 1.0 + tol.BOUNDARY:
        raise GramNotPsdError(f"|alpha| = {abs(alpha)!r} exceeds 1")
    gram = _three_state_gram(alpha, gamma, gamma)
    w = np.linalg.eigvalsh(gram)
    if w.min() < -tol.PSD:
        raise GramNotPsdError(
            f"overlap matrix eigenvalue {w.min():.3e}; need 1 + alpha >= 2 gamma^2"
        )
    if 1.0 - gamma**2 - abs(alpha - gamma**2) < -tol.BOUNDARY:
        raise ParamOutOfRangeError("identifying amplitude would be imaginary")
    # The coupling's domain divides each state's part orthogonal to u2 by
    # sqrt(1 - gamma^2), which magnifies the synthesized overlaps' error by
    # 1/(1 - gamma^2).  Unless the +/- amplitude snaps to 0, psi1 is also
    # pinned after psi0, whose residual norm sqrt(1 - c^4) divides it again.
    # That error is the roundoff of the synthesis, plus any eigenvalue of
    # the overlap matrix that psd_cholesky drops although it is not zero:
    # 1 - alpha, or (1 + alpha - 2 gamma^2)/w_max.  The roundoff in the
    # coupling's action reached 4 eps w_max over 13,000 draws near
    # |gamma| = 1, and 3.5 eps w_max over 12,000 near the alpha edges;
    # 8 eps w_max keeps a factor 2 in hand.
    scale = float(w.max())  # >= 1
    exact = (1.0 - alpha, (1.0 + alpha - 2.0 * gamma**2) / scale)
    error = sum(e for e in exact if 0.0 < e < tol.DROP * scale)
    error += tol.ROUNDOFF * scale
    c2 = (alpha - gamma**2) / (1.0 - gamma**2)
    pair = np.sqrt(1.0 - c2**2) if _mixed_amplitudes(c2)[1] > 0.0 else 1.0
    if error > tol.ACTION * (1.0 - gamma**2) * pair:
        over = "(1 - gamma^2) sqrt(1 - c^4)" if pair < 1.0 else "1 - gamma^2"
        raise ParamOutOfRangeError(
            f"conditioning lost: synthesis error {error:.3e} over "
            f"{over} = {(1.0 - gamma**2) * pair:.3e} exceeds {tol.ACTION}"
        )
    if alpha >= gamma**2:
        analytic = 1.0 - alpha * (1.0 - p[2])
        note = "alpha >= gamma^2: success = 1 - alpha*(1 - p2)"
    else:
        analytic = 1.0 - (2.0 * gamma**2 - alpha) * (1.0 - p[2])
        note = "alpha < gamma^2: success = 1 - (2*gamma^2 - alpha)*(1 - p2)"
    ens = states_from_gram(gram, p)
    params = MixedGeneralParams(gamma=gamma, alpha=alpha)
    return _mixed_scheme(ens, gamma, c2, analytic, params, note)


def build_unambiguous_special(gamma: float, x0: float, x1: float, priors) -> Scheme:
    """Fully unambiguous family over the mixed-special geometry.

    ``x0, x1`` are failure probabilities for the first two states; the
    third state's identifying amplitude follows from the overlap
    constraint, giving success ``1 - p0 x0 - p1 x1 - p2 gamma^2 (1/x0 +
    1/x1)``.  Requires ``x_i in [gamma^2, 1]`` and
    ``gamma^2 (1/x0 + 1/x1) <= 1``.
    """
    gamma = float(gamma)
    x0 = float(x0)
    x1 = float(x1)
    p = validate_priors(priors, 3)
    if not abs(gamma) <= _HALF_SQRT2 + tol.BOUNDARY:
        raise GammaOutOfRangeError(f"|gamma| = {abs(gamma)!r} exceeds 1/sqrt(2)")
    g2 = gamma**2
    for name, x in (("x0", x0), ("x1", x1)):
        # A failure probability is never negative, whatever the slack.
        if not max(0.0, g2 - tol.BOUNDARY) <= x <= 1.0 + tol.BOUNDARY:
            raise InfeasibleAmplitudesError(
                f"{name} = {x!r} outside [gamma^2, 1] = [{g2!r}, 1]"
            )
    penalty = 0.0
    for x in (x0, x1):
        if x > 0.0:
            penalty += g2 / x
        elif g2 > 0.0:
            raise InfeasibleAmplitudesError("zero failure amplitude with gamma != 0")
    if penalty > 1.0 + tol.BOUNDARY:
        raise InfeasibleAmplitudesError(
            f"gamma^2 (1/x0 + 1/x1) = {penalty!r} exceeds 1"
        )

    ens = states_from_gram(_three_state_gram(0.0, gamma, gamma), p)
    a0 = np.sqrt(x0)
    a1 = np.sqrt(x1)
    ap0 = gamma / a0 if x0 > 0.0 else 0.0
    ap1 = gamma / a1 if x1 > 0.0 else 0.0
    images = [
        (np.sqrt(max(0.0, 1.0 - x0)) * _E0, a0 * _E0),
        (np.sqrt(max(0.0, 1.0 - x1)) * _E1, a1 * _E1),
        (np.sqrt(max(0.0, 1.0 - ap0**2 - ap1**2)) * _E2, ap0 * _E0 + ap1 * _E1),
    ]
    analytic = 1.0 - p[0] * x0 - p[1] * x1 - p[2] * (ap0**2 + ap1**2)
    return _flagged_scheme(
        ens, ens.states, images, _UNAMBIGUOUS_POVM,
        analytic, UnambiguousSpecialParams(gamma=gamma, x0=x0, x1=x1),
    )


def _check_zero_aux_moduli(g12: complex, g20: complex):
    for name, g in (("g12", g12), ("g20", g20)):
        if not abs(g) < 1.0:
            raise OverlapConstraintViolatedError(f"|{name}| = {abs(g)!r} must be < 1")


def zero_aux_posterior(g12: complex, g20: complex, priors) -> float:
    """Posterior probability of state 2 given the outcome labeled 2."""
    p = validate_priors(priors, 3)
    _check_zero_aux_moduli(g12, g20)
    denom = p[0] * abs(g20) ** 2 + p[1] * abs(g12) ** 2 + p[2]
    if denom <= tol.ZERO_PROB:
        raise ZeroProbabilityOutcomeError("outcome 2 has zero probability")
    return float(p[2] / denom)


def build_zero_aux(g01: complex, g12: complex, g20: complex, priors) -> Scheme:
    """Ancilla-free projective scheme for cyclically consistent overlaps.

    Overlap convention: ``g01 = <u0|u1>``, ``g12 = <u1|u2>``,
    ``g20 = <u2|u0>``; the construction requires ``conj(g12 * g20) =
    g01``.  Removing each state's component along u2 leaves two
    orthonormal vectors, and measuring in the basis they define
    identifies u0 and u1 without error.  The third outcome is ambiguous;
    its posterior for u2 is ``p2 / (p0 |g20|^2 + p1 |g12|^2 + p2)``.

    The removal divides by ``1 - |g|^2``, so overlaps close enough to
    modulus 1 that it loses the conditioning the measurement needs (about
    ``|g| > 0.99997``) are rejected, and so is a constraint residual that
    it would lift above ``tol.ORTHOGONAL``.
    """
    g01 = complex(g01)
    g12 = complex(g12)
    g20 = complex(g20)
    p = validate_priors(priors, 3)
    _check_zero_aux_moduli(g12, g20)
    if not abs(np.conj(g12 * g20) - g01) <= tol.OVERLAP:
        raise OverlapConstraintViolatedError(
            f"conj(g12*g20) = {(g12 * g20).conjugate()!r} differs from g01 = {g01!r}"
        )
    gram = _three_state_gram(g01, g12, g20)
    w = np.linalg.eigvalsh(gram)
    # psi0 and psi1 divide the parts of u0 and u1 orthogonal to u2 by
    # sqrt(1 - |g20|^2) and sqrt(1 - |g12|^2).  Their overlap is then the
    # constraint's residual over both roots, and the synthesis roundoff
    # lands in their overlap and norms over the smaller 1 - |g|^2: over
    # 20,000 draws near |g| = 1 it reached 4.3 eps w_max, so 8 eps w_max
    # keeps a factor 2 in hand.  No eigenvalue psd_cholesky drops matters:
    # the overlap matrix's determinant is (1 - |g20|^2)(1 - |g12|^2), so its
    # least eigenvalue is below the cutoff only where this gate fails anyway.
    room = (1.0 - abs(g20) ** 2, 1.0 - abs(g12) ** 2)
    roundoff = tol.ROUNDOFF * float(w.max())
    residual = abs(np.conj(g12 * g20) - g01)
    error = residual / np.sqrt(room[0] * room[1]) + roundoff / min(room)
    if error > tol.ORTHOGONAL:
        raise ParamOutOfRangeError(
            f"conditioning lost: overlap error {error:.3e} of the measurement "
            f"vectors, at 1 - |g|^2 = {min(room):.3e}, exceeds {tol.ORTHOGONAL}"
        )
    ens = states_from_gram(gram, p)
    u0, u1, u2 = ens.states
    psi0 = (u0 - g20 * u2) / np.sqrt(room[0])
    psi1 = (u1 - np.conj(g12) * u2) / np.sqrt(room[1])
    if abs(np.conj(psi0) @ psi1) > tol.ORTHOGONAL:
        raise InvariantViolationError("measurement vectors failed to orthogonalize")

    pi0 = _proj(psi0)
    pi1 = _proj(psi1)
    labels = tuple(map(OutcomeLabel.identify, range(3)))
    povm = Povm((pi0, pi1, np.eye(3) - pi0 - pi1), labels)
    analytic = float(p[0] * room[0] + p[1] * room[1] + p[2])
    posterior = zero_aux_posterior(g12, g20, p)
    return Scheme(
        ensemble=ens,
        ancilla_dim=1,
        coupling=np.eye(3, dtype=np.complex128),
        povm=povm,
        analytic_success=analytic,
        params=ZeroAuxParams(g01=g01, g12=g12, g20=g20),
        branch_note=f"posterior(state 2 | outcome 2) = {posterior:.12g}",
    )


def _build_rra_from_overlap(
    overlap: float, c_plus: complex, c_minus: complex, priors
) -> Scheme:
    """``build_rra`` on the qubit pair whose inner product is ``overlap``."""
    return build_rra(*_rra_kets(overlap), priors, c_plus, c_minus)


@dataclass(frozen=True)
class SchemeKind:
    """What the command line and the JSON codec need to know about a kind.

    The builder's signature states the rest, read once here: ``inputs``
    are its parameters before ``priors``, ``types`` their type hints, and
    ``trivial`` whether it takes ``allow_trivial``, which admits boundary
    values.  ``sweepable`` are the inputs a sweep may vary.
    """

    params: type
    n_priors: int
    builder: Callable[..., Scheme]
    sweepable: tuple[str, ...] = ()
    inputs: tuple[str, ...] = field(init=False)
    types: dict[str, type] = field(init=False)
    trivial: bool = field(init=False)

    def __post_init__(self):
        names = list(inspect.signature(self.builder).parameters)
        inputs = tuple(names[: names.index("priors")])
        hints = get_type_hints(self.builder)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "types", {k: hints[k] for k in inputs})
        object.__setattr__(self, "trivial", "allow_trivial" in names)

    def build(self, values: dict, priors, allow_trivial: bool) -> Scheme:
        """The builder on ``values`` in input order, then ``priors``."""
        trivial = {"allow_trivial": allow_trivial} if self.trivial else {}
        return self.builder(*(values[k] for k in self.inputs), priors, **trivial)


#: Every scheme kind, keyed by its params ``kind`` tag.
SCHEME_KINDS: dict[str, SchemeKind] = {
    RraParams.kind: SchemeKind(RraParams, 2, _build_rra_from_overlap),
    MixedSpecialParams.kind: SchemeKind(
        MixedSpecialParams, 3, build_mixed_special, ("gamma",)
    ),
    MixedGeneralParams.kind: SchemeKind(
        MixedGeneralParams, 3, build_mixed_general, ("gamma", "alpha")
    ),
    UnambiguousSpecialParams.kind: SchemeKind(
        UnambiguousSpecialParams, 3, build_unambiguous_special, ("gamma", "x0", "x1")
    ),
    ZeroAuxParams.kind: SchemeKind(ZeroAuxParams, 3, build_zero_aux),
}


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Two-term product decomposition of a mixed scheme's output state.

    ``weight`` multiplies the second term; the reconstruction is
    ``(1 - weight) * part_system (x) |0a><0a| + weight * |1><1| (x)
    part_ancilla``.  The ancilla part is returned as a raw Hermitian
    matrix with its spectrum, which may contain a negative eigenvalue:
    the identity holds as operators either way.
    """

    weight: float
    part_system: np.ndarray
    part_ancilla: np.ndarray
    reconstruction_residual: float
    ancilla_part_spectrum: np.ndarray


def separable_decomposition(scheme: Scheme) -> SeparableDecomposition:
    """Split the coupled average state into system and ancilla factors.

    Applies to the mixed schemes with equal first two priors.  For the
    general geometry the pair overlap must satisfy ``alpha < gamma^2``;
    at or above that boundary the second term vanishes or the closed
    form degenerates.
    """
    params = scheme.params
    if isinstance(params, MixedSpecialParams):
        gamma, alpha = params.gamma, 0.0
        mu2 = gamma**2
    elif isinstance(params, MixedGeneralParams):
        gamma, alpha = params.gamma, params.alpha
        mu2 = gamma**2 - alpha
        if mu2 <= 0.0:
            raise HypothesisViolatedError(
                f"alpha = {alpha!r} must lie below gamma^2 = {gamma**2!r}"
            )
    else:
        raise HypothesisViolatedError(
            f"decomposition applies to mixed schemes, not {type(params).__name__}"
        )
    p = scheme.ensemble.priors.tolist()
    if abs(p[0] - p[1]) > tol.EQUAL_PRIORS:
        raise HypothesisViolatedError(f"requires p0 = p1, got {p[0]!r} and {p[1]!r}")
    q = 1.0 - float(p[2])
    if q <= tol.ZERO_PROB:
        raise HypothesisViolatedError("p2 = 1 leaves an empty ancilla part")

    b2 = max(0.0, 1.0 + alpha - 2.0 * gamma**2)
    # Where the coupling snapped its +/- amplitude to zero, so does this.
    if _mixed_amplitudes((alpha - gamma**2) / (1.0 - gamma**2))[1] == 0.0:
        b2 = 0.0
    weight = q * mu2
    cross = np.outer(_E0, np.conj(_E2)) + np.outer(_E2, np.conj(_E0))
    sys_part = (
        0.5 * q * b2 * (_proj(_PLUS) + _proj(_MINUS))
        + (q * gamma**2 + float(p[2])) * _proj(_E2)
        + _HALF_SQRT2 * q * gamma * np.sqrt(b2) * cross
    ) / (1.0 - weight)

    z = np.sqrt(np.complex128((alpha - gamma**2) * b2))
    e0a, e1a = _E0[:2], _E1[:2]
    anc_part = (
        mu2 * _proj(e1a)
        + _HALF_SQRT2 * z * np.outer(e0a, np.conj(e1a))
        + _HALF_SQRT2 * np.conj(z) * np.outer(e1a, np.conj(e0a))
    ) / mu2
    # The special-geometry closed form carries the prior weight q through
    # both the numerator and the normalization; it cancels, so the single
    # expression above covers both geometries.

    for name, part in (("system", sys_part), ("ancilla", anc_part)):
        tr = float(np.trace(part).real)
        if abs(tr - 1.0) > tol.PART_TRACE:
            raise InvariantViolationError(f"{name} part trace {tr!r} differs from 1")

    rho_pipe = ensemble_density(coupled_ensemble(scheme)).matrix
    recon = (1.0 - weight) * np.kron(sys_part, _proj(e0a))
    recon = recon + weight * np.kron(_proj(_E1), anc_part)
    residual = linalg.frobenius(rho_pipe - recon)
    if residual > tol.DECOMPOSITION:
        raise InvariantViolationError(
            f"decomposition residual {residual:.3e} > {tol.DECOMPOSITION}"
        )

    spectrum = np.linalg.eigvalsh((anc_part + linalg.dag(anc_part)) / 2.0)
    sys_part.setflags(write=False)
    anc_part.setflags(write=False)
    spectrum.setflags(write=False)
    return SeparableDecomposition(
        weight=weight,
        part_system=sys_part,
        part_ancilla=anc_part,
        reconstruction_residual=residual,
        ancilla_part_spectrum=spectrum,
    )
