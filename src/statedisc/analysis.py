"""Inequality checks, the failure-amplitude optimizer, and classicality tests.

The two headline comparisons pit the mixed schemes against the best fully
unambiguous alternative: the coupled-failure family for the two-orthogonal
geometry, and the symmetric-overlap piecewise maximum for equal overlaps.
Each comparison is captured in a :class:`ComparisonRecord` whose verdict is
a plain margin test, so sweeps over parameter grids reduce to counting
false verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    GammaOutOfRangeError,
    InvalidGammaError,
    InvariantViolationError,
    ParamOutOfRangeError,
)
from .measurement import clamp_probability
from .schemes import _HALF_SQRT2, xu_max_unambiguous
from .states import DensityMatrix, validate_priors

#: Margin below which a comparison verdict flips to false.
VERDICT_TOL = 1e-12
#: Commutator norm gate for the projector-commutation test.
TOL_LEFT_CLASSICAL = 1e-10
#: Commutator norm gate for the block-commutation test.
TOL_RIGHT_CLASSICAL = 1e-9


@dataclass(frozen=True)
class ComparisonRecord:
    """One mixed-versus-unambiguous comparison at a fixed parameter point.

    ``margin = p_mixed - p_una_reference``; the verdict is true when the
    margin clears ``-1e-12``.  ``reference_kind`` names what the mixed
    value was compared against: ``"family_optimum"`` (coupled-failure
    family), ``"xu_max"`` (symmetric-overlap piecewise maximum), or
    ``"theorem21_bound"`` (the closed-form ceiling on that family).
    """

    gamma: float
    alpha: Optional[float]
    priors: tuple[float, float, float]
    p_mixed: float
    p_una_reference: float
    reference_kind: str
    margin: float
    verdict: bool

    _KINDS = ("xu_max", "theorem21_bound", "family_optimum")

    def __post_init__(self):
        if self.reference_kind not in self._KINDS:
            raise ParamOutOfRangeError(
                f"reference_kind {self.reference_kind!r} not in {self._KINDS}"
            )
        for what, v in (
            ("p_mixed", self.p_mixed),
            ("p_una_reference", self.p_una_reference),
        ):
            if not -VERDICT_TOL <= v <= 1.0 + VERDICT_TOL:
                raise InvariantViolationError(f"{what} = {v!r} outside [0, 1]")
        if abs(self.margin - (self.p_mixed - self.p_una_reference)) > 1e-12:
            raise InvariantViolationError("margin inconsistent with its operands")
        if self.verdict != (self.margin >= -VERDICT_TOL):
            raise InvariantViolationError("verdict inconsistent with margin")

    @classmethod
    def build(
        cls,
        gamma: float,
        alpha: Optional[float],
        priors,
        p_mixed: float,
        reference_kind: str,
        p_una_reference: float,
    ) -> "ComparisonRecord":
        p = tuple(validate_priors(priors, 3).tolist())
        margin = p_mixed - p_una_reference
        return cls(
            gamma=float(gamma),
            alpha=None if alpha is None else float(alpha),
            priors=p,
            p_mixed=clamp_probability(p_mixed, "p_mixed", VERDICT_TOL),
            p_una_reference=clamp_probability(
                p_una_reference, "p_una_reference", VERDICT_TOL
            ),
            reference_kind=reference_kind,
            margin=margin,
            verdict=bool(margin >= -VERDICT_TOL),
        )


class OptimizeResult(NamedTuple):
    x0: float
    x1: float
    value: float


def _family_value(gamma2: float, p, x0: float, x1: float) -> float:
    return 1.0 - p[0] * x0 - p[1] * x1 - p[2] * gamma2 * (1.0 / x0 + 1.0 / x1)


def optimize_unambiguous_special(
    gamma: float, priors, grid_step: Optional[float] = 1e-3
) -> OptimizeResult:
    """Maximize the coupled-failure family's success probability.

    Objective ``1 - p0 x0 - p1 x1 - p2 g^2 (1/x0 + 1/x1)`` over failure
    probabilities ``x_i in [g^2, 1]`` subject to ``g^2 (1/x0 + 1/x1) <=
    1`` (g = |gamma|).  The objective is concave and the feasible set
    convex, so the separable stationary point ``x_i = g sqrt(p2/p_i)``
    clipped to the box is optimal when feasible; otherwise the optimum is
    projected onto the feasibility boundary in ``t = 1/x`` coordinates.

    ``grid_step`` enables a brute-force cross-check: a grid at that
    resolution must not beat the returned value by more than 1e-5.
    Pass ``None`` to skip (used by high-volume sweeps); the default
    keeps the operation self-validating.
    """
    gamma = float(gamma)
    g = abs(gamma)
    if not 0.0 < g <= _HALF_SQRT2 + 1e-12:
        raise GammaOutOfRangeError(f"|gamma| = {g!r} outside (0, 1/sqrt(2)]")
    p = tuple(validate_priors(priors, 3).tolist())
    g2 = g * g

    def box(v: float) -> float:
        return min(1.0, max(g2, v))

    xs = [box(g * np.sqrt(p[2] / p[i])) if p[i] > 0.0 else 1.0 for i in (0, 1)]
    if g2 * (1.0 / xs[0] + 1.0 / xs[1]) > 1.0:
        # Project onto the boundary g^2 (t0 + t1) = 1 with t = 1/x.
        big_t = 1.0 / g2
        r0, r1 = np.sqrt(p[0]), np.sqrt(p[1])
        if r0 + r1 > 0.0:
            t0 = big_t * r0 / (r0 + r1)
        else:
            t0 = big_t / 2.0
        t0 = min(big_t - 1.0, max(1.0, t0))
        xs = [1.0 / t0, 1.0 / (big_t - t0)]
        xs = [box(x) for x in xs]
    x0, x1 = xs
    value = _family_value(g2, p, x0, x1)

    if grid_step is not None:
        axis = np.arange(g2, 1.0, grid_step)
        axis = np.append(axis, 1.0)
        xx0, xx1 = np.meshgrid(axis, axis, indexing="ij")
        feasible = g2 * (1.0 / xx0 + 1.0 / xx1) <= 1.0 + 1e-12
        if feasible.any():
            vals = (
                1.0
                - p[0] * xx0
                - p[1] * xx1
                - p[2] * g2 * (1.0 / xx0 + 1.0 / xx1)
            )
            best_grid = float(vals[feasible].max())
            if best_grid > value + 1e-5:
                raise InvariantViolationError(
                    f"grid search found {best_grid!r} above optimizer {value!r}"
                )
    return OptimizeResult(x0=float(x0), x1=float(x1), value=float(value))


def theorem21_bound(gamma: float, p2: float) -> float:
    """Closed-form ceiling on the coupled-failure family: 1 - g^2 (1 + p2)."""
    gamma = float(gamma)
    p2 = float(p2)
    if not 0.0 <= p2 <= 1.0:
        raise ParamOutOfRangeError(f"p2 = {p2!r} outside [0, 1]")
    return 1.0 - gamma**2 * (1.0 + p2)


def theorem21_check(
    gamma: float, priors, grid_step: Optional[float] = None
) -> ComparisonRecord:
    """Mixed scheme versus the best fully unambiguous family member.

    For the two-orthogonal geometry: ``p_mixed = 1 - 2 g^2 (1 - p2)``
    against the family optimum.  The comparison is guaranteed in favor of
    the mixed scheme when ``p2 >= 1/3``; records are still produced below
    that threshold and simply carry whatever verdict the margin gives.
    The closed-form ceiling on the reference is available separately as
    :func:`theorem21_bound`.
    """
    gamma = float(gamma)
    if not 0.0 < abs(gamma) <= _HALF_SQRT2 + 1e-12:
        raise GammaOutOfRangeError(
            f"|gamma| = {abs(gamma)!r} outside (0, 1/sqrt(2)]"
        )
    p = tuple(validate_priors(priors, 3).tolist())
    p_mixed = 1.0 - 2.0 * gamma**2 * (1.0 - p[2])
    opt = optimize_unambiguous_special(gamma, p, grid_step=grid_step)
    return ComparisonRecord.build(
        gamma, None, p, p_mixed, "family_optimum", opt.value
    )


def theorem31_check(gamma: float, priors) -> ComparisonRecord:
    """Mixed scheme versus the symmetric-overlap piecewise maximum.

    All three pairwise overlaps equal ``gamma``; the mixed scheme ties the
    pair overlap to it, giving ``p_mixed = 1 - gamma (1 - p2)`` with
    ``p2`` the largest prior.  Priors are sorted ascending and the record
    stores the sorted triple; the reference is the piecewise maximum at
    the same priors.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise InvalidGammaError(f"symmetric overlap {gamma!r} outside [0, 1)")
    p = tuple(sorted(validate_priors(priors, 3).tolist()))
    p_mixed = 1.0 - gamma * (1.0 - p[2])
    reference = xu_max_unambiguous(gamma, p).value
    return ComparisonRecord.build(gamma, gamma, p, p_mixed, "xu_max", reference)


def left_classicality_check(rho_part, projector) -> tuple[bool, float]:
    """Commutation of a state with a projector: ``||[rho, P]||_F <= 1e-10``.

    A block of a joint state commuting with the projector that selects it
    certifies that the correlations are classical on that side.
    """
    rho = linalg.as_cmatrix(rho_part)
    proj = linalg.as_cmatrix(projector)
    residual = linalg.frobenius(linalg.commutator(rho, proj))
    return residual <= TOL_LEFT_CLASSICAL, float(residual)


def right_classicality_check(
    rho, dim_system: int, dim_ancilla: int
) -> tuple[bool, float]:
    """Simultaneous diagonalizability of the ancilla-side blocks.

    Slices the joint state into blocks ``B_mn = (<m| (x) I) rho (|n> (x)
    I)`` over system indices m, n; the state is classical on the ancilla
    side iff every block is normal and all blocks pairwise commute.
    Returns the worst Frobenius violation against the 1e-9 gate.
    """
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    rho = linalg.as_cmatrix(rho)
    if dim_system < 1 or dim_ancilla < 1:
        raise DimensionMismatchError("factor dimensions must be positive")
    if rho.shape != (dim_system * dim_ancilla, dim_system * dim_ancilla):
        raise DimensionMismatchError(
            f"state shape {rho.shape} is not "
            f"({dim_system}*{dim_ancilla}) squared"
        )
    blocks = [
        rho[m * dim_ancilla : (m + 1) * dim_ancilla,
            n * dim_ancilla : (n + 1) * dim_ancilla]
        for m in range(dim_system)
        for n in range(dim_system)
    ]
    worst = 0.0
    for b in blocks:
        worst = max(worst, linalg.frobenius(b @ linalg.dag(b) - linalg.dag(b) @ b))
    for i, b in enumerate(blocks):
        for b2 in blocks[i + 1 :]:
            worst = max(worst, linalg.frobenius(linalg.commutator(b, b2)))
    return worst <= TOL_RIGHT_CLASSICAL, float(worst)


def max_unambiguous_symmetric_grid(
    gamma: float, priors, step: float = 1e-3, refine: bool = True
) -> float:
    """Grid oracle for the symmetric-overlap unambiguous maximum.

    Minimizes ``p0 x0 + p1 x1 + p2 x2`` over failure probabilities whose
    matrix ``[[x0, g, g], [g, x1, g], [g, g, x2]]`` stays PSD, using the
    Schur-complement floor ``x2 >= g^2 (x0 + x1 - 2g) / (x0 x1 - g^2)``
    on a 2-d grid over (x0, x1), optionally refined near the coarse
    argmin at 1/100 of the step.  Independent of the piecewise formula;
    used to cross-check it.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise InvalidGammaError(f"symmetric overlap {gamma!r} outside [0, 1)")
    if step <= 0.0:
        raise ParamOutOfRangeError(f"grid step {step!r} must be positive")
    p = tuple(validate_priors(priors, 3).tolist())
    if gamma == 0.0:
        return 1.0

    def best_cost(lo0, hi0, lo1, hi1, h) -> tuple[float, float, float]:
        a0 = np.arange(max(lo0, h), min(hi0, 1.0) + h / 2.0, h)
        a1 = np.arange(max(lo1, h), min(hi1, 1.0) + h / 2.0, h)
        a0 = np.minimum(a0, 1.0)
        a1 = np.minimum(a1, 1.0)
        xx0, xx1 = np.meshgrid(a0, a1, indexing="ij")
        prod = xx0 * xx1
        open_mask = prod > gamma**2 + 1e-15
        denom = np.where(open_mask, prod - gamma**2, 1.0)
        x2 = gamma**2 * (xx0 + xx1 - 2.0 * gamma) / denom
        feasible = open_mask & (x2 <= 1.0 + 1e-12)
        if not feasible.any():
            return np.inf, 0.0, 0.0
        cost = p[0] * xx0 + p[1] * xx1 + p[2] * np.minimum(x2, 1.0)
        cost = np.where(feasible, cost, np.inf)
        k = int(np.argmin(cost))
        i, j = np.unravel_index(k, cost.shape)
        return float(cost[i, j]), float(xx0[i, j]), float(xx1[i, j])

    cost, bx0, bx1 = best_cost(0.0, 1.0, 0.0, 1.0, step)
    if not np.isfinite(cost):
        raise EmptyGridError(f"no feasible grid point at step {step!r}")
    if refine:
        fine = step / 100.0
        cost2, _, _ = best_cost(
            bx0 - step, bx0 + step, bx1 - step, bx1 + step, fine
        )
        cost = min(cost, cost2)
    return float(1.0 - cost)


def simplex_grid(step: float) -> list[tuple[float, float, float]]:
    """Probability triples on a lattice with the given spacing.

    Walks ``(i*step, j*step, 1 - i*step - j*step)`` over all non-negative
    combinations; includes the simplex boundary.  The step must divide 1,
    so that every triple sums to 1.
    """
    if not 0.0 < step <= 1.0:
        raise ParamOutOfRangeError(f"simplex step {step!r} outside (0, 1]")
    n = int(round(1.0 / step))
    if abs(n * step - 1.0) > 1e-9:
        raise ParamOutOfRangeError(f"simplex step {step!r} does not divide 1")
    out = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            p0 = i * step
            p1 = j * step
            p2 = 1.0 - p0 - p1
            if p2 < 0.0:
                p2 = 0.0
            out.append((p0, p1, p2))
    return out
