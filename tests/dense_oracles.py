"""Dense-mesh reference bodies of the two grid oracles, for tests only.

These are the full-mesh implementations that ``statedisc.analysis``
replaced with its row-wise kernel, kept verbatim as the reference the
kernel must equal exactly.  The changes: the guard returns its grid
maximum (``-inf`` when no point is feasible) so that tests can compare it,
and, as the kernel's guard, it raises no numpy warning where gamma^2
underflows.
"""
import numpy as np

from statedisc import tol
from statedisc.errors import (
    EmptyGridError,
    InvalidGammaError,
    InvariantViolationError,
    ParamOutOfRangeError,
)
from statedisc.states import validate_priors


def dense_family_grid_guard(cols, grid_step: float):
    """Brute-force cross-check of a one-row 2.1 kernel call's family optimum.

    No point of a grid at ``grid_step`` over the feasible failure
    probabilities may beat the closed form by more than ``tol.GUARD``.
    """
    value = float(cols.reference[0])
    g = abs(cols.gamma[0])
    g2 = g * g
    p = cols.priors[0]
    axis = np.arange(g2, 1.0, grid_step)
    axis = np.append(axis, 1.0)
    xx0, xx1 = np.meshgrid(axis, axis, indexing="ij")
    with np.errstate(all="ignore"):
        feasible = g2 * (1.0 / xx0 + 1.0 / xx1) <= 1.0 + tol.BOUNDARY
        vals = (
            1.0
            - p[0] * xx0
            - p[1] * xx1
            - p[2] * g2 * (1.0 / xx0 + 1.0 / xx1)
        )
    if feasible.any():
        best_grid = float(vals[feasible].max())
        if best_grid > value + tol.GUARD:
            raise InvariantViolationError(
                f"grid search found {best_grid!r} above optimizer {value!r}"
            )
        return best_grid
    return -np.inf


def dense_symmetric_grid(
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
        open_mask = prod > gamma**2 + tol.SCHUR
        denom = np.where(open_mask, prod - gamma**2, 1.0)
        x2 = gamma**2 * (xx0 + xx1 - 2.0 * gamma) / denom
        feasible = open_mask & (x2 <= 1.0 + tol.BOUNDARY)
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
