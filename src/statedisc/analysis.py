"""Inequality checks, the failure-amplitude optimizer, and classicality tests.

The two headline comparisons pit the mixed schemes against the best fully
unambiguous alternative: the coupled-failure family for the two-orthogonal
geometry (theorem 2.1), and the symmetric-overlap piecewise maximum for
equal overlaps (theorem 3.1).  :func:`compare_columns` is the one
implementation of both: a numpy kernel over a gamma-by-priors grid that
returns column arrays, with a row code in place of an exception for every
point outside a comparison's domain.  :func:`theorem21_check`,
:func:`theorem31_check`, :func:`optimize_unambiguous_special` and
:func:`statedisc.schemes.xu_max_unambiguous` are one-row calls of it.  A
compared point is a :class:`ComparisonRecord` whose verdict is a plain
margin test, so sweeps over parameter grids reduce to counting false
verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DiscriminationError,
    EmptyGridError,
    GammaOutOfRangeError,
    InvalidGammaError,
    InvariantViolationError,
    ParamOutOfRangeError,
)
from .states import _HALF_SQRT2, DensityMatrix, priors_ok, validate_priors

#: Margin below which a comparison verdict flips to false.
VERDICT_TOL = 1e-12
#: Largest gap between a record's margin and its clamped operands.
TOL_MARGIN = 1e-12
#: Commutator norm gate for the block-commutation test.
TOL_RIGHT_CLASSICAL = 1e-9

#: What each comparison measures the mixed scheme against, by theorem.
REFERENCE_KINDS = {"2.1": "family_optimum", "3.1": "xu_max"}
#: Regimes of the symmetric-overlap maximum, indexed by ``xu_case``.
XU_CASES = ("1-limit", "1", "2", "3", "4")

# Meaning of ComparisonColumns.code: 0 for a compared point, otherwise the
# first check the point failed, numbered in the order the checks apply.
# The messages are filled in from the point's row (ComparisonColumns.error).
_ROW_ERRORS = (
    (None, ""),
    (GammaOutOfRangeError, "|gamma| = {abs_gamma!r} outside (0, 1/sqrt(2)]"),
    (InvalidGammaError, "symmetric overlap {gamma!r} outside [0, 1)"),
    (DimensionMismatchError, "expected 3 priors, got {count:.0f}"),
    (ParamOutOfRangeError, "priors must be non-negative and sum to 1"),
    (
        InvariantViolationError,
        "p_mixed = {p_mixed!r} outside [0, 1] by more than " + repr(VERDICT_TOL),
    ),
    (
        InvariantViolationError,
        "p_una_reference = {reference!r} outside [0, 1] by more than "
        + repr(VERDICT_TOL),
    ),
    (InvariantViolationError, "margin inconsistent with its operands"),
)


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
        if abs(self.margin - (self.p_mixed - self.p_una_reference)) > TOL_MARGIN:
            raise InvariantViolationError("margin inconsistent with its operands")
        if self.verdict != (self.margin >= -VERDICT_TOL):
            raise InvariantViolationError("verdict inconsistent with margin")


@dataclass(frozen=True, eq=False)
class ComparisonColumns:
    """One comparison over a grid of points, one array entry per point.

    ``code`` is 0 for a compared point and otherwise names the first check
    the point failed (:meth:`error`); the other columns of such a point
    hold junk, except what its error message reads: a prior row of any
    other count than 3 holds that count followed by NaN, and an
    out-of-band ``p_mixed`` is left unclamped.  ``priors`` is ``(n, 3)``,
    sorted ascending for 3.1.  ``p_mixed`` and ``p_una_reference`` are
    clamped into [0, 1] as in a record; ``reference`` is the reference's
    closed form unclamped.
    ``x0``/``x1`` are the family optimum's failure probabilities (NaN for
    3.1) and ``xu_case`` indexes :data:`XU_CASES` (-1 for 2.1).
    """

    theorem: str
    gamma: np.ndarray
    priors: np.ndarray
    p_mixed: np.ndarray
    p_una_reference: np.ndarray
    reference: np.ndarray
    margin: np.ndarray
    verdict: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    xu_case: np.ndarray
    code: np.ndarray

    def __len__(self) -> int:
        return self.gamma.shape[0]

    @property
    def reference_kind(self) -> str:
        return REFERENCE_KINDS[self.theorem]

    def select(self, rows) -> "ComparisonColumns":
        """The points an index array or boolean mask picks, in its order."""
        return replace(
            self,
            **{
                f.name: getattr(self, f.name)[rows]
                for f in fields(self)
                if f.name != "theorem"
            },
        )

    def error(self, i: int) -> Optional[DiscriminationError]:
        """The error point ``i`` was skipped for, or None if it was compared."""
        cls, reason = _ROW_ERRORS[self.code[i]]
        if cls is None:
            return None
        gamma = float(self.gamma[i])
        return cls(
            reason.format(
                gamma=gamma,
                abs_gamma=abs(gamma),
                count=float(self.priors[i, 0]),
                p_mixed=float(self.p_mixed[i]),
                reference=float(self.reference[i]),
            )
        )

    def skip_counts(self) -> dict[str, int]:
        """Number of points skipped per error code, in code order."""
        counts: dict[str, int] = {}
        row_codes, hits = np.unique(self.code[self.code > 0], return_counts=True)
        for row_code, n in zip(row_codes.tolist(), hits.tolist()):
            code = _ROW_ERRORS[row_code][0]().code
            counts[code] = counts.get(code, 0) + n
        return dict(sorted(counts.items()))

    def record(self, i: int) -> ComparisonRecord:
        """Point ``i`` as a validated record; raises the point's error."""
        err = self.error(i)
        if err is not None:
            raise err
        gamma = float(self.gamma[i])
        return ComparisonRecord(
            gamma=gamma,
            alpha=gamma if self.theorem == "3.1" else None,
            priors=tuple(self.priors[i].tolist()),
            p_mixed=float(self.p_mixed[i]),
            p_una_reference=float(self.p_una_reference[i]),
            reference_kind=self.reference_kind,
            margin=float(self.margin[i]),
            verdict=bool(self.verdict[i]),
        )


def _prior_rows(priors) -> tuple[np.ndarray, np.ndarray]:
    """Priors as ``(T, 3)`` float rows, and which rows hold three values.

    Each row is flattened as :func:`states.validate_priors` reads it; a
    row with any other count becomes that count followed by NaN.
    """
    try:
        rows = np.array(priors, dtype=float)
    except ValueError:  # rows of different lengths
        rows = None
    if rows is not None and rows.ndim == 2 and rows.shape[1] == 3:
        return rows, np.ones(rows.shape[0], dtype=bool)
    flat = [np.array(p, dtype=float).reshape(-1) for p in priors]
    rows = np.full((len(flat), 3), np.nan)
    counted = np.zeros(len(flat), dtype=bool)
    for j, p in enumerate(flat):
        if p.shape[0] == 3:
            rows[j], counted[j] = p, True
        else:
            rows[j, 0] = p.shape[0]
    return rows, counted


def _family_optimum(g, p0, p1, p2):
    """Failure probabilities and value of the coupled-failure optimum.

    Objective ``1 - p0 x0 - p1 x1 - p2 g^2 (1/x0 + 1/x1)`` over ``x_i in
    [g^2, 1]`` subject to ``g^2 (1/x0 + 1/x1) <= 1``.  The objective is
    concave and the feasible set convex, so the separable stationary point
    ``x_i = g sqrt(p2/p_i)`` clipped to the box is optimal when feasible;
    otherwise the optimum is projected onto the feasibility boundary in
    ``t = 1/x`` coordinates.
    """
    g2 = g * g

    def box(v):
        return np.minimum(1.0, np.maximum(g2, v))

    x0 = np.where(p0 > 0.0, box(g * np.sqrt(p2 / p0)), 1.0)
    x1 = np.where(p1 > 0.0, box(g * np.sqrt(p2 / p1)), 1.0)
    # Projection onto the boundary g^2 (t0 + t1) = 1 with t = 1/x.
    big_t = 1.0 / g2
    r0, r1 = np.sqrt(p0), np.sqrt(p1)
    t0 = np.where(r0 + r1 > 0.0, big_t * r0 / (r0 + r1), big_t / 2.0)
    t0 = np.minimum(big_t - 1.0, np.maximum(1.0, t0))
    infeasible = g2 * (1.0 / x0 + 1.0 / x1) > 1.0
    x0 = np.where(infeasible, box(1.0 / t0), x0)
    x1 = np.where(infeasible, box(1.0 / (big_t - t0)), x1)
    value = 1.0 - p0 * x0 - p1 * x1 - p2 * g2 * (1.0 / x0 + 1.0 / x1)
    return x0, x1, value


def _xu_max(gamma, p0, p1, p2):
    """Case index and value of the symmetric-overlap maximum, p0 <= p1 <= p2.

    The four regimes are checked in order and the first match wins.  When
    the two largest priors coincide the regime thresholds diverge and the
    value is ``1 - gamma`` (case ``"1-limit"``).
    """
    r0, r1, r2 = np.sqrt(p0), np.sqrt(p1), np.sqrt(p2)
    spread = r2 - r1
    g1 = r1 / spread
    g2 = r0 / spread
    case = np.full(gamma.shape, 4, dtype=np.int8)
    # Later assignments win, so the regimes go in reverse order.
    case[(g1 >= gamma) & (gamma >= g2)] = 3
    case[gamma >= g1] = 2
    case[g2 >= 1.0] = 1
    case[spread < 1e-12] = 0
    # float_power is libm pow, as Python's ** on floats; x**2 would be x*x.
    gamma_sq = np.float_power(gamma, 2.0)
    limit = 1.0 - gamma
    value = np.choose(
        case,
        (
            limit,
            limit,
            1.0 - p0 - p1 - 2.0 * p2 * gamma_sq / (gamma + 1.0),
            1.0 - p0 - 2.0 * r1 * r2 * gamma - np.float_power(spread, 2.0) * gamma_sq,
            1.0 - 2.0 * (r1 * r2 + r0 * r2 - r0 * r1) * gamma,
        ),
    )
    return case, value


def compare_columns(theorem: str, gammas, priors) -> ComparisonColumns:
    """Theorem 2.1 or 3.1 comparison at every point of ``gammas x priors``.

    Point ``i * len(priors) + j`` pairs ``gammas[i]`` with ``priors[j]``;
    :func:`theorem21_check` and :func:`theorem31_check` describe the two
    comparisons.  A point outside a comparison's domain gets a code, never
    an exception.  The checks apply in this order and the first failure is
    the code: the gamma domain (``GammaOutOfRange`` for 2.1,
    ``InvalidGamma`` for 3.1); a prior count other than 3
    (``DimensionMismatch``); priors that are not a probability vector, NaN
    and infinity included (``ParamOutOfRange``); ``p_mixed`` or the
    reference outside [0, 1] by more than ``VERDICT_TOL``, or a margin
    inconsistent with the clamped values (``InvariantViolation``).
    """
    if theorem not in REFERENCE_KINDS:
        raise ParamOutOfRangeError(
            f"unknown check {theorem!r}; expected one of {sorted(REFERENCE_KINDS)}"
        )
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    rows, counted = _prior_rows(priors)
    if theorem == "3.1":
        rows = np.sort(rows, axis=1, kind="stable")
    gamma = np.repeat(gammas, rows.shape[0])
    p0, p1, p2 = by_point = np.tile(rows.T, gammas.shape[0])
    n = gamma.shape[0]
    with np.errstate(all="ignore"):  # points outside the domain compute junk
        if theorem == "2.1":
            g = np.abs(gamma)
            gamma_ok = (g > 0.0) & (g <= _HALF_SQRT2 + 1e-12)
            p_mixed = 1.0 - 2.0 * np.float_power(gamma, 2.0) * (1.0 - p2)
            x0, x1, reference = _family_optimum(g, p0, p1, p2)
            xu_case = np.full(n, -1, dtype=np.int8)
        else:
            gamma_ok = (gamma >= 0.0) & (gamma < 1.0)
            p_mixed = 1.0 - gamma * (1.0 - p2)
            xu_case, reference = _xu_max(gamma, p0, p1, p2)
            x0 = x1 = np.full(n, np.nan)
        margin = p_mixed - reference
        mixed_out = ~((p_mixed >= -VERDICT_TOL) & (p_mixed <= 1.0 + VERDICT_TOL))
        reference_out = ~(
            (reference >= -VERDICT_TOL) & (reference <= 1.0 + VERDICT_TOL)
        )
        mixed_clamped = np.minimum(1.0, np.maximum(0.0, p_mixed))
        reference_clamped = np.minimum(1.0, np.maximum(0.0, reference))
        margin_off = (
            np.abs(margin - (mixed_clamped - reference_clamped)) > TOL_MARGIN
        )
        mixed_clamped[mixed_out] = p_mixed[mixed_out]
    failed = (
        (~gamma_ok, 1 if theorem == "2.1" else 2),
        (~np.tile(counted, gammas.shape[0]), 3),
        (~priors_ok(by_point.T), 4),
        (mixed_out, 5),
        (reference_out, 6),
        (margin_off, 7),
    )
    code = np.zeros(n, dtype=np.int8)
    for bad, row_code in reversed(failed):  # the first failed check wins
        code[bad] = row_code
    return ComparisonColumns(
        theorem=theorem,
        gamma=gamma,
        priors=by_point.T,
        p_mixed=mixed_clamped,
        p_una_reference=reference_clamped,
        reference=reference,
        margin=margin,
        verdict=margin >= -VERDICT_TOL,
        x0=x0,
        x1=x1,
        xu_case=xu_case,
        code=code,
    )


def _reference_point(theorem: str, gamma, priors) -> ComparisonColumns:
    """One-row kernel call for a reference closed form.

    Raises the point's domain error; an ``InvariantViolation`` of the
    comparison record is not raised, since the closed form is still
    defined there.
    """
    cols = compare_columns(theorem, [float(gamma)], [priors])
    err = cols.error(0)
    if err is not None and not isinstance(err, InvariantViolationError):
        raise err
    return cols


def _family_grid_guard(cols: ComparisonColumns, grid_step: float):
    """Brute-force cross-check of a one-row 2.1 kernel call's family optimum.

    No point of a grid at ``grid_step`` over the feasible failure
    probabilities may beat the closed form by more than 1e-5.
    """
    value = float(cols.reference[0])
    g = abs(cols.gamma[0])
    g2 = g * g
    p = cols.priors[0]
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


class OptimizeResult(NamedTuple):
    x0: float
    x1: float
    value: float


def optimize_unambiguous_special(
    gamma: float, priors, grid_step: Optional[float] = 1e-3
) -> OptimizeResult:
    """Maximize the coupled-failure family's success probability.

    Objective ``1 - p0 x0 - p1 x1 - p2 g^2 (1/x0 + 1/x1)`` over failure
    probabilities ``x_i in [g^2, 1]`` subject to ``g^2 (1/x0 + 1/x1) <=
    1`` (g = |gamma|), solved in closed form by :func:`compare_columns`.

    ``grid_step`` enables a brute-force cross-check: a grid at that
    resolution must not beat the returned value by more than 1e-5.
    Pass ``None`` to skip the guard and keep only the closed form; the
    default keeps the operation self-validating.
    """
    cols = _reference_point("2.1", gamma, priors)
    if grid_step is not None:
        _family_grid_guard(cols, grid_step)
    x0, x1, value = (float(c[0]) for c in (cols.x0, cols.x1, cols.reference))
    return OptimizeResult(x0=x0, x1=x1, value=value)


def theorem21_bound(gamma: float, p2: float) -> float:
    """Closed-form ceiling on the coupled-failure family: 1 - g^2 (1 + p2)."""
    gamma = float(gamma)
    p2 = float(p2)
    if not 0.0 <= p2 <= 1.0:
        raise ParamOutOfRangeError(f"p2 = {p2!r} outside [0, 1]")
    return 1.0 - gamma**2 * (1.0 + p2)


def theorem21_check(gamma: float, priors) -> ComparisonRecord:
    """Mixed scheme versus the best fully unambiguous family member.

    For the two-orthogonal geometry: ``p_mixed = 1 - 2 g^2 (1 - p2)``
    against the family optimum (a one-row :func:`compare_columns` call).
    The comparison is guaranteed in favor of the mixed scheme when
    ``p2 >= 1/3``; records are still produced below that threshold and
    simply carry whatever verdict the margin gives.  The closed-form
    ceiling on the reference is available separately as
    :func:`theorem21_bound`.
    """
    return compare_columns("2.1", [float(gamma)], [priors]).record(0)


def theorem31_check(gamma: float, priors) -> ComparisonRecord:
    """Mixed scheme versus the symmetric-overlap piecewise maximum.

    All three pairwise overlaps equal ``gamma``; the mixed scheme ties the
    pair overlap to it, giving ``p_mixed = 1 - gamma (1 - p2)`` with
    ``p2`` the largest prior.  Priors are sorted ascending and the record
    stores the sorted triple; the reference is the piecewise maximum at
    the same priors (a one-row :func:`compare_columns` call).
    """
    return compare_columns("3.1", [float(gamma)], [priors]).record(0)


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


def _simplex_divisions(step: float) -> int:
    """Lattice divisions ``1 / step`` of a valid simplex step."""
    if not 0.0 < step <= 1.0:
        raise ParamOutOfRangeError(f"simplex step {step!r} outside (0, 1]")
    inverse = 1.0 / step
    if inverse == np.inf:
        raise ParamOutOfRangeError(f"simplex step {step!r}: 1/step overflows")
    n = int(round(inverse))
    if abs(n * step - 1.0) > 1e-9:
        raise ParamOutOfRangeError(f"simplex step {step!r} does not divide 1")
    return n


def simplex_size(step: float) -> int:
    """Number of triples :func:`simplex_grid` returns, without building them.

    Raises for a step :func:`simplex_grid` rejects.
    """
    n = _simplex_divisions(step)
    return (n + 1) * (n + 2) // 2


def simplex_grid(step: float) -> list[tuple[float, float, float]]:
    """Probability triples on a lattice with the given spacing.

    Walks ``(i*step, j*step, 1 - i*step - j*step)`` over all non-negative
    combinations; includes the simplex boundary.  The step must divide 1,
    so that every triple sums to 1; :func:`simplex_size` counts the
    triples beforehand.
    """
    n = _simplex_divisions(step)
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
