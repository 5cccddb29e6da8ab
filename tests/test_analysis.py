from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from dense_oracles import dense_family_grid_guard, dense_symmetric_grid

from statedisc import analysis, tol
from statedisc.analysis import (
    ComparisonRecord,
    _family_grid_guard,
    _reference_point,
    compare_columns,
    max_unambiguous_symmetric_grid,
    optimize_unambiguous_special,
    right_classicality_check,
    simplex_grid,
    simplex_size,
    theorem21_bound,
    theorem21_check,
    theorem31_check,
)
from statedisc.errors import (
    DimensionMismatchError,
    EmptyGridError,
    GammaOutOfRangeError,
    InvalidGammaError,
    InvariantViolationError,
    ParamOutOfRangeError,
)
from statedisc.schemes import (
    build_mixed_special,
    coupled_ensemble,
    xu_max_unambiguous,
)
from statedisc.states import ensemble_density


SQRT2_INV = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------- comparison record


def test_comparison_record_build():
    r = compare_columns("2.1", [0.5], [(0.3, 0.3, 0.4)]).record(0)
    assert r.p_mixed == pytest.approx(0.7)
    # Interior stationary point: value 1 - 2 g sqrt(p2 (p0 + p1) / 2) * 2.
    assert r.p_una_reference == pytest.approx(1.0 - 0.4 * np.sqrt(3.0))
    assert r.margin == r.p_mixed - r.p_una_reference
    assert r.reference_kind == "family_optimum"
    assert r.verdict is True
    assert r.alpha is None


def test_comparison_record_rejects_bad_kind():
    # No comparison measures against the closed-form ceiling
    # theorem21_bound, so no record may name it either.
    for kind in ("nonsense", "theorem21_bound"):
        with pytest.raises(ParamOutOfRangeError):
            ComparisonRecord(
                gamma=0.5,
                alpha=None,
                priors=(0.3, 0.3, 0.4),
                p_mixed=0.7,
                p_una_reference=0.3,
                reference_kind=kind,
                margin=0.4,
                verdict=True,
            )


def test_skipped_point_errors_name_the_offending_value():
    cols = compare_columns(
        "2.1", [0.5, 0.9], [(0.5, 0.5), (0.3, 0.3, 0.4, 0.0), (0.3, 0.3, 0.4)]
    )
    assert str(cols.error(0)) == "expected 3 priors, got 2"
    assert str(cols.error(1)) == "expected 3 priors, got 4"
    assert cols.error(2) is None
    assert str(cols.error(5)) == "|gamma| = 0.9 outside (0, 1/sqrt(2)]"
    with pytest.raises(DimensionMismatchError, match="expected 3 priors, got 2"):
        theorem31_check(0.5, (0.5, 0.5))
    # Valid priors keep both values in band; relabel a row to read the text.
    cols = compare_columns("3.1", [0.5], [(0.2, 0.3, 0.5)])
    for code, what, value in ((5, "p_mixed", 0.75), (6, "p_una_reference", None)):
        value = float(cols.reference[0]) if value is None else value
        bad = replace(cols, code=np.array([code], dtype=np.int8))
        assert str(bad.error(0)) == (
            f"{what} = {value!r} outside [0, 1] by more than 1e-12"
        )


def test_columns_select_takes_a_mask_or_an_index_array_in_its_order():
    cols = compare_columns(
        "3.1", [0.2, 1.0, 0.5], [(0.9, 0.05, 0.05), (0.5, 0.5), (0.3, 0.3, 0.4)]
    )
    mask = cols.code == 0
    for rows, picked in ((mask, np.flatnonzero(mask)), ([8, 0, 2], [8, 0, 2])):
        part = cols.select(rows)
        assert part.theorem == "3.1" and len(part) == len(picked)
        for f in fields(cols):
            if f.name != "theorem":
                want = getattr(cols, f.name)[picked]
                assert np.array_equal(getattr(part, f.name), want, equal_nan=True)
    assert [part.record(i).gamma for i in range(3)] == [0.5, 0.2, 0.2]
    assert len(cols) == 9  # selecting leaves the grid whole


def test_columns_skip_counts_are_per_error_code_and_sorted():
    cols = compare_columns(
        "2.1", [0.0, 0.5, 0.9], [(0.3, 0.3, 0.4), (0.5, 0.5), (0.6, 0.6, -0.2)]
    )
    counts = cols.skip_counts()
    assert counts == {"DimensionMismatch": 1, "GammaOutOfRange": 6,
                      "ParamOutOfRange": 1}
    assert list(counts) == sorted(counts)
    # The three invariant row codes count as one error code.
    relabeled = replace(cols, code=np.array([0, 5, 6, 7, 1, 0, 0, 0, 0], np.int8))
    assert relabeled.skip_counts() == {"GammaOutOfRange": 1, "InvariantViolation": 3}
    assert cols.select(cols.code == 0).skip_counts() == {}


def test_comparison_record_rejects_inconsistent_fields():
    with pytest.raises(InvariantViolationError):
        ComparisonRecord(
            gamma=0.5,
            alpha=None,
            priors=(0.3, 0.3, 0.4),
            p_mixed=0.7,
            p_una_reference=0.3,
            reference_kind="family_optimum",
            margin=0.9,  # not p_mixed - reference
            verdict=True,
        )
    with pytest.raises(InvariantViolationError):
        ComparisonRecord(
            gamma=0.5,
            alpha=None,
            priors=(0.3, 0.3, 0.4),
            p_mixed=0.7,
            p_una_reference=0.3,
            reference_kind="family_optimum",
            margin=0.4,
            verdict=False,  # margin is clearly positive
        )


# -------------------------------------------------------------- optimization


def test_optimizer_interior_stationary_point():
    r = optimize_unambiguous_special(0.5, (0.3, 0.3, 0.4))
    want_x = 0.5 * np.sqrt(0.4 / 0.3)
    assert r.x0 == pytest.approx(want_x, abs=1e-12)
    assert r.x1 == pytest.approx(want_x, abs=1e-12)
    assert r.value == pytest.approx(0.307179676972449, abs=1e-12)


def test_optimizer_clips_to_vertex():
    r = optimize_unambiguous_special(0.5, (0.1, 0.1, 0.8))
    assert (r.x0, r.x1) == (1.0, 1.0)
    assert r.value == pytest.approx(0.4, abs=1e-12)


def test_optimizer_projects_onto_feasibility_boundary():
    gamma = 0.7
    p = (0.45, 0.45, 0.1)
    r = optimize_unambiguous_special(gamma, p)
    # the unconstrained point is infeasible; the solution saturates the
    # failure budget
    assert gamma**2 * (1.0 / r.x0 + 1.0 / r.x1) == pytest.approx(1.0, abs=1e-10)
    assert r.x0 == pytest.approx(r.x1, abs=1e-12)  # symmetric priors


def test_optimizer_zero_prior_pins_failure_weight():
    r = optimize_unambiguous_special(0.3, (0.0, 0.5, 0.5))
    assert r.x0 == 1.0


def test_optimizer_grid_cross_check_runs():
    # coarse custom grid still cross-checks without tripping the guard
    r = optimize_unambiguous_special(0.4, (0.2, 0.3, 0.5), grid_step=1e-2)
    s = optimize_unambiguous_special(0.4, (0.2, 0.3, 0.5), grid_step=None)
    assert r.value == s.value


def test_optimizer_domain():
    with pytest.raises(GammaOutOfRangeError):
        optimize_unambiguous_special(0.0, (0.3, 0.3, 0.4))
    with pytest.raises(GammaOutOfRangeError):
        optimize_unambiguous_special(0.9, (0.3, 0.3, 0.4))


@pytest.mark.parametrize(
    "gamma, p", [(1e-160, (0.3, 0.3, 0.4)), (2.311352555955939e-234, (0.0, 0.0, 1.0))]
)
def test_optimizer_guard_is_quiet_where_gamma_squared_underflows(gamma, p):
    # g^2 is subnormal or 0, so 1/x overflows at the guard axis's start;
    # tier-1 turns the RuntimeWarning that would give into an error.
    r = optimize_unambiguous_special(gamma, p)
    assert r == optimize_unambiguous_special(gamma, p, grid_step=None)
    assert r.value == 1.0


@pytest.mark.parametrize("gamma", [1e-160, -1e-160, 1e-155, 1e-300, 5e-324])
@pytest.mark.parametrize("p", [(0.5, 0.5, 0.0), (0.0, 1.0, 0.0), (0.3, 0.3, 0.4)])
def test_family_optimum_is_finite_where_one_over_gamma_squared_overflows(gamma, p):
    # 1/g^2 overflows: the boundary projection took inf - inf, and the
    # value 0 * inf at p2 = 0 or where g^2 is 0; both gave NaN.
    r = optimize_unambiguous_special(gamma, p)
    assert r.value == 1.0
    assert np.isfinite([r.x0, r.x1]).all()
    rec = theorem21_check(gamma, p)
    assert rec.p_una_reference == 1.0 and rec.verdict


def test_optimizer_beats_random_feasible_points():
    rng = np.random.default_rng(51)
    for _ in range(30):
        gamma = float(rng.uniform(0.05, SQRT2_INV))
        p = tuple(float(x) for x in rng.dirichlet([1, 1, 1]))
        r = optimize_unambiguous_special(gamma, p, grid_step=None)
        g2 = gamma**2
        for _ in range(50):
            x0 = float(rng.uniform(g2, 1.0))
            x1 = float(rng.uniform(g2, 1.0))
            if g2 * (1 / x0 + 1 / x1) > 1.0:
                continue
            val = 1 - p[0] * x0 - p[1] * x1 - p[2] * g2 * (1 / x0 + 1 / x1)
            assert val <= r.value + 1e-10


# ------------------------------------------------------------ theorem checks


def test_bound_formula():
    assert theorem21_bound(0.5, 0.4) == pytest.approx(1 - 0.25 * 1.4, abs=1e-15)
    assert theorem21_bound(-0.5, 0.4) == theorem21_bound(0.5, 0.4)
    assert theorem21_bound(SQRT2_INV, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ParamOutOfRangeError):
        theorem21_bound(0.5, 1.5)
    # Theorem 2.1's gamma domain, as theorem21_check applies it.
    for gamma in (float("nan"), 5.0, float("inf"), -float("inf"), 0.0, 0.8):
        with pytest.raises(GammaOutOfRangeError):
            theorem21_bound(gamma, 0.5)


def test_theorem21_check_oracle_point():
    r = theorem21_check(0.5, (0.3, 0.3, 0.4))
    assert r.p_mixed == pytest.approx(0.7, abs=1e-12)
    assert r.p_una_reference == pytest.approx(0.307179676972449, abs=1e-10)
    assert r.reference_kind == "family_optimum"
    assert r.verdict is True
    assert theorem21_bound(0.5, 0.4) == pytest.approx(0.65, abs=1e-12)


def test_theorem21_check_low_third_prior_still_records():
    # below the guaranteed region the record simply reports the margin
    r = theorem21_check(0.1, (0.45, 0.45, 0.1))
    assert r.verdict in (True, False)


def test_theorem21_check_domain():
    with pytest.raises(GammaOutOfRangeError):
        theorem21_check(0.0, (0.3, 0.3, 0.4))
    with pytest.raises(GammaOutOfRangeError):
        theorem21_check(0.8, (0.3, 0.3, 0.4))


def test_theorem21_equality_at_one_third():
    # exactly at p2 = 1/3 the mixed value meets the family ceiling
    gamma = 0.5
    p2 = 1.0 / 3.0
    p_mixed = 1.0 - 2.0 * gamma**2 * (1.0 - p2)
    assert p_mixed == pytest.approx(theorem21_bound(gamma, p2), abs=1e-12)


def test_theorem31_check_sorts_and_verifies():
    r = theorem31_check(0.2, (0.9, 0.05, 0.05))
    assert r.priors == (0.05, 0.05, 0.9)
    assert r.alpha == 0.2
    assert r.p_mixed == pytest.approx(1.0 - 0.2 * 0.1, abs=1e-12)
    assert r.reference_kind == "xu_max"
    assert r.verdict is True
    assert r.p_una_reference == pytest.approx(
        xu_max_unambiguous(0.2, (0.05, 0.05, 0.9)).value, abs=1e-12
    )


def test_theorem31_check_domain():
    with pytest.raises(InvalidGammaError):
        theorem31_check(1.0, (0.3, 0.3, 0.4))
    r = theorem31_check(0.0, (0.3, 0.3, 0.4))
    assert r.p_mixed == 1.0 and r.verdict is True


# ------------------------------------------------------------- classicality


def test_right_classicality_block_diagonal_product():
    rho = np.kron(np.diag([0.4, 0.6]), np.diag([0.7, 0.3]))
    ok, v = right_classicality_check(rho, 2, 2)
    assert ok and v < 1e-14


def test_right_classicality_accepts_density_matrix_type():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    rho = ensemble_density(coupled_ensemble(s))
    ok, v = right_classicality_check(rho, 3, 2)
    assert not ok and v > 1e-3
    ok2, v2 = right_classicality_check(rho.matrix, 3, 2)
    assert ok == ok2 and v == v2


def test_right_classicality_boundary_overlap_is_classical():
    s = build_mixed_special(SQRT2_INV, (0.3, 0.3, 0.4))
    rho = ensemble_density(coupled_ensemble(s))
    ok, v = right_classicality_check(rho, 3, 2)
    assert ok and v < 1e-9


def test_right_classicality_dimension_guard():
    with pytest.raises(DimensionMismatchError):
        right_classicality_check(np.eye(6) / 6.0, 4, 2)


# ---------------------------------------------------------------- grid oracle


def test_symmetric_grid_matches_piecewise_formula():
    for gamma, p in [
        (0.3, (0.2, 0.3, 0.5)),
        (0.2, (0.05, 0.05, 0.9)),
        (0.5, (0.0, 0.05, 0.95)),
    ]:
        grid_val = max_unambiguous_symmetric_grid(gamma, p, step=2e-3)
        want = xu_max_unambiguous(gamma, p).value
        assert grid_val == pytest.approx(want, abs=1e-3)
        # the grid explores a constrained subset, so it never exceeds the max
        assert grid_val <= want + 1e-9


def test_symmetric_grid_trivial_overlap():
    assert max_unambiguous_symmetric_grid(0.0, (0.3, 0.3, 0.4)) == 1.0


def test_symmetric_grid_domain():
    with pytest.raises(InvalidGammaError):
        max_unambiguous_symmetric_grid(1.0, (0.3, 0.3, 0.4))
    with pytest.raises(ParamOutOfRangeError):
        max_unambiguous_symmetric_grid(0.3, (0.3, 0.3, 0.4), step=-1.0)
    # A step too coarse for any feasible point is an empty grid.
    with pytest.raises(EmptyGridError):
        max_unambiguous_symmetric_grid(0.3, (0.3, 0.3, 0.4), step=5.0)


# Non-finite, non-positive, or finer than 2^20 values per unit axis.
BAD_STEPS = (0.0, -0.0, -1e-3, -np.inf, np.inf, np.nan, 1e-300, 5e-324, 2.0**-21)


@pytest.mark.parametrize("step", BAD_STEPS)
def test_grid_steps_are_checked_before_any_grid(step):
    with pytest.raises(ParamOutOfRangeError):
        max_unambiguous_symmetric_grid(0.3, (0.3, 0.3, 0.4), step=step)
    with pytest.raises(ParamOutOfRangeError):
        optimize_unambiguous_special(0.3, (0.3, 0.3, 0.4), grid_step=step)


def test_grid_step_none_skips_the_guard_and_the_finest_step_passes():
    with mock.patch.object(analysis, "_family_grid_guard", side_effect=AssertionError):
        optimize_unambiguous_special(0.3, (0.3, 0.3, 0.4), grid_step=None)
    # 2^-20 itself passes the check; its axis is not built here.
    assert analysis._check_grid_step(2.0**-20) == 2.0**-20


# ----------------------------------------- row-wise oracles vs the dense mesh


def _guard_max(gamma, p, step):
    """Row-wise and dense guard maxima of one point, asserted equal."""
    cols = _reference_point("2.1", gamma, p)
    fast = _family_grid_guard(cols, step)
    assert fast == dense_family_grid_guard(cols, step), (gamma, p, step)
    return cols, fast


def _criterion_05_draws():
    rng = np.random.default_rng(505)  # criterion 05's seed and draw order
    for _ in range(100):
        gamma = float(rng.uniform(0.05, 0.9))
        yield gamma, tuple(float(x) for x in rng.dirichlet([1.0, 1.0, 1.0]))


def test_oracles_equal_the_dense_mesh_on_criterion_05_draws():
    tripped = 0
    for gamma, p in _criterion_05_draws():
        assert max_unambiguous_symmetric_grid(gamma, p) == dense_symmetric_grid(
            gamma, p
        ), (gamma, p)
        cols, best = _guard_max(gamma * SQRT2_INV, p, 1e-3)  # a 2.1 gamma
        # Lower the closed form by 1e-4: the guard trips exactly where the
        # dense guard's test `best_grid > value + tol.GUARD` does.
        low = replace(cols, reference=cols.reference - 1e-4)
        trips = best > float(low.reference[0]) + tol.GUARD
        tripped += trips
        if trips:
            with pytest.raises(InvariantViolationError):
                _family_grid_guard(low, 1e-3)
        else:
            assert _family_grid_guard(low, 1e-3) == best
    assert tripped > 50  # the perturbation is seen, not absorbed by the grid


EDGE_PRIORS = [
    (0.0, 0.5, 0.5),
    (0.5, 0.0, 0.5),
    (0.5, 0.5, 0.0),
    (0.2, 0.8, 0.0),
    (0.3, 0.3, 0.4),
    (0.45, 0.45, 0.1),
    (1 / 3, 1 / 3, 1 / 3),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
]


@pytest.mark.parametrize("p", EDGE_PRIORS)
def test_oracles_equal_the_dense_mesh_on_edge_priors(p):
    # Gammas on the grid make a row x0 = gamma whose cost is flat up to
    # rounding when p1 = 0; gammas near 1 put the optimum at a corner.
    for step, overlaps, gammas in (
        (1e-2, (0.3, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-9), (0.3, SQRT2_INV, -SQRT2_INV)),
        (1e-3, (0.5, 0.999), (0.5, SQRT2_INV)),
    ):
        for gamma in overlaps:
            want = dense_symmetric_grid(gamma, p, step=step)
            assert max_unambiguous_symmetric_grid(gamma, p, step=step) == want
        for gamma in gammas:
            _guard_max(gamma, p, step)


# -------------------------------------------------------------- simplex grid


def test_simplex_grid_lattice():
    pts = simplex_grid(0.5)
    assert (0.0, 0.0, 1.0) in pts
    assert (0.5, 0.5, 0.0) in pts
    assert all(abs(sum(p) - 1.0) < 1e-12 for p in pts)
    assert len(pts) == 6


def test_simplex_grid_step_validation():
    with pytest.raises(ParamOutOfRangeError):
        simplex_grid(0.0)
    with pytest.raises(ParamOutOfRangeError):
        simplex_grid(2.0)
    # Steps that do not divide 1 would emit triples that do not sum to 1.
    for step in (0.6, 0.3, 0.15, float("nan")):
        with pytest.raises(ParamOutOfRangeError):
            simplex_grid(step)
    # The smallest denormal overflows 1/step.
    for step in (5e-324, float("nan")):
        with pytest.raises(ParamOutOfRangeError):
            simplex_size(step)
        with pytest.raises(ParamOutOfRangeError):
            simplex_grid(step)
    # Fine steps are counted without building their lattice.
    assert simplex_size(1e-4) == 10_001 * 10_002 // 2
    assert simplex_size(2.0**-20) == (2**20 + 1) * (2**20 + 2) // 2


@pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.04, 0.01])
def test_simplex_grid_dividing_steps_sum_to_one(step):
    pts = simplex_grid(step)
    n = round(1.0 / step)
    assert len(pts) == (n + 1) * (n + 2) // 2 == simplex_size(step)
    assert all(abs(sum(p) - 1.0) < 1e-12 and min(p) >= 0.0 for p in pts)
