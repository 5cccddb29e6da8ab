import numpy as np
import pytest

from statedisc.analysis import ComparisonColumns
from statedisc.errors import (
    EmptyGridError,
    InvalidGammaError,
    InvariantViolationError,
    ParamOutOfRangeError,
)
from statedisc.montecarlo import (
    SimResult,
    brute_force_success,
    simulate,
    sweep,
)
from statedisc.schemes import (
    scheme_confusion,
    build_mixed_general,
    build_mixed_special,
    build_unambiguous_special,
    build_zero_aux,
)


def test_brute_force_agrees_with_analytic_everywhere():
    rng = np.random.default_rng(61)
    for _ in range(15):
        gamma = float(rng.uniform(0.1, 0.65))
        p = tuple(float(x) for x in rng.dirichlet([1, 1, 1]))
        for s in (
            build_mixed_special(gamma, p),
            build_mixed_general(gamma, float(rng.uniform(0.0, 0.2)) or 0.01, p),
            build_unambiguous_special(
                gamma, max(gamma, 0.9), max(gamma, 0.9), p
            ),
        ):
            assert brute_force_success(s) == pytest.approx(
                s.analytic_success, abs=1e-10
            )


def test_brute_force_adds_in_state_order():
    # The sum runs left to right, as the loops it replaced did, so every
    # value keeps its bits; pairwise summation differs in the last place.
    rng = np.random.default_rng(7)
    for _ in range(30):
        gamma = float(rng.uniform(0.1, 0.65))
        p = tuple(float(x) for x in rng.dirichlet([1, 1, 1]))
        s = build_mixed_general(gamma, float(rng.uniform(0.01, 0.2)), p)
        conf = scheme_confusion(s)
        total = 0.0
        for i, prior in enumerate(s.ensemble.priors):
            total += float(prior) * float(conf[i, s.povm.identify_outcome(i)])
        assert brute_force_success(s) == min(1.0, max(0.0, total))


def test_brute_force_zero_aux():
    s = build_zero_aux(0.09, 0.3, 0.3, (1 / 3, 1 / 3, 1 / 3))
    assert brute_force_success(s) == pytest.approx(s.analytic_success, abs=1e-10)


def test_sim_result_validation():
    counts = np.array([[5, 0], [0, 5]], dtype=np.int64)
    r = SimResult(
        n=10,
        counts=counts,
        empirical_success=1.0,
        std_error=0.0,
        seed=7,
    )
    assert r.n == 10
    assert not r.counts.flags.writeable
    with pytest.raises(InvariantViolationError):
        SimResult(n=9, counts=counts, empirical_success=1.0, std_error=0.0, seed=7)
    with pytest.raises(InvariantViolationError):
        SimResult(n=10, counts=counts, empirical_success=1.0, std_error=0.5, seed=7)
    with pytest.raises(InvariantViolationError):
        SimResult(
            n=10, counts=counts, empirical_success=1.5, std_error=0.0, seed=7
        )


def test_sim_result_equality_is_exact():
    counts = np.array([[5, 0], [0, 5]], dtype=np.int64)
    a = SimResult(n=10, counts=counts, empirical_success=1.0, std_error=0.0, seed=7)
    b = SimResult(n=10, counts=counts.copy(), empirical_success=1.0, std_error=0.0, seed=7)
    c = SimResult(n=10, counts=counts.copy(), empirical_success=1.0, std_error=0.0, seed=8)
    assert a == b
    assert a != c


def test_simulate_reproducible_and_unbiased():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    r1 = simulate(s, 200_000, seed=123)
    r2 = simulate(s, 200_000, seed=123)
    assert r1 == r2
    b = brute_force_success(s)
    assert abs(r1.empirical_success - b) < 6.0 * r1.std_error
    assert r1.counts.sum() == 200_000
    assert r1.std_error == pytest.approx(
        np.sqrt(r1.empirical_success * (1 - r1.empirical_success) / 200_000)
    )


def test_simulate_seed_changes_stream():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    r1 = simulate(s, 10_000, seed=1)
    r2 = simulate(s, 10_000, seed=2)
    assert r1 != r2


def test_simulate_rejects_seeds_outside_64_bits():
    # Seeds used to wrap mod 2^64: 2^64 drew seed 0's tallies under its own name.
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    for seed in (2**64, -1, 2**64 + 5):
        with pytest.raises(ParamOutOfRangeError):
            simulate(s, 100, seed=seed)
    assert simulate(s, 100, seed=2**64 - 1).seed == 2**64 - 1


def test_simulate_sharding_changes_partition_not_law():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    r1 = simulate(s, 100_000, seed=9, shards=1)
    r4 = simulate(s, 100_000, seed=9, shards=4)
    assert r1 != r4  # different substreams
    assert abs(r1.empirical_success - r4.empirical_success) < 0.01
    # sharded run is itself reproducible
    assert r4 == simulate(s, 100_000, seed=9, shards=4)


def test_simulate_respects_exact_zeros():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    r = simulate(s, 50_000, seed=4)
    # state 2 can only produce its identifying outcome
    assert r.counts[2, 0] == 0 and r.counts[2, 1] == 0 and r.counts[2, 3] == 0
    # cross-identification of the orthogonal pair never happens
    assert r.counts[0, 1] == 0 and r.counts[1, 0] == 0


def test_simulate_zero_prior_state_is_never_drawn():
    s = build_mixed_special(0.4, (0.0, 0.5, 0.5))
    r = simulate(s, 20_000, seed=11)
    assert r.counts[0].sum() == 0


def test_simulate_argument_validation(monkeypatch):
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    with pytest.raises(ParamOutOfRangeError):
        simulate(s, 0, seed=1)
    # More than 2^34 trials would sample for hours; the bound is checked
    # before any stream is made.
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", None)
        for n in (2**34 + 1, 10**18):
            with pytest.raises(ParamOutOfRangeError, match="17179869184"):
                simulate(s, n, seed=1)
    with pytest.raises(ParamOutOfRangeError):
        simulate(s, 10, seed=1, shards=0)
    with pytest.raises(ParamOutOfRangeError):
        simulate(s, 10, seed=1, shards=11)
    # Each shard costs about 40 us whatever its size.
    with pytest.raises(ParamOutOfRangeError, match="65536"):
        simulate(s, 10**7, seed=1, shards=2**16 + 1)
    # A trial count, seed or shard count that is not a whole number is
    # rejected, never truncated.
    for n, seed, shards in (
        (10.7, 1, 1), (10, 1.9, 1), (10, 1, 1.99), (1000.9, 1.9, 1.99),
        (float("nan"), 0, 1), (float("inf"), 0, 1), (10, float("nan"), 1),
        (10, float("inf"), 1), (10, 0, float("nan")), (10, 0, float("inf")),
    ):
        with pytest.raises(ParamOutOfRangeError, match="whole number"):
            simulate(s, n, seed, shards)
    assert simulate(s, 10.0, 1.0, 2.0) == simulate(s, 10, 1, 2)


def _compared(grid):
    """The compared points of a sweep and their records."""
    table = grid.select(grid.code == 0)
    return table, [table.record(i) for i in range(len(table))]


def test_sweep_produces_records_in_grid_order():
    grid = sweep("2.1", [0.3, 0.5], [(0.3, 0.3, 0.4), (0.2, 0.2, 0.6)])
    assert isinstance(grid, ComparisonColumns)
    table, records = _compared(grid)
    assert len(records) == 4
    assert [rec.gamma for rec in records] == [0.3, 0.3, 0.5, 0.5]
    assert not (~table.verdict).any()
    assert table.margin.min() > 0


def test_sweep_skips_domain_errors():
    # zero overlap is outside the first check's domain, so it is coded
    grid = sweep("2.1", [0.0, 0.5], [(0.3, 0.3, 0.4)])
    assert len(_compared(grid)[1]) == 1
    assert grid.code.tolist() == [1, 0]
    assert grid.error(0).code == "GammaOutOfRange"
    assert grid.skip_counts() == {"GammaOutOfRange": 1}


def test_sweep_aliases_and_empty_grid():
    b = sweep("3.1", [0.3], [(0.05, 0.05, 0.9)])
    assert b.record(0).reference_kind == "xu_max"
    with pytest.raises(ParamOutOfRangeError):
        sweep("theorem31", [0.3], [(0.05, 0.05, 0.9)])
    with pytest.raises(EmptyGridError):
        sweep("2.1", [], [(0.3, 0.3, 0.4)])
    with pytest.raises(ParamOutOfRangeError):
        sweep("nope", [0.3], [(0.3, 0.3, 0.4)])


def test_sweep_grid_records_and_skipped_points():
    priors = [(0.9, 0.05, 0.05), (0.3, 0.3, 0.4)]
    grid = sweep("3.1", [0.2, 1.0, 0.5], priors)
    table, recs = _compared(grid)
    skipped = np.flatnonzero(grid.code).tolist()
    assert len(recs) == 4 and len(skipped) == 2
    assert recs == [grid.record(i) for i in np.flatnonzero(grid.code == 0)]
    assert recs[0].priors == (0.05, 0.05, 0.9)  # sorted for the comparison
    assert priors[skipped[0] % len(priors)] == (0.9, 0.05, 0.05)  # as given
    assert grid.gamma[skipped].tolist() == [1.0, 1.0]
    with pytest.raises(IndexError):
        table.record(4)
    with pytest.raises(InvalidGammaError):
        grid.record(skipped[0])
    assert not (~table.verdict).any()
    assert table.margin.min() == min(rec.margin for rec in recs)
