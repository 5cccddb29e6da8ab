"""Seeded simulation of schemes and the brute-force success readout.

Both read the operator pipeline that a scheme's constructor ran once, from
its coupling and POVM: :func:`brute_force_success` clamps
``Scheme.pipeline_success`` and :func:`simulate` samples from
``Scheme.confusion``.  Neither reads ``analytic_success``.

Sampling uses the Philox counter-based generator (numpy's implementation)
with a fixed stream discipline, so results are reproducible bit-for-bit
across runs, platforms, and shard splits: shard k of a run seeded with s
(``0 <= s < 2^64``) uses the 128-bit Philox key ``(k << 64) | s`` and
draws an (n_k, 2) uniform block in chunks of ``_CHUNK`` rows, column 0
selecting the prepared state and column 1 the measurement outcome, both by
inverse CDF.  Each lookup is a threshold count: the index is the number of
cumulative sums at or below the uniform, counted one threshold column at a
time over contiguous columns, which is the index a binary search
(``searchsorted(side="right")``) would give.  The chunk bounds memory; the
tallies do not depend on it.

Comparison sweeps run on :func:`analysis.compare_columns`, the one
implementation of both theorem comparisons: :func:`sweep` makes a single
kernel call over the whole grid, and its :class:`SweepResult` keeps the
columns and builds the records, once, on first access.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tol
from .analysis import ComparisonColumns, ComparisonRecord, compare_columns
from .errors import EmptyGridError, InvariantViolationError, ParamOutOfRangeError
from .measurement import _identify_outcomes
from .schemes import Scheme

#: Rows of the uniform block drawn at a time.
_CHUNK = 1 << 16
#: Most shards a run may take: each costs about 40 us, whatever its size.
_MAX_SHARDS = 1 << 16


def brute_force_success(scheme: Scheme) -> float:
    """Success probability of the operator pipeline, ignoring the closed form.

    The scheme's constructor coupled each state with the ancilla, applied
    the unitary and measured the POVM, weighing the probability of the
    outcome that identifies each state by its prior; this clamps that
    ``pipeline_success`` into [0, 1].  ``analytic_success`` is never read.
    """
    return float(min(1.0, max(0.0, scheme.pipeline_success)))


@dataclass(frozen=True, eq=False)
class SimResult:
    """Outcome tallies of a seeded simulation run.

    ``counts[i, x]`` is the number of trials that prepared state i and
    observed outcome x.  Equality is exact (bitwise), supporting the
    determinism contract: same scheme, n, and seed give equal results.
    """

    n: int
    counts: np.ndarray
    empirical_success: float
    std_error: float
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.min() < 0:
            raise InvariantViolationError("counts must be a non-negative matrix")
        if int(counts.sum()) != self.n:
            raise InvariantViolationError(
                f"counts sum {int(counts.sum())} differs from n = {self.n}"
            )
        if not 0.0 <= self.empirical_success <= 1.0:
            raise InvariantViolationError(
                f"empirical success {self.empirical_success!r} outside [0, 1]"
            )
        expected = float(
            np.sqrt(self.empirical_success * (1.0 - self.empirical_success) / self.n)
        )
        if abs(self.std_error - expected) > tol.STD_ERROR:
            raise InvariantViolationError("std_error inconsistent with p-hat and n")
        counts.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, SimResult):
            return NotImplemented
        return (
            self.n == other.n
            and self.seed == other.seed
            and np.array_equal(self.counts, other.counts)
            and self.empirical_success == other.empirical_success
            and self.std_error == other.std_error
        )

    __hash__ = None


def simulate(scheme: Scheme, n: int, seed: int, shards: int = 1) -> SimResult:
    """Sample n preparation/measurement trials of the scheme.

    Per trial: draw the prepared state from the priors, then the outcome
    from that state's exact outcome distribution (its row of the scheme's
    stored confusion matrix, renormalized so the inverse CDF is
    unbiased).  Both inverse CDFs are threshold counts: the state is the
    number of cumulative priors at or below its uniform, and the outcome
    the number of that state's cumulative row entries at or below its
    own.  Deterministic given (scheme, n, seed, shards); the default
    single shard is the reference stream, and sharded runs remain
    reproducible but produce a different (merged) tally.
    """
    # A fraction, NaN or infinity is out of range, never truncated.
    for name, value in (("trial count", n), ("shards", shards), ("seed", seed)):
        if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ParamOutOfRangeError(f"{name} {value!r} is not a whole number")
    n, shards, seed = int(n), int(shards), int(seed)
    if n < 1:
        raise ParamOutOfRangeError(f"trial count {n} must be >= 1")
    if not 1 <= shards <= min(n, _MAX_SHARDS):
        raise ParamOutOfRangeError(
            f"shards = {shards} outside [1, min(n, {_MAX_SHARDS})]"
        )
    # The key holds the seed in 64 bits; a wider one would alias another.
    if not 0 <= seed < 1 << 64:
        raise ParamOutOfRangeError(f"seed {seed} outside [0, 2^64)")

    conf = scheme.confusion
    n_states, n_out = conf.shape
    cum_priors = np.cumsum(scheme.ensemble.priors)
    cum_rows = np.cumsum(conf / conf.sum(axis=1, keepdims=True), axis=1)
    # Each last cumulative sum is 1 in exact arithmetic and a uniform is
    # below 1, so it never counts: dropping it is forcing it to 1.
    state_cuts = cum_priors[:-1].tolist()
    outcome_cuts = [np.ascontiguousarray(col) for col in cum_rows[:, :-1].T]

    counts = np.zeros(n_states * n_out, dtype=np.int64)
    base, rem = divmod(n, shards)
    for k in range(shards):
        rng = np.random.Generator(np.random.Philox(key=(k << 64) | seed))
        n_k = base + (k < rem)
        for start in range(0, n_k, _CHUNK):
            # Rows of consecutive chunks are consecutive rows of one block.
            u = rng.random((min(_CHUNK, n_k - start), 2))
            u0, u1 = u[:, 0].copy(), u[:, 1].copy()
            # Each index is its count of thresholds <= u, the index that
            # searchsorted(side="right") gives on the cumulative sums.
            states = np.zeros(u0.size, dtype=np.intp)
            for cut in state_cuts:
                states += cut <= u0
            joint = states * n_out
            for cuts in outcome_cuts:
                joint += cuts.take(states) <= u1
            counts += np.bincount(joint, minlength=counts.size)
    counts = counts.reshape(n_states, n_out)

    identify = _identify_outcomes(scheme.povm, range(n_states))
    p_hat = int(counts[np.arange(n_states), identify].sum()) / n
    return SimResult(
        n=n,
        counts=counts,
        empirical_success=float(p_hat),
        std_error=float(np.sqrt(p_hat * (1.0 - p_hat) / n)),
        seed=seed,
    )


@dataclass(frozen=True)
class SkippedPoint:
    """Grid point rejected by a check's domain guards, with the error code."""

    gamma: float
    priors: tuple[float, ...]
    code: str


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of :func:`sweep`, backed by the comparison kernel's columns.

    ``grid`` holds every grid point, gamma-major, with its row code, and
    ``priors`` the priors as given, one per grid column.  ``table`` is the
    compared points and ``records`` the tuple of their validated
    :class:`ComparisonRecord` objects.
    """

    grid: ComparisonColumns
    priors: tuple

    @cached_property
    def table(self) -> ComparisonColumns:
        return self.grid.select(self.grid.code == 0)

    @cached_property
    def records(self) -> tuple[ComparisonRecord, ...]:
        return tuple(map(self.table.record, range(len(self.table))))

    @cached_property
    def skipped(self) -> tuple[SkippedPoint, ...]:
        n = len(self.priors)
        return tuple(
            SkippedPoint(
                gamma=float(self.grid.gamma[i]),
                priors=tuple(float(x) for x in self.priors[i % n]),
                code=self.grid.error(i).code,
            )
            for i in np.flatnonzero(self.grid.code).tolist()
        )

    @property
    def failures(self) -> int:
        return int(np.count_nonzero(~self.table.verdict))

    @property
    def min_margin(self) -> float:
        if not len(self.table):
            return float("nan")
        return float(self.table.margin.min())


def sweep(check: str, gammas, priors_list) -> SweepResult:
    """Run a comparison check over a parameter-by-priors grid.

    ``check`` selects the comparison: ``"2.1"`` for the family
    comparison, ``"3.1"`` for the symmetric-overlap comparison.  Grid
    points outside a check's domain are skipped and reported, not fatal.
    Iteration order is gammas-major and deterministic.
    """
    gammas = [float(g) for g in gammas]
    priors_list = tuple(priors_list)
    if not gammas or not priors_list:
        raise EmptyGridError("empty parameter grid")
    return SweepResult(
        grid=compare_columns(check, gammas, priors_list), priors=priors_list
    )
