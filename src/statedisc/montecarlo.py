"""Seeded simulation of schemes and the brute-force success readout.

Both read the operator pipeline that a scheme's constructor ran once, from
its coupling and POVM: :func:`brute_force_success` clamps
``Scheme.pipeline_success`` and :func:`simulate` samples from
``Scheme.confusion``.  Neither reads ``analytic_success``.

Sampling uses the Philox counter-based generator (numpy's implementation)
with a fixed stream discipline, so results are reproducible bit-for-bit
across runs, platforms, and shard splits: shard k of a run seeded with s
(``0 <= s < 2^64``) uses the 128-bit Philox key ``(k << 64) | s``, and
its row r is the words 2r and 2r + 1 of the stream, drawn with
``random_raw`` in chunks of ``_CHUNK`` rows.  A word w stands for the
uniform ``(w >> 11) * 2^-53`` of ``Generator.random``; the two select the
prepared state and the measurement outcome by inverse CDF, each index the
number of cumulative sums c at or below the uniform, that is with
``ceil(c * 2^53) <= w >> 11``: the index ``searchsorted(side="right")``
gives.  Two guide tables (Chen and Asau, 1974) on a word's top
``_GUIDE_BITS`` bits read both off: the state of the first word's bucket,
then the cell of (state, second word's bucket).  A row whose bucket holds
a cut, about one in a thousand, takes the exact count instead.

The rows, taken shard after shard, are split into one contiguous part per
usable core, each on its own thread with one Philox, re-keyed per shard.
A part starts at an even row r of its shard and advances the shard's
Philox by r / 2 counter steps (a row takes two 64-bit words, a step gives
four), so it draws exactly the rows r, r + 1, ... of the unbroken stream.
The parts' integer tallies are summed: they depend neither on the chunk,
the table width nor the core count.  Each part draws ``_CHUNK / parts``
rows at a time, so one chunk bounds the memory of the whole run.  In
process, 10^7 trials on mixed-special take about 12-14 ns per trial on
two cores and 19 ns on one, 7 ns of it after the draw.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import tol
from .analysis import ComparisonColumns, compare_columns
from .errors import EmptyGridError, InvariantViolationError, ParamOutOfRangeError
from .measurement import _identify_outcomes
from .schemes import Scheme
from .states import _real_number

#: Rows of the uniform block drawn at a time.
_CHUNK = 1 << 16
#: Top bits of a word that index the guide tables: 2^12 buckets a table.
_GUIDE_BITS = 12
#: Most shards a run may take: each costs about 12 us, whatever its size.
_MAX_SHARDS = 1 << 16
#: Most trials a run may take: a few minutes of sampling.
_MAX_TRIALS = 1 << 34


def _workers(n: int, shards: int) -> int:
    """Threads to sample n trials in ``shards`` streams on: one per core
    this process may run on, at most one per chunk of rows, and one when
    the shards are short."""
    # Each shard costs its thread about 12 us holding the interpreter lock,
    # a re-key and one chunk's numpy calls, whatever its length: threads on
    # shards shorter than a sixteenth of a chunk wait on each other.
    if n < shards * (_CHUNK >> 4):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, -(-n // _CHUNK))


def _rekey(bits: np.random.Philox, state: dict, k: int) -> None:
    """Start ``bits`` where ``Philox(key=(k << 64) | seed)`` starts, from the
    ``state`` of a new ``Philox(key=seed)``: key (seed, k), counter 0."""
    state["state"]["key"][1] = k
    bits.state = state


def _shard_of(row: int, base: int, rem: int) -> tuple[int, int]:
    """The shard holding row ``row`` of a run's rows, taken shard after
    shard, and that shard's first row: the first ``rem`` shards hold
    ``base + 1`` rows and the others ``base``."""
    k = max(row // (base + 1), (row - rem) // base)
    return k, k * base + min(k, rem)


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
        if _real_number("trial count", self.n, whole=True) < 1:
            raise ParamOutOfRangeError(f"trial count {self.n!r} < 1")
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
    own, read off guide tables on the top bits of the trial's two raw
    Philox words.  Deterministic given (scheme, n, seed, shards), whatever
    the number of cores it runs on; the default single shard is the
    reference stream, and sharded runs remain reproducible but produce a
    different (merged) tally.  At most 2^34 trials and 2^16 shards.
    """
    n = _real_number("trial count", n, whole=True)
    shards = _real_number("shards", shards, whole=True)
    seed = _real_number("seed", seed, whole=True)
    if not 1 <= n <= _MAX_TRIALS:
        raise ParamOutOfRangeError(f"trial count {n} outside [1, {_MAX_TRIALS}]")
    if not 1 <= shards <= min(n, _MAX_SHARDS):
        raise ParamOutOfRangeError(
            f"shards = {shards} outside [1, min(n, {_MAX_SHARDS})]"
        )
    # The key holds the seed in 64 bits; a wider one would alias another.
    if not 0 <= seed < 1 << 64:
        raise ParamOutOfRangeError(f"seed {seed} outside [0, 2^64)")

    conf = scheme.confusion
    n_states, n_out = conf.shape
    n_cells = n_states * n_out
    cum_priors = np.cumsum(scheme.ensemble.priors)
    cum_rows = np.cumsum(conf / conf.sum(axis=1, keepdims=True), axis=1)
    # The uniform of word w reaches a cut c iff w >> 11 >= ceil(c * 2^53).
    # Each last cumulative sum is 1 in exact arithmetic and a uniform is
    # below 1, so it never counts; any cut at or above 1 becomes 2^53, which
    # no word reaches, and any at or below 0 becomes 0, which every word does.
    state_cuts, outcome_cuts = (
        np.ceil(np.clip(cuts, 0.0, 1.0) * 2.0**53).astype(np.uint64)
        for cuts in (cum_priors[:-1], cum_rows[:, :-1])
    )
    # Bucket b holds the words whose top _GUIDE_BITS bits are b.  A table
    # entry is the bucket's count when all its words give one; else it is
    # the dummy state n_states, whose row is all n_cells, the exact count.
    size = 1 << _GUIDE_BITS
    lo = np.arange(size, dtype=np.uint64) << (53 - _GUIDE_BITS)
    hi = lo + ((1 << (53 - _GUIDE_BITS)) - 1)

    def guide(cuts, first, scale, dirty):
        low, high = (np.searchsorted(np.sort(cuts), e, side="right") for e in (lo, hi))
        return np.where(low == high, first + scale * low, dirty)

    state_table = guide(state_cuts, 0, size, n_states * size)
    cell_table = np.full((n_states + 1, size), n_cells, np.min_scalar_type(n_cells))
    for s in range(n_states):
        cell_table[s] = guide(outcome_cuts[s], s * n_out, 1, n_cells)
    cell_table = cell_table.ravel()

    base, rem = divmod(n, shards)
    workers = _workers(n, shards)
    # Part w runs from row bounds[w] to bounds[w + 1], each rounded up to an
    # even row of its shard, where the shard's stream starts on a counter
    # step: a row takes two words, a step gives four.
    bounds = [w * n // workers for w in range(workers + 1)]
    bounds = [row + (row - _shard_of(row, base, rem)[1]) % 2 for row in bounds]
    # The chunk bounds the rows drawn at once by all parts together.
    step = max(1, _CHUNK // workers)
    tallies = [np.zeros(n_cells, dtype=np.int64) for _ in range(workers)]
    errors = []

    def run(w):
        row, end = bounds[w], bounds[w + 1]
        k, first = _shard_of(row, base, rem)
        try:
            bits = np.random.Philox(key=seed)
            start_state = bits.state  # key (seed, 0), zero counter, empty buffer
            top = np.empty(2 * step, dtype=np.uint64)
            index = np.empty(step, dtype=np.intp)
            cells = np.empty(step, dtype=cell_table.dtype)
            while row < end:
                stop = min(end, first + base + (k < rem))
                _rekey(bits, start_state, k)
                if row > first:
                    bits.advance((row - first) // 2)
                for start in range(row, stop, step):
                    # Consecutive chunks are consecutive rows of one stream;
                    # row r is words 2r and 2r + 1.
                    m = min(step, stop - start)
                    words = bits.random_raw(2 * m)
                    i, c = index[:m], cells[:m]
                    # Each word's bucket, below 2^_GUIDE_BITS, read as an index.
                    t = np.right_shift(words, 64 - _GUIDE_BITS, out=top[: 2 * m]).view(np.intp)
                    state_table.take(t[0::2], out=i, mode="clip")
                    i += t[1::2]
                    cell_table.take(i, out=c, mode="clip")
                    slow = np.flatnonzero(c == n_cells)
                    if slow.size:
                        u = words.reshape(m, 2)[slow] >> 11
                        states = (u[:, :1] >= state_cuts).sum(axis=1)
                        outcomes = (u[:, 1:] >= outcome_cuts[states]).sum(axis=1)
                        c[slow] = states * n_out + outcomes
                    tallies[w] += np.bincount(c, minlength=n_cells)
                row, k, first = stop, k + 1, first + base + (k < rem)
        except Exception as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    counts = np.sum(tallies, axis=0).reshape(n_states, n_out)

    identify = _identify_outcomes(scheme.povm, n_states)
    p_hat = int(counts[np.arange(n_states), identify].sum()) / n
    return SimResult(
        n=n,
        counts=counts,
        empirical_success=float(p_hat),
        std_error=float(np.sqrt(p_hat * (1.0 - p_hat) / n)),
        seed=seed,
    )


def sweep(check: str, gammas, priors_list) -> ComparisonColumns:
    """Compare ``check`` (``"2.1"`` or ``"3.1"``) over a gamma-by-priors grid.

    Returns :func:`analysis.compare_columns` over the grid, gammas-major,
    where a point outside the check's domain has a row code, not an error.
    """
    gammas = [float(g) for g in gammas]
    priors_list = tuple(priors_list)
    if not gammas or not priors_list:
        raise EmptyGridError("empty parameter grid")
    return compare_columns(check, gammas, priors_list)
