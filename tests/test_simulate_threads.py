"""``simulate`` splits its trial rows across threads; the split is exact.

The rows, taken shard after shard, are cut into one contiguous part per
worker, each cut at an even row of its shard, where the shard's Philox
stream is advanced to.  These tests patch the worker count, so a host with
one core also takes the threaded path, and compare the tallies byte for
byte with the single-worker run.  They also pin the numpy Philox behaviour
that a part relies on: advancing, re-keying and the raw words' uniforms.
"""
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from statedisc import montecarlo
from statedisc.schemes import build_mixed_special, build_zero_aux

SCHEMES = {
    "mixed-special": build_mixed_special(0.5, (0.3, 0.3, 0.4)),
    "zero-aux": build_zero_aux(0.09, 0.3, 0.3, (1 / 3, 1 / 3, 1 / 3)),
}

#: (n, shards, chunk): odd shard lengths, chunks of 1, 1000 and 4097 rows,
#: n below the worker count, and more shards than workers.
SPLITS = [
    (1, 1, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1), (3, 3, 1),
    (101, 3, 1), (199, 7, 1), (7, 5, 1000),
    (10**4 + 1, 3, 1000), (10**4 + 7, 7, 1000),
    (65537, 3, 4097), (3 * 4097 + 1, 1, 4097), (20001, 9, 4097),
    (montecarlo._CHUNK + 3, 1, montecarlo._CHUNK),
]


def _counts(monkeypatch, scheme, n, seed, shards, workers):
    monkeypatch.setattr(montecarlo, "_workers", lambda n, shards: workers)
    return montecarlo.simulate(scheme, n, seed, shards).counts.tobytes()


@pytest.mark.parametrize("kind", sorted(SCHEMES))
@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("n, shards, chunk", SPLITS)
def test_split_tallies_equal_one_worker(monkeypatch, kind, workers, n, shards, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    for seed in (0, 2**64 - 1):
        one = _counts(monkeypatch, SCHEMES[kind], n, seed, shards, 1)
        split = _counts(monkeypatch, SCHEMES[kind], n, seed, shards, workers)
        assert split == one, (n, shards, chunk, seed)


def test_split_holds_under_fast_thread_switching(monkeypatch):
    # Four workers on at most as many cores, switching every microsecond:
    # each worker writes only its own tally, so no update is lost.
    _check_split_under_fast_switching(monkeypatch)


def test_split_holds_under_fast_thread_switching_on_the_exact_count(monkeypatch):
    # With two buckets a table, both holding a cut, every row of every
    # worker takes the exact count.
    monkeypatch.setattr(montecarlo, "_GUIDE_BITS", 1)
    _check_split_under_fast_switching(monkeypatch)


def _check_split_under_fast_switching(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 97)
    scheme = SCHEMES["mixed-special"]
    one = _counts(monkeypatch, scheme, 20001, 5, 3, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = _counts(monkeypatch, scheme, 20001, 5, 3, 4)
    finally:
        sys.setswitchinterval(interval)
    assert split == one


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("shard", [0, 5])
def test_advance_by_half_an_even_row_starts_at_that_row(seed, shard):
    # A row takes two 64-bit words and a counter step gives four, so
    # advancing by r / 2 steps skips exactly r rows when r is even.
    key = (shard << 64) | seed
    whole = np.random.Generator(np.random.Philox(key=key)).random((2**17 + 8, 2))
    for r in (0, 2, 6, 100, 2**16, 2**17):
        bits = np.random.Philox(key=key)
        bits.advance(r // 2)
        rows = np.random.Generator(bits).random((8, 2))
        assert rows.tobytes() == whole[r:r + 8].tobytes(), r


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("shard", [0, 2**16 - 1])
def test_a_rekeyed_philox_draws_a_new_ones_words(seed, shard):
    # The re-key writes numpy's Philox state layout: key (seed, shard), a
    # zero counter and an empty buffer.  Drawing first leaves a part-used
    # buffer and a moved counter behind, which the re-key must clear.
    bits = np.random.Philox(key=seed)
    state = bits.state
    bits.random_raw(7)
    bits.advance(5)
    montecarlo._rekey(bits, state, shard)
    fresh = np.random.Philox(key=(shard << 64) | seed)
    assert bits.random_raw(11).tobytes() == fresh.random_raw(11).tobytes()


@pytest.mark.parametrize("key", [0, 7, (5 << 64) | (2**64 - 1), 2**128 - 1])
def test_raw_words_give_the_generator_uniforms(key):
    # The tables classify the raw words as the uniforms they stand for.
    words = np.random.Philox(key=key).random_raw(4099)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(4099)
    assert ((words >> 11) * 2.0**-53).tobytes() == uniforms.tobytes()


def test_workers_follow_cores_chunks_and_shard_length(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    chunk = montecarlo._CHUNK
    assert montecarlo._workers(chunk, 1) == 1
    assert montecarlo._workers(chunk + 1, 1) == 2
    assert montecarlo._workers(10**7, 4) == 4
    # Short shards stay on the calling thread.
    assert montecarlo._workers(10**6, 2**16) == 1
    assert montecarlo._workers(10**6, 10**6 // (chunk // 16)) == 4
    assert montecarlo._workers(10**6, 10**6 // (chunk // 16) + 1) == 1


def _peak(monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "_workers", lambda n, shards: workers)
    scheme = SCHEMES["mixed-special"]
    tracemalloc.start()
    try:
        montecarlo.simulate(scheme, 10**6, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_one_chunk_in_all(monkeypatch):
    # Each worker draws its share of one chunk at a time, not a chunk.
    # The first run in a process also allocates once what later runs reuse.
    montecarlo.simulate(SCHEMES["mixed-special"], 10**6, 1)
    one = _peak(monkeypatch, 1)
    for workers in (2, 4):
        assert _peak(monkeypatch, workers) <= 1.05 * one, workers


def test_no_thread_outlives_simulate(monkeypatch):
    before = threading.active_count()
    _counts(monkeypatch, SCHEMES["mixed-special"], 10**5, 3, 2, 4)
    assert threading.active_count() == before


class _FailingPhilox(np.random.Philox):
    def advance(self, delta):
        raise RuntimeError("advance failed")


def test_a_worker_error_reaches_the_caller(monkeypatch):
    # Only parts that start inside a shard advance, and the calling thread
    # runs the first part, so the error is raised on a worker thread.
    monkeypatch.setattr(np.random, "Philox", _FailingPhilox)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="advance failed"):
        _counts(monkeypatch, SCHEMES["mixed-special"], 1000, 3, 1, 2)
    assert threading.active_count() == before


def test_threaded_cli_run_exits():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "statedisc", "simulate", "--scheme",
         "mixed-special", "--gamma", "0.5", "--priors", "0.3,0.3,0.4",
         "--n", "300000", "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"n": 300000' in proc.stdout
