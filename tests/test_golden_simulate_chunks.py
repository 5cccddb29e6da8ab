"""Seeded tallies around the edges of the draw chunk.

``simulate`` draws each shard's uniforms in chunks of
``montecarlo._CHUNK`` rows.  ``golden_simulate_chunks.json`` was captured
from the package when each shard still drew its whole block at once: per
case it holds the CLI flags, n = C - 1, C, C + 1 and 3C + 5 for the chunk
size C, 1 and 3 shards, seeds 0 and 2^64 - 1, and the parsed ``simulate``
JSON.  Floats round-trip through JSON exactly, so comparing parsed values
is comparing bytes.
"""
import json

import goldens
import pytest

from statedisc import montecarlo
from statedisc.schemes import build_mixed_special

GOLDEN = goldens.load("golden_simulate_chunks.json")
CASES = GOLDEN["cases"]


def _id(case) -> str:
    return f"{case['kind']}-n{case['n']}-s{case['shards']}-seed{case['seed']}"


def _check_tallies(case, what=""):
    out, _ = goldens.ok(["simulate", "--scheme", case["kind"], *case["flags"],
                         "--n", str(case["n"]), "--seed", str(case["seed"]),
                         "--shards", str(case["shards"])])
    goldens.same(json.loads(out), case["simulate"], f"the {_id(case)} tallies{what}")


def test_golden_chunk_matches_the_constant():
    assert GOLDEN["chunk"] == montecarlo._CHUNK


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_tallies_around_chunk_edges(case):
    _check_tallies(case)


@pytest.mark.parametrize("chunk", [1000, 4097])
def test_golden_tallies_do_not_depend_on_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    for case in CASES:
        _check_tallies(case, f" at chunk {chunk}")


@pytest.mark.parametrize("shards", [1, 3])
def test_single_row_chunks_match_one_chunk(monkeypatch, shards):
    scheme = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    whole = montecarlo.simulate(scheme, 101, seed=2**64 - 1, shards=shards)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1)
    assert montecarlo.simulate(scheme, 101, seed=2**64 - 1, shards=shards) == whole
