"""Byte-stable outputs on every branch of the flagged-ancilla recipe.

``golden_branches.json`` was captured from the package before the four
coupled builders shared one recipe.  Each entry names a branch: the
``r = 0`` snap of the mixed coupling (``|c| = 1``, from ``gamma =
+-1/sqrt(2)`` or a general pair on the realizability boundary), ``c = 0``,
``alpha >= gamma^2`` and ``alpha < 0``, a failure amplitude of modulus 1
for rra, and the ``x0 = gamma^2``, ``x0 = 0`` and ``x0 = 1`` corners of
the unambiguous family.  Each holds the CLI flags, the sha256 of ``dump``
stdout and the parsed ``simulate`` JSON (n = 10^5, seed 20151206) for 1
and 4 shards.
"""
import hashlib
import json
from pathlib import Path

import pytest

from statedisc import cli, serialize

GOLDEN = json.loads((Path(__file__).parent / "golden_branches.json").read_text())


def _cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_dump_bytes(capsys, case):
    ref = GOLDEN[case]
    out = _cli(capsys, ["dump", *ref["flags"]])
    assert hashlib.sha256(out.encode()).hexdigest() == ref["dump_sha256"]
    # The dump reloads into a scheme that passes the pipeline check again.
    serialize.scheme_from_json(json.loads(out))


@pytest.mark.parametrize("shards", ["1", "4"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulate_tallies(capsys, case, shards):
    ref = GOLDEN[case]
    argv = ["simulate", *ref["flags"],
            "--n", "100000", "--seed", "20151206", "--shards", shards]
    assert json.loads(_cli(capsys, argv)) == ref["simulate"][shards]
