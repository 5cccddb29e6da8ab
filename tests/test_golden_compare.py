"""``compare`` output and ``sweep`` records that must stay byte-identical.

``golden_compare.json`` was captured from the package while every grid
point still went through the scalar checks one by one, before the
column kernel existed.  For each CLI grid it holds the argv, the sha256
of stdout and the stderr summary line; for two library sweeps (both
theorems, with out-of-domain gammas and malformed priors among the
inputs) it holds every record's and every skipped point's field values.
Field values are compared through ``json.dumps``, which writes floats
with ``repr``: equal text is equal bits, ``-0.0`` and NaN included.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from statedisc import cli
from statedisc.montecarlo import sweep
from statedisc.serialize import CSV_HEADER

GOLDEN = json.loads((Path(__file__).parent / "golden_compare.json").read_text())
PER_CODE = re.compile(r"^ \(((?:\w+: \d+)(?:, \w+: \d+)*)\)$")


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda c: c["name"])
def test_compare_stdout_and_summary(capsys, case):
    code = cli.main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == case["stdout_sha256"]
    # The fields of the summary are unchanged; per-code skip counts follow
    # them when points were skipped.
    summary = captured.err.strip()
    assert summary.startswith(case["summary"])
    skipped = int(case["summary"].rsplit("skipped: ", 1)[1])
    rest = summary[len(case["summary"]):]
    if skipped == 0:
        assert rest == ""
    else:
        m = PER_CODE.match(rest)
        assert m, summary
        counts = [int(item.split(": ")[1]) for item in m.group(1).split(", ")]
        assert sum(counts) == skipped


def _record_fields(r):
    return [r.gamma, r.alpha, list(r.priors), r.p_mixed, r.p_una_reference,
            r.reference_kind, r.margin, r.verdict]


@pytest.mark.parametrize("check", sorted(GOLDEN["sweep"]))
def test_sweep_records_and_skipped(check):
    ref = GOLDEN["sweep"][check]
    result = sweep(check, ref["gammas"], [tuple(p) for p in ref["priors"]])
    records = [_record_fields(r) for r in result.records]
    skipped = [[s.gamma, list(s.priors), s.code] for s in result.skipped]
    assert json.dumps(records) == json.dumps(ref["records"])
    assert json.dumps(skipped) == json.dumps(ref["skipped"])


#: Block sizes of one point, a size that divides no row, and the whole grid.
BLOCKS = [1, 7, 2**30]


def _compare(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out, captured.err


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda c: c["name"])
def test_block_edges_do_not_change_output(capsys, monkeypatch, case, block):
    want = _compare(capsys, case["argv"])
    monkeypatch.setattr(cli, "_BLOCK", block)
    out, err = _compare(capsys, case["argv"])
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
    assert err.startswith(case["summary"])
    assert (out, err) == want


@pytest.mark.parametrize("block", BLOCKS)
def test_block_edges_do_not_change_the_output_file(capsys, monkeypatch, tmp_path,
                                                   block):
    case = GOLDEN["cli"][1]
    monkeypatch.setattr(cli, "_BLOCK", block)
    target = tmp_path / "out"
    out, err = _compare(capsys, case["argv"] + ["--output", str(target)])
    assert out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == case["stdout_sha256"]
    assert err.startswith(case["summary"])
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("fmt, want", [("json", "[]\n"), ("csv", CSV_HEADER + "\n")])
def test_a_grid_with_every_point_skipped(capsys, monkeypatch, fmt, want, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    out, err = _compare(capsys, ["compare", "--theorem", "3.1", "--gamma-grid",
                                 "1:1.2:0.1", "--format", fmt])
    assert out == want
    assert err == (
        "points: 0  failures: 0  min margin: n/a  skipped: 426 (InvalidGamma: 426)\n"
    )
