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
import json
import re

import goldens
import numpy as np
import pytest

from statedisc import cli
from statedisc.montecarlo import sweep
from statedisc.serialize import CSV_HEADER

GOLDEN = goldens.load("golden_compare.json")
PER_CODE = re.compile(r"^ \(((?:\w+: \d+)(?:, \w+: \d+)*)\)$")


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda c: c["name"])
def test_compare_stdout_and_summary(case):
    out, err = goldens.ok(case["argv"])
    goldens.same(goldens.sha(out), case["stdout_sha256"], f"the {case['name']} stdout sha256")
    # The fields of the summary are unchanged; per-code skip counts follow
    # them when points were skipped.
    summary = err.strip()
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
    priors = [tuple(p) for p in ref["priors"]]
    grid = sweep(check, ref["gammas"], priors)
    compared = np.flatnonzero(grid.code == 0)
    records = [_record_fields(grid.record(i)) for i in compared]
    # A skipped point's priors are as given: grid.priors holds them sorted
    # for 3.1, and a row of another count than 3 as its count.
    skipped = [
        [float(grid.gamma[i]), [float(x) for x in priors[i % len(priors)]],
         grid.error(i).code]
        for i in np.flatnonzero(grid.code).tolist()
    ]
    goldens.same(json.dumps(records), json.dumps(ref["records"]), f"the {check} records")
    goldens.same(json.dumps(skipped), json.dumps(ref["skipped"]), f"the {check} skipped points")


#: Block sizes of one point, a size that divides no row, and the whole grid.
BLOCKS = [1, 7, 2**30]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda c: c["name"])
def test_block_edges_do_not_change_output(monkeypatch, case, block):
    want = goldens.ok(case["argv"])
    monkeypatch.setattr(cli, "_BLOCK", block)
    out, err = goldens.ok(case["argv"])
    goldens.same(goldens.sha(out), case["stdout_sha256"], f"the {case['name']} stdout sha256")
    assert err.startswith(case["summary"])
    assert (out, err) == want


@pytest.mark.parametrize("block", BLOCKS)
def test_block_edges_do_not_change_the_output_file(monkeypatch, tmp_path, block):
    case = GOLDEN["cli"][1]
    monkeypatch.setattr(cli, "_BLOCK", block)
    target = tmp_path / "out"
    out, err = goldens.ok(case["argv"] + ["--output", str(target)])
    assert out == ""
    goldens.same(goldens.sha(target.read_bytes()), case["stdout_sha256"],
                 f"the {case['name']} output file sha256")
    assert err.startswith(case["summary"])
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("fmt, want", [("json", "[]\n"), ("csv", CSV_HEADER + "\n")])
def test_a_grid_with_every_point_skipped(monkeypatch, fmt, want, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    out, err = goldens.ok(["compare", "--theorem", "3.1", "--gamma-grid",
                           "1:1.2:0.1", "--format", fmt])
    assert out == want
    assert err == (
        "points: 0  failures: 0  min margin: n/a  skipped: 426 (InvalidGamma: 426)\n"
    )
