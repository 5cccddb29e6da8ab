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
