import json

import numpy as np
import pytest

from statedisc import serialize
from statedisc.analysis import simplex_grid
from statedisc.errors import (
    InvariantViolationError,
    LabelMismatchError,
    ParamOutOfRangeError,
)
from statedisc.measurement import OutcomeLabel
from statedisc.montecarlo import sweep
from statedisc.schemes import (
    build_mixed_general,
    build_mixed_special,
    build_rra,
    build_unambiguous_special,
    build_zero_aux,
)
from statedisc.states import Ensemble, Ket


def through_json(obj):
    """Round trip through actual JSON text, not just dicts."""
    return json.loads(json.dumps(obj))


def test_format_float_rendering():
    assert serialize.format_float(0.5) == "0.5"
    assert serialize.format_float(-0.0) == "0"
    assert serialize.format_float(1 / 3) == "0.333333333333"
    assert serialize.format_float(1.25e-13) == "1.25e-13"
    assert serialize.format_float(2) == "2"


def test_scalar_and_array_round_trips():
    z = 0.3 - 1.7j
    assert serialize.complex_from_json(through_json(serialize.complex_to_json(z))) == z
    v = np.array([1.0, 0.5j, -0.25 + 0.125j])
    back = serialize.vector_from_json(through_json(serialize.vector_to_json(v)))
    assert np.array_equal(back, v)
    m = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    back = serialize.matrix_from_json(through_json(serialize.matrix_to_json(m)))
    assert np.array_equal(back, m)


def test_ket_and_ensemble_round_trip():
    ens = Ensemble(
        (Ket(np.array([1.0, 0.0])), Ket(np.array([0.6, 0.8]))),
        np.array([0.25, 0.75]),
    )
    back = serialize.ensemble_from_json(through_json(serialize.ensemble_to_json(ens)))
    assert np.array_equal(back.priors, ens.priors)
    for a, b in zip(back.states, ens.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_ensemble_loader_revalidates():
    data = {"states": [[[2.0, 0.0]]], "priors": [1.0]}
    with pytest.raises(InvariantViolationError):
        serialize.ensemble_from_json(data)


def test_label_round_trip_and_rejection():
    for label in (OutcomeLabel.identify(3), OutcomeLabel.inconclusive()):
        assert serialize.label_from_json(serialize.label_to_json(label)) == label
    with pytest.raises(LabelMismatchError):
        serialize.label_from_json("discard")


def test_povm_round_trip():
    povm = build_mixed_special(0.5, (0.3, 0.3, 0.4)).povm
    back = serialize.povm_from_json(through_json(serialize.povm_to_json(povm)))
    assert back.labels == povm.labels
    for a, b in zip(back.elements, povm.elements):
        assert np.array_equal(a, b)


def rra_scheme():
    c = np.sqrt((1.0 + 0.36) / 2.0)
    s = np.sqrt((1.0 - 0.36) / 2.0)
    plus = Ket(np.array([c, s]))
    minus = Ket(np.array([c, -s]))
    return build_rra(plus, minus, (0.5, 0.5), 0.6, 0.6)


ALL_SCHEMES = [
    rra_scheme(),
    build_mixed_special(0.5, (0.3, 0.3, 0.4)),
    build_mixed_general(0.4, 0.1, (0.2, 0.3, 0.5)),
    build_unambiguous_special(0.3, 0.5, 0.7, (0.3, 0.3, 0.4)),
    build_zero_aux(0.09, 0.3, 0.3, (1 / 3, 1 / 3, 1 / 3)),
]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.params.kind)
def test_scheme_round_trip(scheme):
    back = serialize.scheme_from_json(
        through_json(serialize.scheme_to_json(scheme))
    )
    assert np.array_equal(back.coupling, scheme.coupling)
    assert back.analytic_success == scheme.analytic_success
    assert back.params == scheme.params
    assert back.branch_note == scheme.branch_note
    assert back.povm.labels == scheme.povm.labels
    for a, b in zip(back.povm.elements, scheme.povm.elements):
        assert np.array_equal(a, b)


def test_scheme_loader_rejects_tampering():
    data = serialize.scheme_to_json(build_mixed_special(0.5, (0.3, 0.3, 0.4)))
    data["analytic_success"] = 0.9
    with pytest.raises(InvariantViolationError):
        serialize.scheme_from_json(data)


def test_scheme_loader_rejects_nan_priors():
    # NaN passed both the priors test and the pipeline-vs-analytic test.
    data = serialize.scheme_to_json(build_mixed_special(0.5, (0.3, 0.3, 0.4)))
    data["ensemble"]["priors"] = [float("nan")] * 3
    with pytest.raises(InvariantViolationError):
        serialize.scheme_from_json(json.loads(json.dumps(data)))


def test_params_unknown_kind_rejected():
    with pytest.raises(ParamOutOfRangeError):
        serialize.params_from_json({"kind": "telepathy"})


def make_record():
    from statedisc.analysis import theorem21_check

    return theorem21_check(0.5, (0.3, 0.3, 0.4))


def test_comparison_record_csv_row():
    rec = make_record()
    header, row = serialize.comparison_records_to_csv([rec]).splitlines()
    assert header == serialize.CSV_HEADER
    cells = row.split(",")
    assert len(cells) == 10
    assert cells[0] == "0.5"
    assert cells[1] == ""  # family comparison carries no alpha
    assert cells[2:5] == ["0.3", "0.3", "0.4"]
    assert cells[5] == "0.7"
    assert cells[9] == "true"
    assert float(cells[8]) == pytest.approx(rec.margin, abs=1e-11)


def test_comparison_record_csv_alpha_column():
    from statedisc.analysis import theorem31_check

    rec = theorem31_check(0.4, (0.2, 0.3, 0.5))
    cells = serialize.comparison_records_to_csv([rec]).splitlines()[1].split(",")
    assert cells[1] == "0.4"


def test_records_to_csv_document():
    recs = [make_record(), make_record()]
    doc = serialize.comparison_records_to_csv(recs)
    lines = doc.split("\n")
    assert lines[0] == serialize.CSV_HEADER
    assert len(lines) == 4 and lines[3] == ""  # trailing newline
    assert doc == serialize.comparison_records_to_csv(recs)  # byte stable


@pytest.mark.parametrize(
    "check, gammas, step",
    [("2.1", [-0.3, 0.0, 0.4, 0.7], 0.02), ("3.1", [-0.0, 0.3, 0.9, 1.0], 0.1),
     ("2.1", [0.0], 0.5)],
    ids=["2.1-over-one-chunk", "3.1-negative-zero", "empty"],
)
def test_column_writers_match_record_writers(check, gammas, step):
    result = sweep(check, gammas, simplex_grid(step))
    csv_text = "".join(serialize.comparison_csv_pieces([result.table]))
    assert csv_text == serialize.comparison_records_to_csv(result.records)
    want = json.dumps(
        [serialize.comparison_record_to_json(r) for r in result.records], indent=2
    )
    assert "".join(serialize.comparison_json_pieces([result.table])) == want + "\n"
