import json

import numpy as np
import pytest

from statedisc import serialize
from statedisc.analysis import simplex_grid
from statedisc.errors import (
    DimensionMismatchError,
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
    back = serialize._pairs_from_json(through_json(serialize._pairs_to_json(v)), 1)
    assert np.array_equal(back, v)
    m = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    back = serialize._pairs_from_json(through_json(serialize._pairs_to_json(m)), 2)
    assert np.array_equal(back, m)


def test_ket_and_ensemble_round_trip():
    ens = Ensemble(
        (np.array([1.0, 0.0]), np.array([0.6, 0.8])),
        np.array([0.25, 0.75]),
    )
    back = serialize.ensemble_from_json(through_json(serialize.ensemble_to_json(ens)))
    assert np.array_equal(back.priors, ens.priors)
    for a, b in zip(back.states, ens.states):
        assert np.array_equal(a, b)


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
    with pytest.raises(ParamOutOfRangeError, match="priors must be non-negative"):
        serialize.scheme_from_json(json.loads(json.dumps(data)))


def test_params_unknown_kind_rejected():
    with pytest.raises(ParamOutOfRangeError):
        serialize.params_from_json({"kind": "telepathy"})
    # A params object of no scheme kind is not written either.
    for foreign, name in (({"kind": "rra"}, "dict"), (object(), "object")):
        with pytest.raises(ParamOutOfRangeError) as info:
            serialize.params_to_json(foreign)
        assert str(info.value) == f"unknown params type {name}"


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
    grid = sweep(check, gammas, simplex_grid(step))
    table = grid.select(grid.code == 0)
    records = [table.record(i) for i in range(len(table))]
    csv_text = "".join(serialize.comparison_csv_pieces([table]))
    assert csv_text == serialize.comparison_records_to_csv(records)
    want = json.dumps(
        [serialize.comparison_record_to_json(r) for r in records], indent=2
    )
    assert "".join(serialize.comparison_json_pieces([table])) == want + "\n"


# The loaders read well-formed [re, im] arrays in one step and everything
# else pair by pair; each malformed case raises what reading pair by pair
# raises (the types below were taken from the pair-by-pair loaders).
PAIR = [0.8, 0.0]
MALFORMED_PAIRS = [
    ("null pair", [None, PAIR], TypeError),
    ("null real part", [[None, 0.0], PAIR], TypeError),
    ("null imaginary part", [[0.6, None], PAIR], TypeError),
    ("non-numeric string", [["abc", 0.0], PAIR], ValueError),
    ("short pair", [[0.6], PAIR], ValueError),
    ("long pair", [[0.6, 0.0, 1.0], PAIR], ValueError),
    ("empty pair", [[], PAIR], ValueError),
    ("ragged", [[0.6, 0.0], [0.8]], ValueError),
    ("number for a pair", [0.6, PAIR], TypeError),
    ("numbers only", [0.6, 0.8], TypeError),
    ("nested part", [[[0.6], 0.0], PAIR], TypeError),
    ("object for a pair", [{"re": 0.6, "im": 0.0}, PAIR], ValueError),
    ("integer too large", [[10**400, 0], PAIR], OverflowError),
]


@pytest.mark.parametrize("name, rows, error", MALFORMED_PAIRS,
                         ids=[c[0] for c in MALFORMED_PAIRS])
def test_malformed_pairs_raise_as_pair_by_pair(name, rows, error):
    with pytest.raises(error):
        serialize._pairs_from_json(rows, 1)
    with pytest.raises(error):
        serialize._pairs_from_json([rows, rows], 2)


@pytest.mark.parametrize("rows, values", [
    ([["0.6", "0"], PAIR], [0.6, 0.8]),  # numeric strings read as float() does
    (["06", PAIR], [6j, 0.8]),  # so does a two-character string
    ([[True, False], PAIR], [1.0, 0.8]),
    ([[float("nan"), 0.0], PAIR], [complex(float("nan"), 0.0), 0.8]),
    ([], []),
])
def test_odd_but_readable_pairs_read_as_pair_by_pair(rows, values):
    got = serialize._pairs_from_json(rows, 1)
    assert got.dtype == np.complex128
    np.testing.assert_array_equal(got, np.array(values, dtype=np.complex128))


def test_pairs_read_and_write_keep_every_bit():
    rng = np.random.default_rng(18)
    m = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    m[0, :] = -0.0
    m[1, :] = complex(0.0, -0.0)
    rows = through_json(serialize._pairs_to_json(m))
    assert rows == [[[z.real, z.imag] for z in row] for row in m.tolist()]
    back = serialize._pairs_from_json(rows, 2)
    assert back.tobytes() == m.tobytes()
    by_pair = np.array([[serialize.complex_from_json(p) for p in row] for row in rows])
    assert back.tobytes() == by_pair.tobytes()


def _mixed_special_json():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    return through_json(serialize.scheme_to_json(s))


@pytest.mark.parametrize("path, value, error", [
    (["coupling", 0, 0], None, TypeError),
    (["coupling", 0, 0, 1], None, TypeError),
    (["coupling", 0, 0, 0], "x", ValueError),
    (["coupling", 0, 0], [1.0], ValueError),
    (["coupling", 0], [[1.0, 0.0]], ValueError),
    (["ensemble", "states", 0, 0], None, TypeError),
    (["povm", "elements", 0, 0, 0], None, TypeError),
    (["povm", "elements", 1, 2, 3, 0], None, TypeError),
    (["povm", "elements", 0, 0, 0, 1], "i", ValueError),
    (["povm", "elements", 3], 1.0, TypeError),
    # A NaN written into the file is non-finite, where a null is a TypeError.
    (["povm", "elements", 0, 0, 0, 0], float("nan"), InvariantViolationError),
])
def test_tampered_scheme_arrays_fail_as_before(path, value, error):
    data = _mixed_special_json()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(error):
        serialize.scheme_from_json(data)


@pytest.mark.parametrize("path, value, message", [
    (["ancilla_dim"], 0, "ancilla dim 0 < 1"),
    # A POVM on the system alone, where the joint space has dimension 6.
    (["povm"], {"elements": [serialize._pairs_to_json(np.eye(3))],
                "labels": ["inconclusive"]}, "POVM dim 3, joint space dim 6"),
])
def test_scheme_fields_of_another_dimension_raise(path, value, message):
    data = _mixed_special_json()
    data[path[0]] = value
    with pytest.raises(DimensionMismatchError) as info:
        serialize.scheme_from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize("path, value, error, message", [
    # Only a JSON integer is an ancilla dimension: nothing is truncated.
    (["ancilla_dim"], 2.9, TypeError, "not a JSON integer"),
    (["ancilla_dim"], 2.0, TypeError, "not a JSON integer"),
    (["ancilla_dim"], "2", TypeError, "not a JSON integer"),
    (["ancilla_dim"], True, TypeError, "not a JSON integer"),
    # A label is text, and its index canonical ASCII digits as written.
    (["povm", "labels", 0], 5, LabelMismatchError, "unknown outcome label"),
    (["povm", "labels", 0], None, LabelMismatchError, "unknown outcome label"),
    (["povm", "labels", 1], "identify:+1", LabelMismatchError, "unknown outcome"),
    (["povm", "labels", 1], "identify: 1", LabelMismatchError, "unknown outcome"),
    (["povm", "labels", 1], "identify:01", LabelMismatchError, "unknown outcome"),
    (["povm", "labels", 0], "identify:0_0", LabelMismatchError, "unknown outcome"),
    (["povm", "labels", 2], "identify:\u0662", LabelMismatchError, "unknown outcome"),
    # The inconclusive outcome relabelled: every state still has one outcome.
    (["povm", "labels", 3], "identify:7", LabelMismatchError,
     "label identifies state 7, ensemble has 3"),
    # Past int()'s default digit limit, not a raw ValueError.
    *(pytest.param(["povm", "labels", 1], "identify:" + "1" * digits,
                   LabelMismatchError, "unknown outcome", id=f"{digits}-digits")
      for digits in (4301, 5000)),
])
def test_malformed_scheme_fields_raise(path, value, error, message):
    data = _mixed_special_json()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(error, match=message):
        serialize.scheme_from_json(data)
