import numpy as np
import pytest

from statedisc.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    LabelMismatchError,
    NotHermitianError,
    NotPsdError,
)
from statedisc.measurement import (
    OutcomeLabel,
    Povm,
    _identify_outcomes,
    confusion_matrix,
    unambiguity_check,
)
from statedisc.schemes import build_mixed_special
from statedisc.states import Ensemble, Ket


def projective_povm(dim, labels=None):
    elements = tuple(np.outer(e, e) for e in np.eye(dim))
    labels = labels or tuple(OutcomeLabel.identify(i) for i in range(dim))
    return Povm(elements=elements, labels=labels)


def two_state_ensemble(theta, priors=(0.5, 0.5)):
    # symmetric pair about |0>, overlap cos(2 theta)
    a = Ket(np.array([np.cos(theta), np.sin(theta)]))
    b = Ket(np.array([np.cos(theta), -np.sin(theta)]))
    return Ensemble(states=(a, b), priors=priors)


def test_outcome_label_forms():
    assert str(OutcomeLabel.identify(2)) == "identify:2"
    assert str(OutcomeLabel.inconclusive()) == "inconclusive"
    assert OutcomeLabel.identify(0).is_identify
    assert not OutcomeLabel.inconclusive().is_identify


def test_povm_validation():
    good = projective_povm(2)
    assert good.dim == 2 and good.n_outcomes == 2
    with pytest.raises(NotPsdError):
        Povm(
            elements=(np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])),
            labels=(OutcomeLabel.identify(0), OutcomeLabel.identify(1)),
        )
    # completeness violation
    with pytest.raises(Exception):
        Povm(
            elements=(np.diag([0.5, 0.5]), np.diag([0.25, 0.25])),
            labels=(OutcomeLabel.identify(0), OutcomeLabel.identify(1)),
        )
    with pytest.raises(LabelMismatchError):
        Povm(elements=(np.eye(2),), labels=())


@pytest.mark.parametrize(
    "elements, error, message",
    [
        # The first failing element raises, whatever a later one does.
        ((np.diag([1.5, -0.5]), [[0.0, 1.0], [0.0, 0.0]], np.eye(3)),
         NotPsdError, "POVM element eigenvalue -5.000e-01"),
        ((np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.diag([-1.0, 1.0])),
         NotHermitianError, "Hermiticity residual 1.414e+00 exceeds 1e-09"),
        ((np.eye(2), np.eye(3), [[0.0, 1.0], [0.0, 0.0]]),
         DimensionMismatchError, "POVM elements differ in dimension"),
        ((np.diag([0.5, 0.5]), np.diag([0.25, 0.25]), np.diag([0.0, 0.0])),
         InvariantViolationError, "POVM completeness residual 3.536e-01 > 1e-09"),
    ],
)
def test_povm_reports_the_first_failing_element(elements, error, message):
    labels = tuple(OutcomeLabel.identify(k) for k in range(len(elements)))
    with pytest.raises(error) as info:
        Povm(elements=elements, labels=labels)
    assert str(info.value) == message


def test_identify_outcome_lookup():
    p = projective_povm(3)
    assert p.identify_outcome(1) == 1
    with pytest.raises(LabelMismatchError):
        p.identify_outcome(7)
    # -1 is no outcome's state, not the inconclusive one's.
    special = build_mixed_special(0.5, (0.3, 0.3, 0.4)).povm
    assert [special.identify_outcome(i) for i in range(3)] == [0, 1, 2]
    with pytest.raises(LabelMismatchError, match="0 outcomes identify state -1"):
        special.identify_outcome(-1)


def test_identify_lookups_name_the_first_bad_state():
    twice = (OutcomeLabel.identify(0), OutcomeLabel.identify(0))
    with pytest.raises(LabelMismatchError, match="2 outcomes identify state 0"):
        projective_povm(2, labels=twice).identify_outcome(0)
    with pytest.raises(LabelMismatchError, match="0 outcomes identify state 1"):
        projective_povm(2, labels=twice).identify_outcome(1)
    with pytest.raises(LabelMismatchError, match="ensemble has 2"):
        unambiguity_check(
            two_state_ensemble(0.3),
            projective_povm(2, labels=(OutcomeLabel.identify(0),
                                       OutcomeLabel.identify(2))),
        )


def test_identify_outcomes_rejects_a_label_beyond_the_states_first():
    labels = tuple(map(OutcomeLabel.identify, (0, 0, 5, 4)))
    with pytest.raises(LabelMismatchError, match="identifies state 5, ensemble has 3"):
        _identify_outcomes(projective_povm(4, labels=labels), 3)
    labels = (*map(OutcomeLabel.identify, (2, 0, 1)), OutcomeLabel.inconclusive())
    assert _identify_outcomes(projective_povm(4, labels=labels), 3).tolist() == [1, 2, 0]


def test_povm_elements_are_one_read_only_stack():
    elements = [np.diag([1.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]]]
    p = Povm(elements=elements, labels=projective_povm(2).labels)
    assert p.elements.shape == (2, 2, 2) and p.elements.dtype == np.complex128
    assert not p.elements.flags.writeable
    with pytest.raises(ValueError):
        p.elements[0, 0, 0] = 0.5
    assert len(p.elements) == 2 and np.array_equal(p.elements[1], elements[1])
    assert [m.tolist() for m in p.elements] == [np.asarray(m).tolist() for m in elements]
    assert np.array_equal(sum(p.elements), np.eye(2))
    elements[1][0][0] = 1.0  # the POVM holds its own copy
    assert p.elements[1, 0, 0] == 0.0


def test_confusion_matrix_rows_sum_to_one():
    e = two_state_ensemble(0.4)
    conf = confusion_matrix(e, projective_povm(2))
    assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-12)


def unambiguous_two_state_povm(overlap):
    """Optimal symmetric unambiguous POVM for a real qubit pair.

    For states with |<a|b>| = s the failure element has weight s on each
    identifying direction's complement.
    """
    s = overlap
    a_perp = np.array([np.sin(0.3), -np.cos(0.3)])
    b_perp = np.array([np.sin(0.3), np.cos(0.3)])
    w = 1.0 / (1.0 + s)
    m0 = w * np.outer(b_perp, b_perp)
    m1 = w * np.outer(a_perp, a_perp)
    fail = np.eye(2) - m0 - m1
    return Povm(
        elements=(m0, m1, fail),
        labels=(
            OutcomeLabel.identify(0),
            OutcomeLabel.identify(1),
            OutcomeLabel.inconclusive(),
        ),
    )


def test_unambiguous_two_state_discrimination():
    theta = 0.3
    e = two_state_ensemble(theta)
    s = float(np.cos(theta) ** 2 - np.sin(theta) ** 2)  # <a|b>
    p = unambiguous_two_state_povm(s)
    ok, worst = unambiguity_check(e, p)
    assert ok and worst < 1e-10
    conf = confusion_matrix(e, p)
    got = 0.5 * conf[0, 0] + 0.5 * conf[1, 1]
    assert got == pytest.approx(1.0 - s, abs=1e-10)  # IDP value for equal priors
    assert 1.0 - 0.5 * conf[:, 2].sum() == pytest.approx(got, abs=1e-12)


def test_unambiguity_check_needs_one_identifying_outcome_per_state():
    theta = 0.3
    e = two_state_ensemble(theta)
    p = projective_povm(
        2, labels=(OutcomeLabel.identify(0), OutcomeLabel.inconclusive())
    )
    # no outcome identifies state 1
    with pytest.raises(LabelMismatchError, match="0 outcomes identify state 1"):
        unambiguity_check(e, p)


def test_unambiguity_check_detects_cross_terms():
    theta = 0.3
    e = two_state_ensemble(theta)
    m0 = np.diag([0.6, 0.0])
    m1 = np.diag([0.0, 0.6])
    fail = np.eye(2) - m0 - m1
    p = Povm(
        elements=(m0, m1, fail),
        labels=(
            OutcomeLabel.identify(0),
            OutcomeLabel.identify(1),
            OutcomeLabel.inconclusive(),
        ),
    )
    ok, worst = unambiguity_check(e, p)
    assert not ok and worst > 0.01
