from collections import Counter
from unittest import mock

import numpy as np
import pytest

from statedisc import linalg, measurement, tol
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
from statedisc.states import Ensemble


def projective_povm(dim, labels=None):
    elements = tuple(np.outer(e, e) for e in np.eye(dim))
    labels = labels or tuple(OutcomeLabel.identify(i) for i in range(dim))
    return Povm(elements=elements, labels=labels)


def two_state_ensemble(theta, priors=(0.5, 0.5)):
    # symmetric pair about |0>, overlap cos(2 theta)
    a = np.array([np.cos(theta), np.sin(theta)])
    b = np.array([np.cos(theta), -np.sin(theta)])
    return Ensemble(states=(a, b), priors=priors)


def test_outcome_label_forms():
    assert str(OutcomeLabel.identify(2)) == "identify:2"
    assert str(OutcomeLabel.inconclusive()) == "inconclusive"
    assert OutcomeLabel.identify(0).is_identify
    assert not OutcomeLabel.inconclusive().is_identify


@pytest.mark.parametrize(
    "index, message",
    [
        (1.5, "identify index 1.5 is not an integer"),
        (True, "identify index True is not an integer"),
        (np.True_, "identify index np.True_ is not an integer"),
        (None, "identify index None is not an integer"),
        ("2", "identify index '2' is not an integer"),
        (np.float64(2.0), "identify index np.float64(2.0) is not an integer"),
        (-1, "identify index -1 is negative"),
        (np.int64(-1), "identify index -1 is negative"),
    ],
    ids=["fraction", "bool", "numpy-bool", "none", "text", "numpy-float",
         "negative", "numpy-negative"],
)
def test_outcome_label_takes_only_a_non_negative_integer(index, message):
    for make in (OutcomeLabel.identify, OutcomeLabel):
        if index is None and make is OutcomeLabel:
            continue  # OutcomeLabel(None) is the inconclusive label
        with pytest.raises(LabelMismatchError) as info:
            make(index)
        assert str(info.value) == message


def test_outcome_label_reads_a_numpy_integer_as_an_int():
    label = OutcomeLabel.identify(np.int64(2))
    assert type(label.index) is int and label == OutcomeLabel.identify(2)
    assert str(label) == "identify:2"
    assert OutcomeLabel(None) == OutcomeLabel.inconclusive()


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
        # A first element that is not square is named, even when alone.
        ((np.ones((2, 3)),), DimensionMismatchError, "POVM element (2, 3) is not square"),
        ((np.ones((2, 1)), np.eye(2)),
         DimensionMismatchError, "POVM element (2, 1) is not square"),
        # Entries near the float maximum: an overflowed residual is inf,
        # and a mean that overflows is taken by halves.
        ((np.array([[0.0, 1e308], [-1e308, 0.0]]), np.eye(2)),
         NotHermitianError, "Hermiticity residual inf exceeds 1e-09"),
        ((np.array([[1.0, 1e308], [1e308, 1.0]]), np.eye(2)),
         NotPsdError, "POVM element eigenvalue -1.000e+308"),
        ((np.diag([1e308, 0.0]), np.diag([1e308, 1.0])),
         InvariantViolationError, "POVM completeness residual inf > 1e-09"),
    ],
)
def test_povm_reports_the_first_failing_element(elements, error, message):
    labels = tuple(OutcomeLabel.identify(k) for k in range(len(elements)))
    with pytest.raises(error) as info:
        Povm(elements=elements, labels=labels)
    assert str(info.value) == message


def _near_the_hermitian_gate(rng, count):
    """Matrices whose Hermiticity residual lies within a few ulps of
    ``tol.HERMITIAN``: a diagonal in [0.2, 0.8] plus a random part, whose
    off-diagonal entries and imaginary diagonal are scaled to the gate and
    then by 1 + k ulp, so that both checks' residual matrices are equal and
    only the norm decides.  ``M`` and ``I - M`` then pass every other check."""
    for _ in range(count):
        d = int(rng.integers(2, 9))
        e = 10.0 ** rng.uniform(-13, -9) * (rng.normal(size=(d, d))
                                            + 1j * rng.normal(size=(d, d)))
        m = np.diag(rng.uniform(0.2, 0.8, d)) + e
        diagonal = np.diag(np.diag(m).real)
        scale = tol.HERMITIAN / linalg.frobenius(m - m.conj().T)
        for k in range(-4, 5):
            yield diagonal + (m - diagonal) * (scale * (1 + k * 2.0 ** -52))


def _accepts(call) -> bool:
    try:
        call()
    except NotHermitianError:
        return False
    return True


def test_povm_and_hermitian_eig_agree_at_the_hermitian_gate():
    rng = np.random.default_rng(188)
    labels = (OutcomeLabel.identify(0), OutcomeLabel.inconclusive())
    verdicts, split = Counter(), []
    for m in _near_the_hermitian_gate(rng, 400):
        eig = _accepts(lambda: linalg.hermitian_eig(m))
        povm = _accepts(lambda: Povm((m, np.eye(len(m)) - m), labels))
        verdicts[eig] += 1
        if eig != povm:
            split.append(linalg.frobenius(m - m.conj().T))
    assert verdicts[True] > 500 and verdicts[False] > 500  # both sides of the gate
    assert not split, (f"{len(split)} of {sum(verdicts.values())} matrices split, "
                       f"residuals {split[:3]}")


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


def test_every_povm_checks_its_own_stack():
    elements = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    labels = projective_povm(2).labels
    with mock.patch.object(
        measurement, "_check_positive", wraps=measurement._check_positive
    ) as check:
        residuals = [Povm(elements, labels).completeness_residual for _ in range(3)]
    assert check.call_count == 3 and residuals == [0.0] * 3
    elements[1] = np.diag([0.0, 1.0 + 1e-6])  # the same shape, checked again
    with pytest.raises(InvariantViolationError, match="completeness residual"):
        Povm(elements, labels)


def test_confusion_matrix_rows_sum_to_one():
    e = two_state_ensemble(0.4)
    conf = confusion_matrix(e, projective_povm(2))
    assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(DimensionMismatchError) as info:
        confusion_matrix(e, projective_povm(3))
    assert str(info.value) == "POVM dim 3 vs state vectors of shape (2, 2)"


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
