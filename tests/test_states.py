import numpy as np
import pytest

from statedisc.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotHermitianError,
    NotPsdError,
    ParamOutOfRangeError,
)
from statedisc.states import (
    DensityMatrix,
    Ensemble,
    Ket,
    ensemble_density,
    inner,
    priors_ok,
    states_from_gram,
)


def test_ket_requires_unit_norm():
    with pytest.raises(InvariantViolationError):
        Ket(np.array([1.0, 1.0]))


def test_inner_is_antilinear_in_first_argument():
    a = Ket(np.array([1.0, 1j]) / np.sqrt(2))
    b = Ket(np.eye(2)[1])
    # <a|b> picks up the conjugate of a's amplitude
    assert inner(a, b) == pytest.approx(-1j / np.sqrt(2))
    with pytest.raises(DimensionMismatchError) as info:
        inner(a, Ket(np.eye(3)[0]))
    assert str(info.value) == "<a|b> with dims 2 and 3"


def test_density_matrix_validates():
    with pytest.raises(NotPsdError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(InvariantViolationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(DimensionMismatchError) as info:
        DensityMatrix(np.ones((2, 3)) / 3.0)
    assert str(info.value) == "density matrix must be square, got (2, 3)"
    assert DensityMatrix(np.eye(3) / 3.0).dim == 3


def test_density_matrix_pure():
    k = Ket(np.array([0.6, 0.8]))
    rho = DensityMatrix.pure(k)
    assert rho.matrix[0, 0] == pytest.approx(0.36)
    assert rho.matrix[0, 1] == pytest.approx(0.48)


def test_ensemble_checks_priors_and_dims():
    k0, k1 = np.eye(2)
    with pytest.raises(ParamOutOfRangeError, match="priors must be non-negative"):
        Ensemble(states=(k0, k1), priors=(0.7, 0.7))
    with pytest.raises(DimensionMismatchError):
        Ensemble(states=(k0, np.eye(3)[0]), priors=(0.5, 0.5))
    e = Ensemble(states=(k0, k1), priors=(0.25, 0.75))
    assert e.dim == 2
    assert len(e) == 2


@pytest.mark.parametrize(
    "priors", [(np.nan, np.nan), (np.nan, 0.5), (np.inf, -np.inf), (0.5, np.nan)]
)
def test_ensemble_and_gram_spec_reject_non_finite_priors(priors):
    k0, k1 = np.eye(2)
    with pytest.raises(ParamOutOfRangeError, match="priors must be non-negative"):
        Ensemble(states=(k0, k1), priors=priors)
    with pytest.raises(ParamOutOfRangeError, match="priors must be non-negative"):
        states_from_gram(np.eye(2), priors)


def test_states_from_gram_reproduces_overlaps():
    rng = np.random.default_rng(21)
    for _ in range(20):
        f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        g = f @ f.conj().T
        e = states_from_gram(g, (1 / 3, 1 / 3, 1 / 3))
        for i in range(3):
            for j in range(3):
                assert np.vdot(e.states[i], e.states[j]) == pytest.approx(
                    g[i, j], abs=1e-10
                )


def test_states_from_gram_rank_deficient():
    gamma = 1.0 / np.sqrt(2.0)
    g = np.array([[1, 0, gamma], [0, 1, gamma], [gamma, gamma, 1]])
    e = states_from_gram(g, (1 / 3, 1 / 3, 1 / 3))
    # the third state lies exactly in the span of the first two
    v = e.states[2]
    recon = gamma * e.states[0] + gamma * e.states[1]
    # <u0|u1> = 0, so the expansion coefficients are just the overlaps
    assert np.linalg.norm(v - recon) < 1e-10


def test_states_from_gram_rejects_unrealizable():
    g = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with pytest.raises(NotPsdError):
        states_from_gram(g, (1 / 3, 1 / 3, 1 / 3))


def test_states_from_gram_rejects_bad_shape_and_diagonal():
    with pytest.raises(InvariantViolationError):  # unit diagonal required
        states_from_gram(np.array([[0.5, 0.0], [0.0, 1.0]]), (0.5, 0.5))
    with pytest.raises(NotHermitianError):
        states_from_gram(np.array([[1.0, 0.5], [0.1, 1.0]]), (0.5, 0.5))
    with pytest.raises(DimensionMismatchError, match="expected 3 priors, got 2"):
        states_from_gram(np.eye(3), priors=(0.5, 0.5))


def test_states_from_gram_checks_the_overlaps_before_the_priors():
    # The matrix is the factor's to check; the priors are Ensemble's.
    g = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with pytest.raises(NotPsdError):
        states_from_gram(g, (0.5, 0.5))
    with pytest.raises(NotPsdError):
        states_from_gram(g, (np.nan, 0.5, 0.5))
    with pytest.raises(NotHermitianError):
        states_from_gram(np.array([[1.0, 0.5], [0.1, 1.0]]), (0.7, 0.7))
    with pytest.raises(ParamOutOfRangeError, match="priors must be non-negative"):
        states_from_gram(np.eye(2), (0.7, 0.7))


@pytest.mark.parametrize("form", ["rows", "array"])
def test_ensemble_states_are_one_read_only_stack(form):
    rows = [np.array([1.0, 0.0]), np.array([0.6, 0.8j])]
    e = Ensemble(rows if form == "rows" else np.array(rows), (0.25, 0.75))
    assert isinstance(e.states, np.ndarray)
    assert e.states.shape == (2, 2) and e.states.dtype == np.complex128
    assert not e.states.flags.writeable
    assert np.array_equal(e.states, np.array(rows, dtype=np.complex128))
    assert (e.dim, len(e)) == (2, 2)
    with pytest.raises(ValueError):
        e.states[0, 0] = 0.0


#: Ensemble's checks in order, each case failing the first of them with the
#: messages rows wrapped in Ket objects gave before the stack.
ENSEMBLE_CHECKS = [
    (np.array([[[0.6, 0.8]], [[1.0, 0.0]]]), (0.5, 0.5),
     DimensionMismatchError, "expected a vector, got ndim=2"),
    ([[np.nan, 0.0], []], (0.5, 0.5),
     InvariantViolationError, "vector has non-finite entries"),
    ([[], [2.0, 0.0]], (0.5, 0.5), DimensionMismatchError, "empty state vector"),
    ([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0, 0.0]], (0.5, 0.5),
     InvariantViolationError, "ket norm 2.0 differs from 1"),
    ([[1.0, 0.0], [1.0, 0.0, 0.0]], (0.7, 0.7),
     DimensionMismatchError, "ensemble states live on different spaces"),
    ([], (0.7, 0.7), DimensionMismatchError, "ensemble needs at least one state"),
    (np.eye(2), (0.2, 0.3, 0.5), DimensionMismatchError, "expected 2 priors, got 3"),
    (np.eye(2), (0.7, 0.7),
     ParamOutOfRangeError, "priors must be non-negative and sum to 1"),
]


@pytest.mark.parametrize(
    "rows, priors, error, message", ENSEMBLE_CHECKS,
    ids=["matrix-rows", "non-finite", "empty-row", "not-unit-before-ragged", "ragged",
         "no-rows", "prior-count", "bad-priors"],
)
def test_ensemble_checks_rows_then_count_then_priors(rows, priors, error, message):
    with pytest.raises(error) as info:
        Ensemble(rows, priors)
    assert type(info.value) is error and str(info.value) == message


def test_a_ket_is_a_vector_not_a_column():
    with pytest.raises(DimensionMismatchError) as info:
        Ket([[0.6], [0.8]])
    assert str(info.value) == "expected a vector, got ndim=2"


def test_ensemble_density_mixes_projectors():
    e = Ensemble(states=np.eye(2), priors=(0.25, 0.75))
    rho = ensemble_density(e)
    assert np.allclose(rho.matrix, np.diag([0.25, 0.75]))


def test_priors_ok_on_one_vector_matches_the_batched_rows():
    # The batched path adds column by column; one vector adds the same
    # floats in Python.  Edge sums sit on both sides of tol.PRIORS.
    rng = np.random.default_rng(41)
    rows = [rng.dirichlet(np.ones(k)) for k in (2, 3, 3, 4) for _ in range(50)]
    rows += [np.array(r, dtype=float) for r in (
        [0.3, 0.3, 0.4], [1.0, 0.0, -0.0], [-0.0, 1.0], [0.5, 0.5 + 1e-12, 0.0],
        [0.5, 0.5 + 2e-12, 0.0], [np.nan, 1.0, 0.0], [np.inf, -np.inf, 1.0],
        [1e308, 1e308, -1e308], [-1e-300, 1.0, 0.0], [1.0],
    )]
    for row in rows:
        batch = np.vstack([row, row])
        with np.errstate(invalid="ignore", over="ignore"):
            want = bool(priors_ok(batch)[0])
        assert bool(priors_ok(row)) is want, row
