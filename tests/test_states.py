import numpy as np
import pytest

from statedisc.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotHermitianError,
    NotPsdError,
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


def test_density_matrix_validates():
    with pytest.raises(NotPsdError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(InvariantViolationError):
        DensityMatrix(np.eye(2))  # trace 2


def test_density_matrix_pure():
    k = Ket(np.array([0.6, 0.8]))
    rho = DensityMatrix.pure(k)
    assert rho.matrix[0, 0] == pytest.approx(0.36)
    assert rho.matrix[0, 1] == pytest.approx(0.48)


def test_ensemble_checks_priors_and_dims():
    k0, k1 = Ket(np.eye(2)[0]), Ket(np.eye(2)[1])
    with pytest.raises(InvariantViolationError):
        Ensemble(states=(k0, k1), priors=(0.7, 0.7))
    with pytest.raises(DimensionMismatchError):
        Ensemble(states=(k0, Ket(np.eye(3)[0])), priors=(0.5, 0.5))
    e = Ensemble(states=(k0, k1), priors=(0.25, 0.75))
    assert e.dim == 2
    assert len(e) == 2


@pytest.mark.parametrize(
    "priors", [(np.nan, np.nan), (np.nan, 0.5), (np.inf, -np.inf), (0.5, np.nan)]
)
def test_ensemble_and_gram_spec_reject_non_finite_priors(priors):
    k0, k1 = Ket(np.eye(2)[0]), Ket(np.eye(2)[1])
    with pytest.raises(InvariantViolationError):
        Ensemble(states=(k0, k1), priors=priors)
    with pytest.raises(InvariantViolationError):
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
                assert inner(e.states[i], e.states[j]) == pytest.approx(
                    g[i, j], abs=1e-10
                )


def test_states_from_gram_rank_deficient():
    gamma = 1.0 / np.sqrt(2.0)
    g = np.array([[1, 0, gamma], [0, 1, gamma], [gamma, gamma, 1]])
    e = states_from_gram(g, (1 / 3, 1 / 3, 1 / 3))
    # the third state lies exactly in the span of the first two
    v = e.states[2].amplitudes
    recon = gamma * e.states[0].amplitudes + gamma * e.states[1].amplitudes
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
    with pytest.raises(DimensionMismatchError, match="3 states but 2 priors"):
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
    with pytest.raises(InvariantViolationError, match="priors"):
        states_from_gram(np.eye(2), (0.7, 0.7))


def test_ensemble_density_mixes_projectors():
    e = Ensemble(states=(Ket(np.eye(2)[0]), Ket(np.eye(2)[1])), priors=(0.25, 0.75))
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
