import numpy as np
import pytest

from statedisc import linalg
from statedisc.errors import (
    DimensionMismatchError,
    GramMismatchError,
    InvariantViolationError,
    NotHermitianError,
    NotPsdError,
)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    f = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return f @ f.conj().T


def test_as_cvector_coerces_and_flattens():
    v = linalg.as_cvector([1, 0])
    assert v.dtype == np.complex128
    assert linalg.as_cvector([[1, 0], [0, 1]]).shape == (4,)
    with pytest.raises(InvariantViolationError):
        linalg.as_cvector([np.nan, 0.0])


def test_as_cmatrix_rejects_wrong_ndim():
    with pytest.raises(DimensionMismatchError):
        linalg.as_cmatrix(np.zeros(3))


def test_dag_and_frobenius():
    m = np.array([[1, 2j], [0, 1]], dtype=complex)
    assert np.array_equal(linalg.dag(m), m.conj().T)
    assert linalg.frobenius(m) == pytest.approx(np.sqrt(6.0))


def test_commutator_of_commuting_is_zero():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([4.0, 5.0, 6.0])
    assert linalg.frobenius(linalg.commutator(a, b)) == 0.0


def test_hermitian_eig_sorted_and_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_psd(rng, 4)
        w, v = linalg.hermitian_eig(m)
        assert np.all(np.diff(w) >= 0)
        assert linalg.frobenius((v * w) @ linalg.dag(v) - m) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_cholesky_full_rank():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_psd(rng, 4)
        ell = linalg.psd_cholesky(g)
        assert linalg.frobenius(ell @ linalg.dag(ell) - g) < 1e-10 * max(
            1.0, linalg.frobenius(g)
        )
        # lower triangular with real non-negative diagonal
        assert abs(np.triu(ell, 1)).max() < 1e-12
        d = np.diag(ell)
        assert abs(d.imag).max() < 1e-12
        assert d.real.min() >= -1e-12


def test_psd_cholesky_rank_deficient_is_exact():
    # a singular Gram must factor without sqrt(eps) noise in the null direction
    gamma = 1.0 / np.sqrt(2.0)
    g = np.array([[1, 0, gamma], [0, 1, gamma], [gamma, gamma, 1]])
    ell = linalg.psd_cholesky(g)
    assert linalg.frobenius(ell @ linalg.dag(ell) - g) < 1e-12
    assert abs(ell[2, 2]) < 1e-12


def test_psd_cholesky_subnormal_pivot_stays_finite():
    # A subnormal pivot is roundoff; rephasing by it used to overflow to NaN.
    g, a = 5e-324, -0.9999999999999
    gram = np.array([[1.0, a, g], [a, 1.0, g], [g, g, 1.0]])
    ell = linalg.psd_cholesky(gram)
    assert np.isfinite(ell).all()
    assert np.abs(ell @ ell.conj().T - gram).max() < 1e-12


def test_psd_cholesky_rejects_indefinite():
    with pytest.raises(NotPsdError):
        linalg.psd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_isometry_completion_reproduces_action():
    rng = np.random.default_rng(14)
    for _ in range(10):
        u_ref = random_unitary(rng, 5)
        dom = [np.eye(5)[:, k] for k in range(3)]
        img = [u_ref[:, k] for k in range(3)]
        u = linalg.isometry_completion(dom, img, 5)
        assert linalg.frobenius(linalg.dag(u) @ u - np.eye(5)) < 1e-12
        for d, i in zip(dom, img):
            assert np.linalg.norm(u @ d - i) < 1e-12


def test_isometry_completion_is_deterministic():
    dom = [np.array([1.0, 0.0, 0.0])]
    img = [np.array([0.0, 1.0, 0.0])]
    u1 = linalg.isometry_completion(dom, img, 3)
    u2 = linalg.isometry_completion(dom, img, 3)
    assert np.array_equal(u1, u2)


def test_isometry_completion_rejects_gram_mismatch():
    dom = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    img = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    with pytest.raises(GramMismatchError):
        linalg.isometry_completion(dom, img, 2)


def test_isometry_completion_handles_dependent_pairs():
    # second domain vector is a multiple of the first; images follow suit
    dom = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    img = [np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    u = linalg.isometry_completion(dom, img, 2)
    assert np.linalg.norm(u @ dom[1] - img[1]) < 1e-12


def test_isometry_completion_rejects_one_sided_dependence():
    dom = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    img = [np.array([1.0, 0.0]) / np.sqrt(2), np.array([0.70710678, 0.0])]
    # domain pair is dependent, images differ in norm: Gram gate must fire
    with pytest.raises((GramMismatchError, InvariantViolationError)):
        linalg.isometry_completion(dom, img, 2)


def test_isometry_completion_rejects_nearly_dependent_pairs():
    # Gram entries agree within tol.GRAM, but near dependence leaves the
    # residual norms 5e-5 apart, so no unitary maps one pair onto the other.
    t, t_img = 1e-6, 1e-6 + 5e-5
    dom = [np.array([1.0, 0.0]), np.array([np.cos(t), np.sin(t)])]
    img = [np.array([1.0, 0.0]), np.array([np.cos(t_img), np.sin(t_img)])]
    with pytest.raises(GramMismatchError):
        linalg.isometry_completion(dom, img, 2)
    # Equal Gram matrices, but both residuals (5e-9) sit between tol.ACTION and
    # tol.RANK: skipping the pair as dependent would miss its image by 7e-9.
    s = 5e-9
    dom = [np.array([1.0, 0.0, 0.0]), np.array([np.sqrt(1 - s * s), s, 0.0])]
    img = [np.array([1.0, 0.0, 0.0]), np.array([np.sqrt(1 - s * s), 0.0, s])]
    with pytest.raises(GramMismatchError):
        linalg.isometry_completion(dom, img, 3)


def test_isometry_completion_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.isometry_completion([np.array([1.0, 0.0])], [], 2)


def test_isometry_completion_random_partial_maps():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        u_ref = random_unitary(rng, n)
        basis = random_unitary(rng, n)
        dom = [basis[:, j] for j in range(k)]
        img = [u_ref @ basis[:, j] for j in range(k)]
        u = linalg.isometry_completion(dom, img, n)
        assert linalg.frobenius(linalg.dag(u) @ u - np.eye(n)) < 1e-11
        for d, i in zip(dom, img):
            assert np.linalg.norm(u @ d - i) < 1e-10
