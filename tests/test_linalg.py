import re
import warnings
from pathlib import Path

import goldens
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
from statedisc.measurement import OutcomeLabel, Povm
from statedisc.states import DensityMatrix, states_from_gram


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    f = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return f @ f.conj().T


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: states_from_gram(np.zeros((0, 0)), []),
         "expected a non-empty matrix, got (0, 0)"),
        (lambda: linalg.psd_cholesky(np.zeros((0, 0))),
         "expected a non-empty matrix, got (0, 0)"),
        (lambda: DensityMatrix(np.zeros((0, 0))),
         "expected a non-empty matrix, got (0, 0)"),
        (lambda: Povm((np.zeros((0, 0)),), (OutcomeLabel.identify(0),)),
         "empty POVM element (0, 0)"),
        (lambda: linalg.isometry_completion([], [], 0), "dim 0 < 1"),
    ],
    ids=["states_from_gram", "psd_cholesky", "DensityMatrix", "Povm",
         "isometry_completion"],
)
def test_an_empty_matrix_is_a_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatchError) as info:
        call()
    assert str(info.value) == message


def test_as_complex_coerces_a_vector_and_rejects_another_rank():
    v = linalg.as_complex([1, 0], 1)
    assert v.dtype == np.complex128
    # A matrix, a column or a scalar is not flattened into a vector.
    for bad, ndim in (([[1, 0], [0, 1]], 2), ([[0.6], [0.8]], 2), (1.0, 0)):
        with pytest.raises(DimensionMismatchError) as info:
            linalg.as_complex(bad, 1)
        assert str(info.value) == f"expected a vector, got ndim={ndim}"
    with pytest.raises(InvariantViolationError, match="^vector has non-finite entries$"):
        linalg.as_complex([np.nan, 0.0], 1)


def test_as_complex_rejects_a_matrix_of_another_rank():
    m = linalg.as_complex([[1, 0], [0, 1j]], 2)
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    with pytest.raises(DimensionMismatchError, match="^expected a matrix, got ndim=1$"):
        linalg.as_complex(np.zeros(3), 2)
    with pytest.raises(InvariantViolationError, match="^matrix has non-finite entries$"):
        linalg.as_complex([[np.inf, 0.0]], 2)


def test_dag_and_frobenius():
    m = np.array([[1, 2j], [0, 1]], dtype=complex)
    assert np.array_equal(linalg.dag(m), m.conj().T)
    assert linalg.frobenius(m) == pytest.approx(np.sqrt(6.0))
    # A real array is np.linalg.norm's, as a Python float.
    real = linalg.frobenius(np.array([[3.0, 4.0]]))
    assert real == 5.0 and type(real) is float


def test_commutator_of_commuting_is_zero():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([4.0, 5.0, 6.0])
    assert linalg.frobenius(linalg.commutator(a, b)) == 0.0
    with pytest.raises(DimensionMismatchError) as info:
        linalg.commutator(np.eye(2), b)
    assert str(info.value) == "commutator needs equal square matrices, got (2, 2) and (3, 3)"


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


def test_hermitian_eig_takes_entries_near_the_float_maximum():
    # h + h^dag passes the float maximum; the mean is taken by halves.
    w, v = linalg.hermitian_eig(np.array([[1e308, 0.0], [0.0, -1e308]]))
    assert w.tolist() == [-1e308, 1e308]
    assert np.abs(v).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    # h - h^dag passes it too: the residual is inf, and fails.
    with pytest.raises(NotHermitianError, match="residual inf"):
        linalg.hermitian_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))


@pytest.mark.parametrize("gram, error, message", [
    ([[1e308 + 0j]], InvariantViolationError, "overlap matrix diagonal must be 1"),
    ([[1.0, 1e308], [1e308, 1.0]], NotPsdError, "eigenvalue -1.000e+308 below -1e-09"),
    ([[1.0, 1e308j], [1e308j, 1.0]], NotHermitianError,
     "Hermiticity residual inf exceeds 1e-09"),
])
def test_states_from_gram_names_the_domain_error_of_huge_entries(gram, error, message):
    # Tier-1 raises every RuntimeWarning: an overflow would escape as one.
    with pytest.raises(error) as info:
        states_from_gram(gram, [1.0 / len(gram)] * len(gram))
    assert str(info.value) == message


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


@pytest.mark.parametrize("dom, img", [
    ([[1e200, 0.0]], [[0.0, 1e200]]),  # realizable, but |d|^2 overflows on both sides
    ([[1e200, 0.0]], [[1.0, 0.0]]),
])
def test_isometry_completion_names_an_overflowed_gram_gap(dom, img):
    # inf - inf is a NaN gap, which the gate fails, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GramMismatchError) as info:
            linalg.isometry_completion(dom, img, 2)
    assert str(info.value) == "Gram matrix products overflow"


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
    with pytest.raises(DimensionMismatchError) as info:
        linalg.isometry_completion([[1.0, 0.0]], [[1.0, 0.0, 0.0]], 2)
    assert str(info.value) == "vector length 3 != dim 2"


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


def _reference_completion(dom, img, dim):
    """The completion as plain per-vector modified Gram-Schmidt: each update
    ``r = r - (np.conj(b) @ r) * b`` on its own, two passes per vector."""
    def residual(vec, basis):
        r = np.array(vec, dtype=np.complex128)
        for _ in range(2):
            for b in basis:
                r = r - (np.conj(b) @ r) * b
        return r

    bases = ([], [])
    for pair in zip(dom, img):
        rs = [residual(v, basis) for v, basis in zip(pair, bases)]
        norms = [np.linalg.norm(r) for r in rs]
        if max(norms) > 1e-10:
            for basis, r, n in zip(bases, rs, norms):
                basis.append(r / n)
    for basis in bases:
        for e in np.eye(dim, dtype=np.complex128):
            if len(basis) == dim:
                break
            r = residual(e, basis)
            if np.linalg.norm(r) >= 1e-8:
                basis.append(r / np.linalg.norm(r))
    return np.column_stack(bases[1]) @ np.column_stack(bases[0]).conj().T


def test_isometry_completion_is_bitwise_plain_gram_schmidt():
    # Random partial maps, and the builders' layout: vectors with the
    # ancilla in |0> (zeros at odd places), images in both ancilla states,
    # and negative zeros among the entries.
    rng = np.random.default_rng(16)
    for trial in range(300):
        n = int(rng.integers(1, 5))
        dim = 2 * n
        k = int(rng.integers(1, n + 1))
        u_ref = random_unitary(rng, dim)
        basis = random_unitary(rng, n)
        dom = [np.kron(basis[:, j], [1.0, 0.0]) for j in range(k)]
        if trial % 2:
            dom = [random_unitary(rng, dim)[:, 0] for _ in range(k)]
        if trial % 3 == 0:
            for d in dom:
                d[d.real == 0] = complex(-0.0, 0.0)
        img = [u_ref @ d for d in dom]
        if trial % 5 == 0:  # an image block that is exactly zero
            img = [np.kron(u_ref[:n, :n] @ basis[:, j], [1.0, 0.0]) for j in range(k)]
            img = [v / np.linalg.norm(v) * np.linalg.norm(d) for v, d in zip(img, dom)]
            if abs(np.vdot(img[0], img[-1]) - np.vdot(dom[0], dom[-1])) > 1e-12:
                continue
        u = linalg.isometry_completion(dom, img, dim)
        assert u.tobytes() == _reference_completion(dom, img, dim).tobytes(), trial


# The build path relies on these equalities holding bit for bit in the
# installed numpy and BLAS; a failure names the library pair, not the code.
def _library() -> str:
    return f"numpy {np.__version__} with its BLAS; see np.show_config()"


def _random_pairs(seed, count=2000):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 9))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = rng.normal(size=n) + 1j * rng.normal(size=n)
        if k % 3 == 0:  # exact zeros and negative zeros, as the builders make
            b[rng.integers(0, n)] = 0.0
            r[rng.integers(0, n)] = complex(-0.0, -0.0)
        yield b, r


def test_vdot_is_bitwise_conj_matmul():
    bad = sum(
        np.vdot(b, r).tobytes() != (np.conj(b) @ r).tobytes()
        for b, r in _random_pairs(181)
    )
    assert bad == 0, (
        f"np.vdot differs from np.conj(b) @ r in {bad} pairs: {_library()}"
    )


def test_vecdot_rows_and_row_products_are_bitwise_per_row():
    rng = np.random.default_rng(182)
    bad = 0
    for b, _ in _random_pairs(183, 500):
        rows = rng.normal(size=(4, len(b))) + 1j * rng.normal(size=(4, len(b)))
        c = np.vecdot(b, rows)
        products = c[:, None] * b
        for k, row in enumerate(rows):
            bad += c[k].tobytes() != np.vdot(b, row).tobytes()
            bad += products[k].tobytes() != (c[k] * b).tobytes()
    assert bad == 0, (
        f"np.vecdot rows differ from np.vdot in {bad} cases: {_library()}"
    )


def test_declared_numpy_floor_has_vecdot():
    # linalg and measurement call np.vecdot, which numpy 2.0 introduced.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=([0-9.]+)"', text)[1]
    assert tuple(map(int, floor.split(".")[:2])) >= (2, 0), floor


def test_inline_norm_is_bitwise_numpy_norm():
    rng = np.random.default_rng(184)
    vectors = [r for _, r in _random_pairs(185)]
    vectors += [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(200)]

    def inline(v):  # the parts of the flattened complex array, as strided views
        x = v.ravel()
        return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))

    bad = sum(
        linalg.frobenius(v) != np.linalg.norm(v) or inline(v) != np.linalg.norm(v)
        for v in vectors
    )
    assert bad == 0, (
        f"the inline norm differs from np.linalg.norm in {bad} cases: {_library()}"
    )


def _stacks(rng, count):
    """Stacks of every shape the package measures by item: (n, dim) rows of
    state vectors or action residuals, (K, d, d) POVM stacks and their
    Hermiticity residuals, with entries from 1e-12 to 1e2."""
    for _ in range(count):
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        shape = (n, d) if rng.random() < 0.5 else (n, d, d)
        x = 10.0 ** rng.uniform(-12, 2) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        if x.ndim == 3 and rng.random() < 0.5:
            x = x - x.conj().transpose(0, 2, 1)
        yield x


def test_the_stacked_norm_is_frobenius_of_each_item():
    rng = np.random.default_rng(187)
    got, want = [], []
    for x in _stacks(rng, 1000):
        got += linalg._frobenius_each(x).tolist()
        want += [linalg.frobenius(item) for item in x]
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    goldens.same(bad[:3], [], f"the stacked norm, which differs from frobenius in "
                             f"{len(bad)} of {len(want)} items: the first misses")


def test_the_stacked_norm_of_huge_entries_is_inf_without_a_warning():
    big = np.full((2, 3, 3), complex(1e308, -1e308))
    big[1] = 1e308 * np.eye(3)
    rows = np.array([[1e308, 1e308, 0.0], [0.0, 1.7e308j, 1.7e308]], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):  # as the callers run it
            for x in (big, big - big.conj().transpose(0, 2, 1) * 1j, rows):
                assert np.isposinf(linalg._frobenius_each(x)).all()
                assert all(linalg.frobenius(item) == np.inf for item in x)


def test_broadcast_kron_is_bitwise_kron_with_negative_zeros():
    rng = np.random.default_rng(186)
    bad = 0
    for _ in range(300):
        n, m = (int(k) for k in rng.integers(1, 5, size=2))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a[rng.random((n, n)) < 0.3] = 0.0
        b[rng.random((m, m)) < 0.3] = -1.0
        broadcast = (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)
        bad += broadcast.tobytes() != np.kron(a, b).tobytes()
    flag = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    minus = np.outer([1.0, -1.0], [1.0, -1.0]).astype(np.complex128)
    kron = np.kron(minus, flag)
    assert np.signbit(kron.real).any()  # the -0.0 that dump prints
    broadcast = (minus[:, None, :, None] * flag[None, :, None, :]).reshape(4, 4)
    bad += broadcast.tobytes() != kron.tobytes()
    assert bad == 0, (
        f"broadcast kron differs from np.kron in {bad} cases: {_library()}"
    )
