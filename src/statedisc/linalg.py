"""Dense complex linear algebra on small spaces (dimension <= 8).

Everything here is plain ``numpy.ndarray`` with ``complex128`` entries.
Functions are pure; their thresholds are rows of :mod:`statedisc.tol`, and
every residual is measured by ``frobenius`` or its stacked form here, so
the rest of the package agrees on what "Hermitian" or "PSD" means.
"""
from __future__ import annotations

import math

import numpy as np

from . import tol
from .errors import (
    DimensionMismatchError,
    GramMismatchError,
    InvariantViolationError,
    NotHermitianError,
    NotPsdError,
)


def as_complex(value, ndim: int) -> np.ndarray:
    """Coerce input to a finite complex128 array of ``ndim`` (1 or 2) dimensions."""
    a = np.array(value, dtype=np.complex128, copy=True)
    what = "vector" if ndim == 1 else "matrix"
    if a.ndim != ndim:
        raise DimensionMismatchError(f"expected a {what}, got ndim={a.ndim}")
    if not np.isfinite(a).all():  # a complex entry is finite if both parts are
        raise InvariantViolationError(f"{what} has non-finite entries")
    return a


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def frobenius(m: np.ndarray) -> float:
    """``np.linalg.norm(m)``; a complex array takes numpy's own steps inline."""
    if getattr(m, "dtype", None) != np.complex128:
        return float(np.linalg.norm(m))
    x = m.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _frobenius_each(stack: np.ndarray) -> np.ndarray:
    """``frobenius`` of each item of a C-ordered complex stack, bit for bit:
    the same sums of squares, which ``np.vecdot`` takes over each flattened
    item.  An overflow is inf; callers that can reach one silence it."""
    x = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def commutator(a, b) -> np.ndarray:
    """``a @ b - b @ a`` for square matrices of equal dimension."""
    a = as_complex(a, 2)
    b = as_complex(b, 2)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"commutator needs equal square matrices, got {a.shape} and {b.shape}"
        )
    return a @ b - b @ a


@np.errstate(over="ignore", invalid="ignore")  # an overflowed residual is inf
def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix with ``||h - h^dag||_F <= tol.HERMITIAN``.

    Returns
    -------
    (w, v)
        Real eigenvalues ``w`` in ascending order and unitary ``v`` whose
        columns are the matching eigenvectors, so ``h = v @ diag(w) @ v^dag``.
    """
    h = as_complex(h, 2)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {h.shape}")
    if h.shape[0] == 0:
        raise DimensionMismatchError(f"expected a non-empty matrix, got {h.shape}")
    adjoint = dag(h)
    res = frobenius(h - adjoint)
    if res > tol.HERMITIAN:
        raise NotHermitianError(f"Hermiticity residual {res:.3e} exceeds {tol.HERMITIAN}")
    return np.linalg.eigh(_hermitian_mean(h, adjoint))


def _hermitian_mean(a: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """``(a + adjoint) / 2``, or ``a / 2 + adjoint / 2`` where that
    overflows, to inf or to the NaN of inf / 2 in complex division: halving
    first keeps finite entries finite, but drops the last bit of a
    subnormal.  Call it with overflow and invalid warnings off."""
    mean = (a + adjoint) / 2.0
    return mean if np.isfinite(mean).all() else a / 2.0 + adjoint / 2.0


def psd_cholesky(g) -> np.ndarray:
    """Lower-triangular factor L with ``L @ L^dag = g`` for PSD ``g``.

    Diagonal entries of L are real and non-negative.  Rank-deficient input
    is allowed; the factor then has zero columns in the deficient
    directions.  Raises :class:`NotPsdError` when ``g`` has an eigenvalue
    below ``-tol.PSD``.
    """
    w, v = hermitian_eig(g)
    if w.min() < -tol.PSD:
        raise NotPsdError(f"eigenvalue {w.min():.3e} below -{tol.PSD}")
    # Eigenvalues at roundoff scale are exact zeros of the intended input;
    # keeping them would inject sqrt(eps)-sized noise into the factor.
    w = np.where(w < tol.DROP * max(1.0, float(w.max(initial=0.0))), 0.0, w)
    f = v * np.sqrt(w)  # every w left is 0.0 or at least the cutoff
    # LQ factorization of f via QR of its adjoint: f = L q with L lower
    # triangular, so L L^dag = f f^dag = g regardless of q.
    r = np.linalg.qr(dag(f), mode="r")
    ell = dag(r)
    for k in range(ell.shape[1]):
        pivot = ell[k, k]
        # A subnormal pivot is roundoff, and dividing by it overflows.
        if abs(pivot) >= np.finfo(float).tiny:
            ell[:, k] *= np.conj(pivot) / abs(pivot)
        ell[k, k] = ell[k, k].real + 0.0j
    return ell


def _orthonormal_residual(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    r = vec.copy()
    for _ in range(2):  # two Gram-Schmidt passes keep orthogonality near 1e-15
        for b in basis:
            r -= np.vdot(b, r) * b  # np.vdot(b, r) is bitwise np.conj(b) @ r
    return r


def isometry_completion(domain_vectors, image_vectors, dim: int) -> np.ndarray:
    """Unitary ``u`` on C^dim with ``u @ d_k = i_k`` for every pair.

    The two vector lists must have identical Gram matrices within
    ``tol.GRAM``.  The partial map is extended deterministically: both
    orthonormalized families are completed with canonical basis vectors
    taken in index order, skipping any whose residual norm falls below
    ``tol.RANK``.
    """
    dom = [as_complex(v, 1) for v in domain_vectors]
    img = [as_complex(v, 1) for v in image_vectors]
    if len(dom) != len(img):
        raise DimensionMismatchError(
            f"{len(dom)} domain vectors vs {len(img)} image vectors"
        )
    for v in (*dom, *img):
        if v.shape[0] != dim:
            raise DimensionMismatchError(f"vector length {v.shape[0]} != dim {dim}")
    if dim < 1:
        raise DimensionMismatchError(f"dim {dim} < 1")

    m = len(dom)
    # The Gram gap and the action residual only gate, so they are stacked.
    d_stack, i_stack = np.array(dom).reshape(m, dim), np.array(img).reshape(m, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below
        gap = np.abs(d_stack.conj() @ d_stack.T - i_stack.conj() @ i_stack.T).max(initial=0.0)
    if not gap <= tol.GRAM:  # NaN fails, as inf - inf of overflowed products is
        raise GramMismatchError(f"Gram matrices differ by {gap:.3e} > {tol.GRAM}"
                                if np.isfinite(gap) else "Gram matrix products overflow")

    dom_basis: list[np.ndarray] = []
    img_basis: list[np.ndarray] = []
    for dv, iv in zip(dom, img):
        rd = _orthonormal_residual(dv, dom_basis)
        ri = _orthonormal_residual(iv, img_basis)
        nd, ni = frobenius(rd), frobenius(ri)
        if max(nd, ni) <= tol.ACTION:
            continue  # dependent pair; Gram equality keeps the map consistent
        if (nd < tol.RANK) != (ni < tol.RANK):
            raise GramMismatchError(
                "one side of a vector pair is linearly dependent, the other is not"
            )
        # Near dependence magnifies a roundoff gap in the Gram entries into
        # one between these norms, and a pair skipped as dependent is so only
        # to within them: either way the map would miss its image.
        if nd < tol.RANK or abs(nd - ni) > tol.ACTION:
            raise GramMismatchError(f"nearly dependent pair, norms {nd:.3e}, {ni:.3e}")
        dom_basis.append(rd / nd)
        img_basis.append(ri / ni)

    eye = np.eye(dim, dtype=np.complex128)
    for basis in (dom_basis, img_basis):
        # Canonical vector j's first pass runs on all later ones at once (a
        # row's np.vecdot is bitwise its np.vdot).  These residuals start as
        # 1.0 and +0.0 and, as x - y is -0.0 only for x = -0.0, never hold a
        # -0.0: a zero coefficient's product, signed zeros, changes no bit.
        first_pass, done = eye.copy(), 0
        for j in range(dim):
            if len(basis) == dim:
                break
            rest = first_pass[j:]
            for b in basis[done:]:
                c = np.vecdot(b, rest)
                if c.any():
                    rest -= c[:, None] * b
            done = len(basis)
            r = first_pass[j]  # no later row reads it
            for b in basis:  # the second pass
                c = np.vdot(b, r)
                if c:
                    r -= c * b
            nr = frobenius(r)
            if nr >= tol.RANK:
                basis.append(r / nr)
        if len(basis) != dim:
            raise InvariantViolationError("orthonormal completion did not reach dim")

    u = np.column_stack(img_basis) @ dag(np.column_stack(dom_basis))

    act = float(_frobenius_each(d_stack @ u.T - i_stack).max(initial=0.0))
    if act > tol.ACTION:
        raise InvariantViolationError(f"action residual {act:.3e} > {tol.ACTION}")
    return u
