"""Dense complex linear algebra on small spaces (dimension <= 8).

Everything here is plain ``numpy.ndarray`` with ``complex128`` entries.
Functions are pure; their thresholds are rows of :mod:`statedisc.tol`,
so the rest of the package agrees on what "Hermitian" or "PSD" means.
"""
from __future__ import annotations

import numpy as np

from . import tol
from .errors import (
    DimensionMismatchError,
    GramMismatchError,
    InvariantViolationError,
    NotHermitianError,
    NotPsdError,
)


def as_cmatrix(m) -> np.ndarray:
    """Coerce input to a finite 2-d complex128 array."""
    a = np.array(m, dtype=np.complex128, copy=True)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvariantViolationError("matrix has non-finite entries")
    return a


def as_cvector(v) -> np.ndarray:
    """Coerce input to a finite 1-d complex128 array."""
    a = np.array(v, dtype=np.complex128, copy=True).reshape(-1)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvariantViolationError("vector has non-finite entries")
    return a


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def commutator(a, b) -> np.ndarray:
    """``a @ b - b @ a`` for square matrices of equal dimension."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"commutator needs equal square matrices, got {a.shape} and {b.shape}"
        )
    return a @ b - b @ a


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
    h = as_cmatrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {h.shape}")
    res = frobenius(h - dag(h))
    if res > tol.HERMITIAN:
        raise NotHermitianError(f"Hermiticity residual {res:.3e} exceeds {tol.HERMITIAN}")
    w, v = np.linalg.eigh((h + dag(h)) / 2.0)
    return w, v


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
    f = v * np.sqrt(np.clip(w, 0.0, None))
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
    r = vec.astype(np.complex128, copy=True)
    for _ in range(2):  # two Gram-Schmidt passes keep orthogonality near 1e-15
        for b in basis:
            r = r - (np.conj(b) @ r) * b
    return r


def isometry_completion(domain_vectors, image_vectors, dim: int) -> np.ndarray:
    """Unitary ``u`` on C^dim with ``u @ d_k = i_k`` for every pair.

    The two vector lists must have identical Gram matrices within
    ``tol.GRAM``.  The partial map is extended deterministically: both
    orthonormalized families are completed with canonical basis vectors
    taken in index order, skipping any whose residual norm falls below
    ``tol.RANK``.
    """
    dom = [as_cvector(v) for v in domain_vectors]
    img = [as_cvector(v) for v in image_vectors]
    if len(dom) != len(img):
        raise DimensionMismatchError(
            f"{len(dom)} domain vectors vs {len(img)} image vectors"
        )
    for v in (*dom, *img):
        if v.shape[0] != dim:
            raise DimensionMismatchError(f"vector length {v.shape[0]} != dim {dim}")

    m = len(dom)
    gram_d = np.array([[np.conj(a) @ b for b in dom] for a in dom])
    gram_i = np.array([[np.conj(a) @ b for b in img] for a in img])
    gap = float(np.abs(gram_d - gram_i).max()) if m else 0.0
    if gap > tol.GRAM:
        raise GramMismatchError(f"Gram matrices differ by {gap:.3e} > {tol.GRAM}")

    dom_basis: list[np.ndarray] = []
    img_basis: list[np.ndarray] = []
    for dv, iv in zip(dom, img):
        rd = _orthonormal_residual(dv, dom_basis)
        ri = _orthonormal_residual(iv, img_basis)
        nd = np.linalg.norm(rd)
        ni = np.linalg.norm(ri)
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

    for basis in (dom_basis, img_basis):
        for j in range(dim):
            if len(basis) == dim:
                break
            e = np.zeros(dim, dtype=np.complex128)
            e[j] = 1.0
            r = _orthonormal_residual(e, basis)
            nr = np.linalg.norm(r)
            if nr >= tol.RANK:
                basis.append(r / nr)
        if len(basis) != dim:
            raise InvariantViolationError("orthonormal completion did not reach dim")

    d_mat = np.column_stack(dom_basis)
    i_mat = np.column_stack(img_basis)
    u = i_mat @ dag(d_mat)

    uni = frobenius(dag(u) @ u - np.eye(dim))
    if uni > tol.UNITARY:
        raise InvariantViolationError(f"unitarity residual {uni:.3e} > {tol.UNITARY}")
    for dv, iv in zip(dom, img):
        act = float(np.linalg.norm(u @ dv - iv))
        if act > tol.ACTION:
            raise InvariantViolationError(f"action residual {act:.3e} > {tol.ACTION}")
    return u
