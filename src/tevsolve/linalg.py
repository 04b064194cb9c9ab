"""Dense complex linear algebra: LU solves, SVD, and small dense eigenvalues.

Thin contract layer over LAPACK (via numpy/scipy).  Every downstream module
goes through these functions, which pin down the error behavior (singularity
detection with the failing pivot index, convergence failures) and keep results
deterministic for a fixed input.  Matrices here are dense and at most a few
hundred rows, so multithreaded BLAS buys nothing; parallelism lives at the
task level, in the one thread pool of :func:`_map`: Beyn's contour nodes and
the trace ratios and SVDs after them, the disk's scan pieces and modes.  The
tasks spend their time in LAPACK and in the Amos Bessel routines, which
release the GIL.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg as _sla

from .errors import NumericalFailure, SingularMatrix

PIVOT_RTOL = 1.0e-14


def _as_square(A) -> np.ndarray:
    A = np.ascontiguousarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def lu_factor(A, pivot_rtol: float = PIVOT_RTOL):
    """LU factorization with partial pivoting and a singularity gate.

    Returns the (lu, piv) pair accepted by :func:`lu_apply`.  Raises
    :class:`SingularMatrix` carrying the failing pivot index when any pivot
    magnitude drops below ``pivot_rtol * ||A||_F`` (default 1e-14).
    """
    A = _as_square(A)
    with warnings.catch_warnings():
        # the pivot gate below subsumes scipy's exact-zero-diagonal warning
        warnings.simplefilter("ignore", _sla.LinAlgWarning)
        lu, piv = _sla.lu_factor(A, check_finite=False)
    # ufunc-based Frobenius norm: keeps the singularity gate off the BLAS path
    tol = pivot_rtol * float(np.sqrt((A.real**2 + A.imag**2).sum()))
    diag = np.abs(np.diag(lu))
    small = np.nonzero(diag <= tol)[0]
    if small.size:
        i = int(small[0])
        raise SingularMatrix(i, float(diag[i]), float(tol))
    return lu, piv


def lu_apply(factors, B, trans: int = 0) -> np.ndarray:
    """Solve A X = B (trans=0) or A^T X = B (trans=1) from :func:`lu_factor`."""
    return _sla.lu_solve(factors, B, trans=trans, check_finite=False)


def solve_right(B, A, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Solve X A = B, i.e. X = B A^{-1}, via one LU of A and a transposed solve."""
    X_t = lu_apply(lu_factor(A, pivot_rtol=pivot_rtol), np.asarray(B).T, trans=1)
    return X_t.T


def svd(A):
    """Singular value decomposition A = U diag(S) V^H.

    Returns (U, S, V) with S descending and U, V having orthonormal columns.
    """
    A = np.asarray(A)
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    return U, s, Vh.conj().T


def singular_values(A) -> np.ndarray:
    """Singular values only (descending)."""
    try:
        return np.linalg.svd(np.asarray(A), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def eig_dense(A) -> np.ndarray:
    """Eigenvalues of a dense square matrix of any size (Beyn's reduced matrix,
    the disk search's Hankel pencil), as an unordered multiset."""
    A = _as_square(A)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"QR eigenvalue iteration did not converge: {exc}") from exc


def _map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], on a pool of ``jobs`` threads when jobs > 1 (order
    kept).  The package's only pool: no task starts another, so at most ``jobs``
    worker threads exist at any moment."""
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
