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

A square matrix may also be a :class:`BlockDiag`, as bie's M(z) is: the four
LU and SVD functions then work block by block, in one call each, and never
form the dense matrix or its factors.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import scipy.linalg as _sla

from .errors import NumericalFailure, SingularMatrix

PIVOT_RTOL = 1.0e-14


class BlockDiag:
    """The matrix Q diag(blocks) Q^T, the blocks square and Q a real orthogonal
    ``basis``, dense or sparse (None for the identity), whose columns run block
    by block.  ``@`` and this module's functions act as on that matrix;
    ``[:, j]`` is column ``order[j]`` of Q diag(blocks)."""

    __array_ufunc__ = None  # so that ndarray @ BlockDiag calls __rmatmul__

    def __init__(self, blocks, basis=None):
        self.blocks, self.basis = tuple(blocks), basis
        self.shape = (sum(map(len, self.blocks)),) * 2
        self.order = np.arange(self.shape[0])

    @property
    def T(self) -> "BlockDiag":
        return BlockDiag((b.T for b in self.blocks), self.basis)

    def _apply(self, fns, x) -> np.ndarray:
        """Q [fn_b(y_b)]_b for Q^T x = [y_b]_b, split as the blocks' rows."""
        y = x if self.basis is None else self.basis.T @ x
        y = np.concatenate([fn(part) for fn, part in zip(
            fns, np.split(y, np.cumsum(list(map(len, self.blocks)))[:-1]))])
        return y if self.basis is None else self.basis @ y

    def __matmul__(self, x):
        return self._apply([b.__matmul__ for b in self.blocks], x)

    def __rmatmul__(self, y):
        return (self.T @ y.T).T

    def __getitem__(self, key) -> np.ndarray:
        unit = np.zeros(self.shape[0])
        unit[self.order[key[1]]] = 1.0
        return self @ (unit if self.basis is None else self.basis @ unit)  # Q D Q^T Q e_c


def _as_square(A) -> np.ndarray:
    A = np.ascontiguousarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def lu_factor(A, pivot_rtol: float = PIVOT_RTOL):
    """LU factorization with partial pivoting and a singularity gate.

    Returns the (lu, piv) pair accepted by :func:`lu_apply`: the BlockDiag of the
    blocks' LUs (of A's one block for an array) and their pivots.  Raises
    :class:`SingularMatrix` carrying the failing pivot index, over the stacked
    blocks, when any pivot magnitude drops below ``pivot_rtol * ||A||_F``
    (default 1e-14).
    """
    blocks = [_as_square(b) for b in (A.blocks if isinstance(A, BlockDiag) else (A,))]
    with warnings.catch_warnings():
        # the pivot gate below subsumes scipy's exact-zero-diagonal warning
        warnings.simplefilter("ignore", _sla.LinAlgWarning)
        lus, pivs = zip(*[_sla.lu_factor(b, check_finite=False) for b in blocks])
    # ufunc-based Frobenius norm: keeps the singularity gate off the BLAS path
    tol = pivot_rtol * float(np.sqrt(sum((b.real**2 + b.imag**2).sum() for b in blocks)))
    diag = np.abs(np.concatenate([np.diag(lu) for lu in lus]))
    small = np.nonzero(diag <= tol)[0]
    if small.size:
        i = int(small[0])
        raise SingularMatrix(i, float(diag[i]), float(tol))
    return BlockDiag(lus, A.basis if isinstance(A, BlockDiag) else None), pivs


def lu_apply(factors, B, trans: int = 0):
    """Solve A X = B (trans=0) or A^T X = B (trans=1) from :func:`lu_factor`, also
    on threads that share the factors; B may be a BlockDiag in A's basis."""
    # scipy's getrs wrapper shifts the pivots in place around its call, so threads
    # that share one factorization would race on them: each call gets a copy
    lu, piv = factors
    solves = [partial(_sla.lu_solve, (f, p.copy()), trans=trans, check_finite=False)
              for f, p in zip(lu.blocks, piv)]
    if isinstance(B, BlockDiag):
        return BlockDiag((solve(b) for solve, b in zip(solves, B.blocks)), lu.basis)
    return lu._apply(solves, B)


def solve_right(B, A, pivot_rtol: float = PIVOT_RTOL):
    """Solve X A = B, i.e. X = B A^{-1}, via one LU of A and a transposed solve."""
    X_t = lu_apply(lu_factor(A, pivot_rtol=pivot_rtol), B.T, trans=1)
    return X_t.T


def _svd(A, compute_uv: bool = True):
    try:
        return np.linalg.svd(np.asarray(A), full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def svd(A):
    """Singular value decomposition A = U diag(S) V^H.

    Returns (U, S, V) with S descending and U, V having orthonormal columns; for a
    BlockDiag, U and V are BlockDiags of the blocks' factors, and U[:, j] forms one.
    """
    if not isinstance(A, BlockDiag):
        U, s, Vh = _svd(A)
        return U, s, Vh.conj().T
    Us, ss, Vhs = zip(*map(_svd, A.blocks))
    U, W = BlockDiag(Us, A.basis), BlockDiag((v.conj().T for v in Vhs), A.basis)
    s = np.concatenate(ss)
    U.order = W.order = np.argsort(-s, kind="stable")
    return U, s[U.order], W


def singular_values(A) -> np.ndarray:
    """Singular values only (descending)."""
    blocks = A.blocks if isinstance(A, BlockDiag) else (A,)
    return np.sort(np.concatenate([_svd(b, False) for b in blocks]))[::-1]


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
