"""Internal direct-solver wrapper.

All linear solves in the package go through :class:`RefinedLU`, one
checked solver of symmetric positive definite systems with three
backends.  An ndarray gets LAPACK Cholesky, :func:`cholesky`.  A sparse
matrix is ordered by reverse Cuthill-McKee, to a half-bandwidth ``b``;
when ``(b + 1) n <= _BAND_COST nnz(A)`` it gets LAPACK band Cholesky
(George & Liu, *Computer Solution of Large Sparse Positive Definite
Systems*, 1981, ch. 4), otherwise SuperLU with minimum-degree ordering on
``A^T + A`` and no pivoting.  No backend pivots, so each checks its pivots
instead (``u_ii``, or ``l_ii^2``, against ``n eps max|a_ii|``), and a
singular or indefinite matrix raises :class:`SingularSystemError`.

Every solve measures the normwise backward error
``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)`` of each right-hand side
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 7 and 12),
refines only the columns above unit roundoff, for as long as their error
falls, and raises :class:`SingularSystemError` when a column ends above
``BACKWARD_ERROR_BOUND`` or is not finite.  A right-hand side wider than
a cache-sized block of columns is solved one such block at a time, each
block checked as above; a sparse right-hand side is densified one block
at a time, so that a solve holds no dense copy of it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .exceptions import SingularSystemError

__all__ = ["RefinedLU", "BACKWARD_ERROR_BOUND", "backward_errors", "cholesky"]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_MAX_REFINE = 3
# right-hand-side entries per block of a solve (1 MiB of float64): SuperLU's
# triangular solve slows per column when handed many columns at once
_BLOCK_ENTRIES = 1 << 17
# a sparse matrix is factored in band storage when its (b + 1) n entries
# are at most this many times nnz(A).  dpbtrs solves one column at a time,
# so a larger value would hand the many-column solves of the global kinds to
# the slower solve: A_FF (11.6 times nnz at fem-glo-80) and the MC reduced
# system (17.3 there, 11.5 at pore-transient-64).  The local MC reduced
# systems need no raise: their median is 6.8 at fem-loc-160
_BAND_COST = 8
BACKWARD_ERROR_BOUND = 1e-10


def _check_pivots(pivots: np.ndarray, diagonal: np.ndarray, context: str) -> None:
    # without pivoting a singular or indefinite matrix factors silently
    pivot = float(pivots.min())
    scale = float(np.abs(diagonal).max())
    if not pivot > diagonal.size * _EPS * scale:
        raise SingularSystemError(
            f"factorization of {context}: pivot {pivot:.3e} against "
            f"max|a_ii| = {scale:.3e} (singular or not positive definite?)")


def backward_errors(norm: float, B: np.ndarray, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Normwise backward error of each column of ``X`` as a solution of
    ``A X = B`` with residual ``R``, given ``norm = |A|_inf``."""
    # scale is 0 only for b = x = 0, where r = 0 too
    scale = norm * np.abs(X).max(axis=0) + np.abs(B).max(axis=0)
    return np.abs(R).max(axis=0) / np.maximum(scale, _TINY)


def cholesky(A: np.ndarray, context: str) -> np.ndarray:
    """Lower Cholesky factor ``L`` of a dense symmetric positive definite
    ``A = L L^T``; its pivots ``l_ii^2`` are checked as :class:`RefinedLU`
    checks those of SuperLU."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"factorization of {context} failed: {exc}") from exc
    _check_pivots(np.diagonal(L) ** 2, np.diagonal(A), context)
    return L


class _DenseCholesky:
    """The part of SuperLU's interface that :class:`RefinedLU` uses, on a
    dense Cholesky factor."""

    def __init__(self, A: np.ndarray, context: str):
        self._L = cholesky(A, context)
        n = A.shape[0]
        self.nnz = n * (n + 1) // 2  # the lower triangle

    def solve(self, B: np.ndarray) -> np.ndarray:
        return sla.cho_solve((self._L, True), B, check_finite=False)


class _BandedCholesky:
    """SuperLU's ``solve`` and ``nnz`` on a band Cholesky factor of
    ``A[perm][:, perm]``, whose entries lie at positions ``(rows, cols)``."""

    def __init__(self, A: sp.csc_matrix, perm: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, band: int, context: str):
        lower = rows >= cols
        ab = np.zeros((band + 1, A.shape[0]), order="F")
        ab[(rows - cols)[lower], cols[lower]] = A.data[lower]
        self._ab, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info:
            raise SingularSystemError(
                f"factorization of {context} failed: dpbtrf info {info} "
                f"(singular or not positive definite?)")
        _check_pivots(self._ab[0] ** 2, A.diagonal(), context)
        self._perm = perm
        self.nnz = ab.size

    def solve(self, B: np.ndarray) -> np.ndarray:
        x = lapack.dpbtrs(self._ab, B[self._perm], lower=1, overwrite_b=1)[0]
        X = np.empty_like(x)
        X[self._perm] = x
        return X


def _sparse_factor(A: sp.csc_matrix, context: str):
    """Checked factor of a sparse symmetric ``A``, by the band rule."""
    A.sum_duplicates()  # the band storage takes one value per position
    n = A.shape[0]
    perm = reverse_cuthill_mckee(A.T, symmetric_mode=True)  # A.T: a CSR view
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(n, dtype=perm.dtype)
    rows, cols = inverse[A.indices], np.repeat(inverse, np.diff(A.indptr))
    band = int(np.abs(rows - cols).max(initial=0))
    if (band + 1) * n <= _BAND_COST * A.nnz:
        return _BandedCholesky(A, perm, rows, cols, band, context)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularSystemError(f"factorization of {context} failed: {exc}") from exc
    _check_pivots(lu.U.diagonal(), A.diagonal(), context)
    return lu


class RefinedLU:
    """Direct factorization with a backward-error-checked solve.

    An ndarray ``A`` is factored by LAPACK Cholesky, a sparse one by band
    Cholesky or SuperLU as the band rule picks; the residual, refinement
    and backward-error check run on ``A`` as given.
    ``fill`` is the number of entries stored for the factors (SuperLU's
    ``nnz`` for ``L`` and ``U``, ``(b + 1) n`` for a band factor,
    ``n (n + 1) / 2`` for a dense Cholesky factor);
    ``backward_error`` is the worst column error of the last solve (None
    before the first).
    """

    def __init__(self, A: sp.spmatrix | np.ndarray, context: str = "matrix"):
        self.context = context
        self.backward_error: float | None = None
        if isinstance(A, np.ndarray):
            self._A = np.asarray(A, dtype=np.float64)
            self._lu = _DenseCholesky(self._A, context)
            self._norm = float(np.abs(self._A).sum(axis=1).max()) if self._A.size else 0.0
            return
        self._A = A.tocsc()
        self._lu = _sparse_factor(self._A, context)
        self._norm = float(np.bincount(self._A.indices, np.abs(self._A.data),
                                       minlength=self._A.shape[0]).max(initial=0.0))

    @property
    def fill(self) -> int:
        return int(self._lu.nnz)

    def solve(self, b: np.ndarray | sp.spmatrix) -> np.ndarray:
        """Solve ``A x = b`` for a vector, a dense matrix or a sparse matrix
        of right-hand sides; a sparse ``b`` gives a dense ``x``."""
        if sp.issparse(b):
            B = b.tocsc().astype(np.float64, copy=False)
            shape = B.shape
        else:
            b = np.asarray(b, dtype=np.float64)
            B, shape = b.reshape(b.shape[0], -1), b.shape
        x = np.empty(B.shape, order="F")
        width = max(1, _BLOCK_ENTRIES // max(B.shape[0], 1))
        self.backward_error = 0.0
        for start in range(0, B.shape[1], width):
            block = slice(start, start + width)
            B_block = B[:, block] if B.shape[1] > width else B
            if sp.issparse(B_block):
                B_block = B_block.toarray(order="F")
            x[:, block] = self._solve_block(B_block)
        return x.reshape(shape)

    def _solve_block(self, B: np.ndarray) -> np.ndarray:
        X = self._lu.solve(B)
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite raises below
            R = self._A @ X
            np.subtract(B, R, out=R)
            err = backward_errors(self._norm, B, X, R)
            todo = np.flatnonzero(err > _EPS)
            for _ in range(_MAX_REFINE):
                if not todo.size:
                    break
                Xt = X[:, todo] + self._lu.solve(R[:, todo])
                Rt = B[:, todo] - self._A @ Xt
                err_t = backward_errors(self._norm, B[:, todo], Xt, Rt)
                fell = err_t < err[todo]  # a column stops once its error stops falling
                kept = todo[fell]
                X[:, kept], R[:, kept], err[kept] = Xt[:, fell], Rt[:, fell], err_t[fell]
                todo = kept[err[kept] > _EPS]
        worst = float(err.max()) if err.size else 0.0  # NaN propagates
        if not worst <= self.backward_error:
            self.backward_error = worst
        if not worst <= BACKWARD_ERROR_BOUND or not np.isfinite(X).all():
            raise SingularSystemError(
                f"solve with {self.context}: backward error {worst:.3e} "
                f"exceeds {BACKWARD_ERROR_BOUND:.0e} or the solution is not finite")
        return X
