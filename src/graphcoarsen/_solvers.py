"""Internal direct-solver wrapper.

All sparse linear solves in the package go through :class:`RefinedLU`, a
SuperLU factorization with a checked solve.  Every system it factors is
symmetric positive definite (fine, harmonic-extension, constrained
energy-minimization, coarse and time-step operators), so there is one
policy: minimum-degree ordering on ``A^T + A`` and no pivoting, which keeps
the fill of a symmetric factorization.  As that drops the zero-pivot test
of partial pivoting, the pivots are checked instead, so a singular or
indefinite matrix raises :class:`SingularSystemError`.

Every solve measures the normwise backward error
``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)`` of each right-hand side
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 7 and 12),
refines only the columns above unit roundoff, for as long as their error
falls, and raises :class:`SingularSystemError` when a column ends above
``BACKWARD_ERROR_BOUND`` or is not finite.  A right-hand side wider than
a cache-sized block of columns is solved one such block at a time, each
block checked as above.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import SingularSystemError

__all__ = ["RefinedLU", "BACKWARD_ERROR_BOUND"]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_MAX_REFINE = 3
# right-hand-side entries per block of a solve (1 MiB of float64): SuperLU's
# triangular solve slows per column when handed many columns at once
_BLOCK_ENTRIES = 1 << 17
BACKWARD_ERROR_BOUND = 1e-10


class RefinedLU:
    """Sparse LU factorization with a backward-error-checked solve.

    ``fill`` is the number of entries SuperLU stores for ``L`` and ``U``
    (``SuperLU.nnz``, no copy of the factors);
    ``backward_error`` is the worst column error of the last solve (None
    before the first).
    """

    def __init__(self, A: sp.spmatrix, context: str = "matrix"):
        self._A = A.tocsc()
        self.context = context
        self.backward_error: float | None = None
        try:
            self._lu = spla.splu(self._A, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularSystemError(f"factorization of {context} failed: {exc}") from exc
        self._check_pivots()
        self._norm = float(abs(self._A).sum(axis=1).max()) if self._A.nnz else 0.0

    @property
    def fill(self) -> int:
        return int(self._lu.nnz)

    def _check_pivots(self) -> None:
        # without pivoting a singular or indefinite matrix factors silently
        n = self._A.shape[0]
        pivot = float(self._lu.U.diagonal().min())
        scale = float(np.abs(self._A.diagonal()).max())
        if not pivot > n * _EPS * scale:
            raise SingularSystemError(
                f"factorization of {self.context}: pivot {pivot:.3e} against "
                f"max|a_ii| = {scale:.3e} (singular or not positive definite?)")

    def _errors(self, B: np.ndarray, X: np.ndarray, R: np.ndarray) -> np.ndarray:
        # scale is 0 only for b = x = 0, where r = 0 too
        scale = self._norm * np.abs(X).max(axis=0) + np.abs(B).max(axis=0)
        return np.abs(R).max(axis=0) / np.maximum(scale, _TINY)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        B = b.reshape(b.shape[0], -1)
        x = np.empty(B.shape, order="F")
        width = max(1, _BLOCK_ENTRIES // max(B.shape[0], 1))
        self.backward_error = 0.0
        for start in range(0, B.shape[1], width):
            block = slice(start, start + width)
            x[:, block] = self._solve_block(B[:, block])
        return x.reshape(b.shape)

    def _solve_block(self, B: np.ndarray) -> np.ndarray:
        X = self._lu.solve(B)
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite raises below
            R = self._A @ X
            np.subtract(B, R, out=R)
            err = self._errors(B, X, R)
            todo = np.flatnonzero(err > _EPS)
            for _ in range(_MAX_REFINE):
                if not todo.size:
                    break
                Xt = X[:, todo] + self._lu.solve(R[:, todo])
                Rt = B[:, todo] - self._A @ Xt
                err_t = self._errors(B[:, todo], Xt, Rt)
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
