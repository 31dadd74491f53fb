"""Internal direct-solver wrapper.

All sparse linear solves in the package go through :class:`RefinedLU`: a
sparse LU factorization followed by a fixed number of iterative-refinement
steps.
One refinement step costs one extra triangular solve and pushes forward
errors on ill-conditioned systems (contrasts of 1e4 and beyond) down to
near round-off, which keeps error tables reproducible to many digits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import SingularSystemError

__all__ = ["RefinedLU"]


class RefinedLU:
    """LU factorization of a sparse matrix with iterative refinement."""

    def __init__(self, A: sp.spmatrix, refine: int = 1, context: str = "matrix"):
        self._A = A.tocsc()
        self.refine = int(refine)
        try:
            self._lu = spla.splu(self._A)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularSystemError(f"factorization of {context} failed: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        x = self._lu.solve(b)
        for _ in range(self.refine):
            r = b - self._A @ x
            x = x + self._lu.solve(r)
        return x
