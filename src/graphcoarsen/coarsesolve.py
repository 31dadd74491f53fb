"""Coarse-scale steady and transient solvers and error metrics.

The coarse operator is ``P^T A P`` with the restriction fixed to ``P^T``:
taken in closed form when the prolongation carries it (the global kinds),
otherwise as the sparse triple product.  The reconstructed fine-scale
approximation is ``P u_c``.  Transient systems use backward Euler with one
factorization reused across the steps and start from zero.  The global
kinds' P is dense in CSR form, so for them the capacity ``P^T C P`` (from
one dense copy of P), the step products with it and the reconstruction of
the states (a block of rows of P at a time) use dense BLAS; every other P
stays sparse throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._solvers import RefinedLU
from .graph import norm_A
from .interpolation import Prolongation

__all__ = [
    "CoarseModel",
    "TransientConfig",
    "ParabolicResult",
    "galerkin_coarse",
    "solve_steady",
    "solve_fine",
    "solve_parabolic",
    "errors",
    "galerkin_residual",
]

# fine vertices per block of the dense reconstruction
_ROW_BLOCK = 256


def _as_matrix(P) -> sp.csr_matrix:
    return P.matrix if isinstance(P, Prolongation) else P.tocsr()


@dataclass(frozen=True)
class CoarseModel:
    """Galerkin coarse system with the prolongation that produced it."""

    prolongation: Prolongation | sp.spmatrix
    operator: sp.csr_matrix
    rhs: np.ndarray
    # P^T C P: sparse, or dense for a P that carries its coarse operator
    capacity: sp.csr_matrix | np.ndarray | None = None

    @property
    def n_coarse(self) -> int:
        return self.operator.shape[0]

    @property
    def matrix(self) -> sp.csr_matrix:
        return _as_matrix(self.prolongation)


@dataclass(frozen=True)
class TransientConfig:
    """Uniform backward-Euler time grid."""

    tau: float
    n_steps: int

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")

    @property
    def total_time(self) -> float:
        return self.tau * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class ParabolicResult:
    """Trajectory on the fine space plus, for coarse runs, coarse states."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n) fine-space values
    coarse_states: np.ndarray | None = None


def galerkin_coarse(A: sp.spmatrix, f: np.ndarray, P,
                    capacity: np.ndarray | sp.spmatrix | None = None) -> CoarseModel:
    """Assemble ``P^T A P`` and ``P^T f`` (plus ``P^T C P`` when asked).

    A prolongation that carries its coarse operator (the global kinds) gives
    ``P^T A P`` in closed form, after a probe ``P^T A P v`` with a fixed
    random ``v`` confirms it to 1e-10 relative, so an operator built for
    another ``A`` raises ``ValueError``.  Otherwise ``P^T A P`` is the sparse
    triple product.  Either is symmetrized exactly after an asymmetry check
    at 1e-10 relative.  ``P^T C P`` is a dense BLAS product for a P that
    carries its operator (``capacity`` is then an ndarray) and the sparse
    triple product otherwise; it is symmetrized exactly too.
    """
    Pm = _as_matrix(P)
    if Pm.shape[0] != A.shape[0]:
        raise ValueError("prolongation and operator sizes do not match")
    carried = P.operator if isinstance(P, Prolongation) else None
    if carried is None:
        A_c = (Pm.T @ (A @ Pm)).tocsr()
    else:
        v = np.random.default_rng(0).standard_normal(Pm.shape[1])
        probe = Pm.T @ (A @ (Pm @ v))
        if np.linalg.norm(carried @ v - probe) > 1e-10 * np.linalg.norm(probe):
            raise ValueError("carried coarse operator is not P^T A P for this A")
        A_c = sp.csr_matrix(carried)
    asym = np.abs((A_c - A_c.T).tocoo().data)
    scale = max(np.abs(A_c.tocoo().data).max() if A_c.nnz else 0.0, 1e-300)
    if asym.size and asym.max() > 1e-10 * scale:
        raise ValueError("coarse operator lost symmetry beyond tolerance")
    A_c = ((A_c + A_c.T) * 0.5).tocsr()
    f_c = np.asarray(Pm.T @ np.asarray(f, dtype=np.float64)).ravel()
    C_c = None
    if capacity is not None:
        C = sp.diags(capacity) if np.ndim(capacity) == 1 else capacity
        if carried is None:
            C_c = (Pm.T @ (C @ Pm)).tocsr()
            C_c = ((C_c + C_c.T) * 0.5).tocsr()
        else:  # a P that carries its operator is dense in CSR form
            D = Pm.toarray()
            C_c = D.T @ (C @ D)
            C_c = (C_c + C_c.T) * 0.5
    return CoarseModel(P, A_c, f_c, capacity=C_c)


def solve_steady(model: CoarseModel) -> tuple[np.ndarray, np.ndarray]:
    """Direct coarse solve; returns ``(u_c, P u_c)``."""
    lu = RefinedLU(model.operator.tocsc(), context="coarse operator")
    u_c = lu.solve(model.rhs)
    u_ms = np.asarray(model.matrix @ u_c).ravel()
    return u_c, u_ms


def solve_fine(A: sp.spmatrix, f: np.ndarray) -> np.ndarray:
    """Reference fine-scale solve by refined direct factorization."""
    f = np.asarray(f, dtype=np.float64)
    return RefinedLU(A.tocsc(), context="fine operator").solve(f)


def solve_parabolic(capacity, A: sp.spmatrix, f: np.ndarray,
                    cfg: TransientConfig, P=None,
                    u0: np.ndarray | None = None) -> ParabolicResult:
    """Backward Euler for ``C u' + A u = f`` with diagonal capacity.

    Without ``P`` this integrates the fine system from ``u0`` (zero when
    omitted).  With ``P`` the coarse system is assembled and integrated from
    zero, so a nonzero ``u0`` raises ``ValueError``, and the returned states
    are the reconstructions ``P u_c``.
    """
    cap = np.asarray(capacity, dtype=np.float64).ravel() if np.ndim(capacity) <= 1 \
        else np.asarray(capacity.diagonal(), dtype=np.float64)
    if np.any(cap <= 0):
        raise ValueError("capacities must be positive")
    n = A.shape[0]
    f = np.asarray(f, dtype=np.float64)
    u_start = np.zeros(n) if u0 is None else np.asarray(u0, dtype=np.float64)

    if P is None:
        M = (sp.diags(cap / cfg.tau) + A).tocsc()
        lu = RefinedLU(M, context="time-step operator")
        states = np.empty((cfg.n_steps + 1, n))
        states[0] = u_start
        u = u_start
        for step in range(cfg.n_steps):
            u = lu.solve(cap * u / cfg.tau + f)
            states[step + 1] = u
        return ParabolicResult(cfg.times, states)

    if np.any(u_start != 0):
        raise ValueError("coarse runs start at zero; pass u0=None or a zero state")
    model = galerkin_coarse(A, f, P, capacity=cap)
    M_c = sp.csc_matrix(model.capacity / cfg.tau + model.operator)
    lu = RefinedLU(M_c, context="coarse time-step operator")
    u_c = np.zeros(model.n_coarse)
    coarse_states = np.empty((cfg.n_steps + 1, model.n_coarse))
    coarse_states[0] = u_c
    for step in range(cfg.n_steps):
        u_c = lu.solve(np.asarray(model.capacity @ u_c).ravel() / cfg.tau + model.rhs)
        coarse_states[step + 1] = u_c
    Pm = _as_matrix(P)
    if sp.issparse(model.capacity):
        states = np.asarray(coarse_states @ Pm.T)
    else:  # P is dense: densify it a block of rows at a time, in place
        states_T = np.empty((n, cfg.n_steps + 1))
        for i in range(0, n, _ROW_BLOCK):
            np.matmul(Pm[i:i + _ROW_BLOCK].toarray(), coarse_states.T,
                      out=states_T[i:i + _ROW_BLOCK])
        states = states_T.T
    return ParabolicResult(cfg.times, states, coarse_states=coarse_states)


def errors(u: np.ndarray, u_ms: np.ndarray, A: sp.spmatrix) -> tuple[float, float]:
    """Relative errors in percent: Euclidean ``e1`` and energy ``e2``."""
    u = np.asarray(u, dtype=np.float64)
    u_ms = np.asarray(u_ms, dtype=np.float64)
    denom = np.linalg.norm(u)
    if denom == 0:
        raise ValueError("reference solution must be nonzero")
    e1 = 100.0 * np.linalg.norm(u - u_ms) / denom
    e2 = 100.0 * norm_A(u - u_ms, A) / norm_A(u, A)
    return float(e1), float(e2)


def galerkin_residual(P, A: sp.spmatrix, f: np.ndarray, u_ms: np.ndarray) -> float:
    """Max-norm of the restricted residual ``P^T (f - A u_ms)``.

    The true value sits far below double-precision rounding of the fine
    matvec, so the residual is evaluated in extended precision (the
    identity itself is not affected, only its observability).
    """
    ld = np.longdouble
    r = np.asarray(f).astype(ld) - A.astype(ld) @ np.asarray(u_ms).astype(ld)
    return float(np.abs(_as_matrix(P).T.astype(ld) @ r).max())
