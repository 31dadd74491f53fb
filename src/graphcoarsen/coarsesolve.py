"""Coarse-scale steady and transient solvers and error metrics.

The coarse operator is ``P^T A P``, carried by every built prolongation
(dense for the global kinds, sparse for the localized ones) and the sparse
triple product for a P that carries none; the fine-scale approximation is
``P u_c``.  Transient systems use backward Euler, every run from zero,
with one positive capacity per vertex.  One comparison picks the coarse
integrator: the modal closed form, an O(n_c^3) eigendecomposition, when
``n_c^3 <= _MODAL_COST n_steps nnz(A_c)`` (a step costs at least
nnz(A_c)), else stepping with one factorization, as for the fine system.
A global P is dense in CSR form (:attr:`Prolongation.dense`), so its
coarse model is solved dense.  A coarse run keeps only its coarse states:
its fine states are a :class:`Trajectory` that rebuilds ``P u_c[k]``
through P's own product when it is read.  Every factorization is a
:class:`RefinedLU`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._solvers import BACKWARD_ERROR_BOUND, RefinedLU, backward_errors, cholesky
from .exceptions import SingularSystemError
from .graph import _asymmetry, _symmetric_part, _transpose, dense_to_csr, norm_A
from .interpolation import Prolongation

__all__ = [
    "CoarseModel",
    "TransientConfig",
    "ParabolicResult",
    "Trajectory",
    "galerkin_coarse",
    "solve_steady",
    "solve_fine",
    "solve_parabolic",
    "errors",
    "galerkin_residual",
]

# the closed form runs while n_c^3 <= _MODAL_COST n_steps nnz(A_c); the
# crossover measured on both sides of it is in CHANGES.md
_MODAL_COST = 10


@dataclass(frozen=True)
class CoarseModel:
    """Galerkin coarse system with the prolongation that produced it."""

    prolongation: Prolongation
    operator: sp.csr_matrix
    rhs: np.ndarray
    # P^T C P: sparse, or dense for a dense P
    capacity: sp.csr_matrix | np.ndarray | None = None

    @property
    def n_coarse(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class TransientConfig:
    """Uniform backward-Euler time grid."""

    tau: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.tau < np.inf:  # NaN fails too
            raise ValueError(f"time step must be positive and finite, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError("need at least one step")

    @property
    def total_time(self) -> float:
        return self.tau * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The fine states ``P u_c[k]`` of a coarse run, rebuilt when read.

    ``states[k]`` (negative ``k`` too) is one new state ``P u_c[k]``, and
    iteration yields them one at a time.  Slicing and ``np.asarray``
    rebuild the states they cover in one product ``u_c P^T``.  Nothing is
    cached: a trajectory holds only P and the coarse states.
    """

    prolongation: Prolongation
    coarse_states: np.ndarray  # (n_steps + 1, n_c)

    def __len__(self) -> int:
        return len(self.coarse_states)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._rebuild(self.coarse_states[key])
        return self.prolongation.matrix @ self.coarse_states[operator.index(key)]

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a trajectory holds no fine states to share; "
                             "they are rebuilt on every read")
        states = self._rebuild(self.coarse_states)
        return states if dtype is None else states.astype(dtype, copy=False)

    def _rebuild(self, coarse_states: np.ndarray) -> np.ndarray:
        """The rows ``P u_c`` of the rows ``u_c`` of ``coarse_states``."""
        return np.asarray(coarse_states @ self.prolongation.matrix.T)


@dataclass(frozen=True)
class ParabolicResult:
    """The times and the states on the fine space of a backward-Euler run.

    ``states`` is an ``(n_steps + 1, n)`` array for a fine run, its only
    copy of the states, and for a coarse run a :class:`Trajectory`, which
    holds the coarse states and rebuilds the fine ones when they are read.
    """

    times: np.ndarray
    states: np.ndarray | Trajectory


def galerkin_coarse(A: sp.spmatrix, f: np.ndarray, P: Prolongation,
                    capacity: np.ndarray | None = None) -> CoarseModel:
    """Assemble ``P^T A P`` and ``P^T f`` (plus ``P^T C P`` when asked).

    A prolongation that carries its coarse operator (every built kind)
    gives ``P^T A P`` without a product, after a probe ``P^T A P v`` with a
    fixed random ``v`` confirms it to 1e-10 relative, so an operator built
    for another ``A`` raises ``ValueError``; a dense one is then converted
    to CSR.  For a P that carries none (one read from a file) ``P^T A P``
    is the sparse triple product.  Every operator is compared with its
    transpose entry by entry, raises ``ValueError`` when it is asymmetric
    beyond 1e-10 relative, and is symmetrized exactly only where it is not
    symmetric already, with the transpose the check took; only a carried
    CSR operator is copied for that, so a symmetric one is the model's
    operator itself.  ``capacity`` holds one positive capacity per vertex
    (``ValueError`` otherwise); ``P^T C P`` is dense for a dense P
    (:attr:`Prolongation.dense`), sparse otherwise, and symmetrized exactly.
    """
    Pm = P.matrix
    if Pm.shape[0] != A.shape[0]:
        raise ValueError("prolongation and operator sizes do not match")
    A_c = P.operator
    if A_c is None:
        A_c = (Pm.T @ (A @ Pm)).tocsr()
    else:
        v = np.random.default_rng(0).standard_normal(Pm.shape[1])
        probe = Pm.T @ (A @ (Pm @ v))
        if np.linalg.norm(A_c @ v - probe) > 1e-10 * np.linalg.norm(probe):
            raise ValueError("carried coarse operator is not P^T A P for this A")
        A_c = dense_to_csr(A_c) if P.dense else A_c.tocsr()  # the same object for CSR
    # one transpose serves the check and the symmetrization
    transposed = _transpose(A_c)
    asym = _asymmetry(A_c, transposed)
    if asym > 1e-10 * max(np.abs(A_c.data).max(initial=0.0), 1e-300):
        raise ValueError("coarse operator lost symmetry beyond tolerance")
    if asym:
        A_c = _symmetric_part(A_c.copy() if A_c is P.operator else A_c, transposed)
    f_c = np.asarray(Pm.T @ np.asarray(f, dtype=np.float64)).ravel()
    C_c = None
    if capacity is not None:
        C = sp.diags(_capacity_vector(capacity, Pm.shape[0]))
        D = Pm.toarray() if P.dense else Pm  # a dense P is dense in CSR form
        C_c = D.T @ (C @ D)
        C_c = (C_c + C_c.T) * 0.5
        C_c = C_c if P.dense else C_c.tocsr()
    return CoarseModel(P, A_c, f_c, capacity=C_c)


def _capacity_vector(capacity, n: int) -> np.ndarray:
    """``capacity`` as float64, checked to be one positive value per vertex."""
    if sp.issparse(capacity) or np.shape(capacity) != (n,):
        raise ValueError(f"capacity must be a vector of {n} values, one per vertex, "
                         f"got shape {np.shape(capacity)}")
    cap = np.asarray(capacity, dtype=np.float64)
    if not np.all(cap > 0):  # NaN fails too
        raise ValueError("capacities must be positive")
    return cap


def solve_steady(model: CoarseModel) -> tuple[np.ndarray, np.ndarray]:
    """Direct coarse solve by :class:`RefinedLU`, of the dense ``A_c`` for a
    dense P; returns ``(u_c, P u_c)``."""
    A_c = model.operator.toarray() if model.prolongation.dense else model.operator
    u_c = RefinedLU(A_c, context="coarse operator").solve(model.rhs)
    return u_c, np.asarray(model.prolongation.matrix @ u_c).ravel()


def solve_fine(A: sp.spmatrix, f: np.ndarray) -> np.ndarray:
    """Reference fine-scale solve by checked direct factorization."""
    return RefinedLU(A, context="fine operator").solve(f)


def solve_parabolic(capacity: np.ndarray, A: sp.spmatrix, f: np.ndarray,
                    cfg: TransientConfig, P: Prolongation | None = None) -> ParabolicResult:
    """Backward Euler for ``C u' + A u = f`` with ``C = diag(capacity)``;
    ``capacity`` holds one positive value per vertex, and any other shape
    or a value that is not positive raises ``ValueError``.

    Every run starts from zero.  Without ``P`` this steps the fine system;
    with ``P`` it integrates the coarse model, and the states are a
    :class:`Trajectory` of the reconstructions ``P u_c``.  The coarse
    states come in modal closed form when
    ``n_c^3 <= _MODAL_COST n_steps nnz(A_c)``, otherwise by stepping with
    one factorization of ``C_c/tau + A_c``.  The closed form raises
    ``SingularSystemError`` for a coarse capacity that is not positive
    definite, ``1 + tau lam <= 0``, or a last step whose normwise backward
    error exceeds ``BACKWARD_ERROR_BOUND``.
    """
    cap = _capacity_vector(capacity, A.shape[0])
    f = np.asarray(f, dtype=np.float64)

    if P is None:
        states = _backward_euler(sp.diags(cap / cfg.tau) + A, sp.diags(cap), f, cfg,
                                 "time-step operator")
        return ParabolicResult(cfg.times, states)

    model = galerkin_coarse(A, f, P, capacity=cap)
    n_c, C_c = model.n_coarse, model.capacity
    if n_c**3 <= _MODAL_COST * cfg.n_steps * model.operator.nnz:
        coarse_states = _modal_backward_euler(model, cfg)
    else:
        A_c = model.operator.toarray() if P.dense else model.operator
        coarse_states = _backward_euler(C_c / cfg.tau + A_c, C_c, model.rhs, cfg,
                                        "coarse time-step operator")
    return ParabolicResult(cfg.times, Trajectory(P, coarse_states))


def _backward_euler(M, C, f: np.ndarray, cfg: TransientConfig, context: str
                    ) -> np.ndarray:
    """All states of ``M u_{k+1} = C u_k / tau + f`` from ``u_0 = 0``, where
    ``M = C/tau + A``, with one factorization of ``M``."""
    lu = RefinedLU(M, context=context)
    states = np.empty((cfg.n_steps + 1, f.size))
    states[0] = 0.0
    for k in range(cfg.n_steps):
        states[k + 1] = lu.solve(C @ states[k] / cfg.tau + f)
    return states


def _modal_backward_euler(model: CoarseModel, cfg: TransientConfig) -> np.ndarray:
    """All backward-Euler states of a coarse model from zero, on its dense form.

    With ``A_c V = C_c V diag(lam)`` and ``V^T C_c V = I`` the recurrence
    ``(C_c/tau + A_c) u_{k+1} = C_c u_k/tau + f_c`` decouples into
    ``z_k = (1 - (1 + tau lam)^{-k}) (V^T f_c)/lam`` (``k tau V^T f_c`` where
    ``lam = 0``) with ``u_k = V z_k``: the same scheme as stepping, not
    the exponential ``e^{-lam t}``.
    """
    C_c = model.capacity.toarray() if sp.issparse(model.capacity) else model.capacity
    # one Cholesky C_c = L L^T, pivots checked as RefinedLU checks them,
    # serves the definiteness test and the reduction to a standard eigenproblem
    L = cholesky(C_c, context="coarse capacity P^T C P "
                              "(are the columns of P independent?)")
    A_c = model.operator.toarray()
    B = sla.solve_triangular(L, sla.solve_triangular(L, A_c, lower=True).T, lower=True)
    lam, W = sla.eigh(B)
    V = sla.solve_triangular(L, W, lower=True, trans="T")
    if np.any(1 + cfg.tau * lam <= 0):
        raise SingularSystemError("coarse time-step operator C_c/tau + A_c "
                                  "is singular or indefinite")
    growth = np.log1p(cfg.tau * lam)
    k = np.arange(cfg.n_steps + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(lam == 0, k * cfg.tau, -np.expm1(-k * growth) / lam)
    weights *= V.T @ model.rhs
    states = weights @ V.T
    # the last step of the recurrence, checked as RefinedLU checks a solve
    M = C_c / cfg.tau + A_c
    b = C_c @ states[-2] / cfg.tau + model.rhs
    err = backward_errors(np.abs(M).sum(axis=1).max(), b, states[-1], b - M @ states[-1])
    if not err <= BACKWARD_ERROR_BOUND:  # NaN fails too
        raise SingularSystemError(
            f"closed form with coarse time-step operator: backward error {err:.3e} "
            f"exceeds {BACKWARD_ERROR_BOUND:.0e} or the states are not finite")
    return states


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


def galerkin_residual(P: Prolongation, A: sp.spmatrix, f: np.ndarray,
                      u_ms: np.ndarray) -> float:
    """Max-norm of the restricted residual ``P^T (f - A u_ms)``.

    The true value sits far below double-precision rounding of the fine
    matvec: at high contrast ``f`` and ``A u_ms`` cancel to many digits,
    so ``r = f - A u_ms`` is formed in extended precision (the identity
    itself is not affected, only its observability).  Once ``r`` is
    formed no cancellation is left, so it is restricted in double through
    P's own product, with rounding relative to ``|P|^T |r|``.
    """
    ld = np.longdouble
    r = np.asarray(f).astype(ld) - A.astype(ld) @ np.asarray(u_ms).astype(ld)
    return float(np.abs(P.matrix.T @ r.astype(np.float64)).max())
