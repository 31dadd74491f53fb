"""Prolongation operators: ideal interpolation on a centroid CF-splitting
(global and localized) and constrained energy minimization over aggregate
means (global and localized).

Column (k, r) of every prolongation belongs to aggregate r of subdomain k;
columns are ordered lexicographically by (k, r).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ._solvers import _BLOCK_ENTRIES, RefinedLU
from .clustering import ClusterSet
from .exceptions import InfeasibleConstraintError, RepairWarning
from .graph import IndexSet, _symmetric_part, dense_to_csr
from .partition import Partition

__all__ = [
    "ColumnInfo",
    "Prolongation",
    "cf_split",
    "cf_ideal_global",
    "cf_ideal_local",
    "region_constraints",
    "build_constraints",
    "mc_global",
    "mc_local",
    "constraint_violation",
]


class ColumnInfo(NamedTuple):
    subdomain: int
    aggregate: int
    centroid: int | None  # CF kinds carry the coarse node, MC kinds None


@dataclass(frozen=True)
class Prolongation:
    """Sparse prolongation with per-column provenance.

    Every builder also returns ``operator``, the coarse operator
    ``P^T A P`` for the ``A`` it was built from: the dense Schur complement
    for cf-glo, the dense product of the eliminated basis with ``A P`` for
    mc-glo, and for the localized kinds the CSR operator summed from
    per-subdomain dense blocks (:func:`_local_galerkin`).  A P read from a
    file carries none.
    """

    matrix: sp.csr_matrix
    kind: str
    columns: tuple[ColumnInfo, ...]
    operator: np.ndarray | sp.csr_matrix | None = None

    def __post_init__(self):
        if self.matrix.shape[1] != len(self.columns):
            raise ValueError("one metadata entry per column required")
        if self.operator is not None and self.operator.shape != (self.n_coarse,) * 2:
            raise ValueError("coarse operator must be n_coarse x n_coarse")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_coarse(self) -> int:
        return self.matrix.shape[1]

    @property
    def dense(self) -> bool:
        """Whether P is dense in CSR form, with a dense coarse operator: the
        global kinds, whose operator is an ndarray."""
        return isinstance(self.operator, np.ndarray)


def cf_split(clusters: ClusterSet, n: int) -> tuple[IndexSet, IndexSet]:
    """Coarse set = centroids in column order, fine set = sorted complement."""
    C = IndexSet(clusters.flat_centroids, n)
    return C, C.complement()


def _cf_columns(clusters: ClusterSet) -> tuple[ColumnInfo, ...]:
    return tuple(ColumnInfo(k, r, int(clusters.centroids[k][r]))
                 for k, r in clusters.columns)


def cf_ideal_global(A: sp.spmatrix, clusters: ClusterSet) -> Prolongation:
    """Ideal interpolation ``P = [W; I]`` with ``W = -A_FF^{-1} A_FC`` on
    the centroid split of :func:`cf_split`.

    Returned in native vertex ordering: centroid rows carry the identity,
    fine rows the harmonic extension.  One factorization of ``A_FF`` is
    applied to all coarse columns at once, with ``A_FC`` kept sparse, so
    that beside the dense P only ``W`` exists.  The coarse operator is the
    Schur complement ``A_CC + A_CF W``.
    """
    A = A.tocsr()
    n = A.shape[0]
    C, F = cf_split(clusters, n)
    n_c = len(C)
    columns = _cf_columns(clusters)
    rows_c = A[C.ids]
    A_c = rows_c[:, C.ids].toarray()
    if len(F) == 0:
        P = sp.csr_matrix((np.ones(n_c), (C.ids, np.arange(n_c))), shape=(n, n_c))
        return Prolongation(P, "cf-glo", columns, operator=A_c)
    rows_f = A[F.ids]
    lu = RefinedLU(rows_f[:, F.ids], context="A_FF (is A positive definite?)")
    W = lu.solve(rows_f[:, C.ids])
    np.negative(W, out=W)
    A_c += rows_c[:, F.ids] @ W

    P = np.zeros((n, n_c))
    P[F.ids] = W
    del W
    P[C.ids, np.arange(n_c)] = 1.0
    return Prolongation(dense_to_csr(P), "cf-glo", columns, operator=A_c)


def cf_ideal_local(A: sp.spmatrix, clusters: ClusterSet,
                   partition: Partition) -> Prolongation:
    """Localized ideal interpolation over the oversampled regions, with its
    coarse operator.

    Each region is split by the global CF-membership.  One factorization
    of its FF block and one multi-right-hand-side solve give the harmonic
    extensions of all the subdomain's centroids: one block ``W_k`` of P on
    the F rows of the region, plus each column's own centroid, which holds
    1 and is the only entry of its row.

    ``A P_k`` vanishes on the region's F rows, so it is the outer residual
    ``Q_k = A[outer, block] [W_k; I]`` on the rows next to the block that
    are not F rows of the region: the own centroids, then the other
    centroids and the ring just outside the region.  For a symmetric ``A``
    these are read from the rows of ``A`` at the block, the same rows that
    give the FF block and the right-hand sides.  :func:`_local_galerkin`
    forms ``P^T A P`` from these blocks, summing over the outer rows in
    that order; with no ring it is the Schur complement cf-glo carries.
    """
    if partition.oversampled is None:
        raise ValueError("partition carries no oversampled regions")
    A = A.tocsr()
    n = A.shape[0]
    centroids = clusters.flat_centroids
    is_coarse = np.zeros(n, dtype=bool)
    is_coarse[centroids] = True

    # the local column of each vertex of the block in hand, -1 elsewhere
    local = np.full(n, -1, dtype=A.indices.dtype)
    blocks, products = [], []
    for k in range(clusters.n_subdomains):
        ids = partition.oversampled[k].ids
        own = centroids[clusters.column_offsets[k]:clusters.column_offsets[k + 1]]
        if not np.isin(own, ids).all():
            raise ValueError(f"subdomain {k}: centroid outside its oversampled region")
        f_ids = ids[~is_coarse[ids]]
        nf = f_ids.size
        block_ids = np.concatenate([f_ids, own])
        # the block's rows on local columns: the region's F vertices, then
        # the outer rows, the own centroids first
        sub = A[block_ids]
        local[block_ids] = np.arange(block_ids.size)
        rest = np.unique(sub.indices[local[sub.indices] < 0])
        local[rest] = np.arange(block_ids.size, block_ids.size + rest.size)
        sub = sp.csr_matrix((sub.data, local[sub.indices], sub.indptr),
                            shape=(block_ids.size, block_ids.size + rest.size))
        local[block_ids] = -1
        local[rest] = -1

        W = np.zeros((nf, own.size))
        if nf and own.size:
            lu = RefinedLU(sub[:nf, :nf], context=f"local FF block of subdomain {k}")
            W = -lu.solve(sub[:nf, nf:block_ids.size].toarray())
        blocks.append((f_ids[:, None], W))
        # A P on the outer rows, A[outer, block] [W; I], where A[outer, block]
        # of a symmetric A is the transpose of the block's outer columns
        products.append((np.concatenate([own, rest]),
                         sub[:, nf:].T @ np.concatenate([W, np.eye(own.size)])))
    P = _assemble_rows(blocks, n, centroids)
    return Prolongation(P, "cf-loc", _cf_columns(clusters),
                        operator=_local_galerkin(P, products))


def region_constraints(clusters: ClusterSet, ids: np.ndarray
                       ) -> tuple[np.ndarray, sp.csr_matrix]:
    """Mean-value rows of the aggregates lying wholly in the vertex list
    ``ids``: ``1/|aggregate|`` on members, columns in the order of ``ids``.

    Returns the coarse columns of the kept aggregates (ascending) and the
    rows in that order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    label = clusters.column_of[ids]
    kept = _kept_aggregates(clusters, label)
    pos = np.flatnonzero(np.isin(label, kept))
    S = sp.csr_matrix((1.0 / clusters.sizes[label[pos]],
                       (np.searchsorted(kept, label[pos]), pos)),
                      shape=(kept.size, ids.size))
    return kept, S


def _kept_aggregates(clusters: ClusterSet, label: np.ndarray) -> np.ndarray:
    """The coarse columns (ascending) of the aggregates all of whose members
    are among the vertices with the column labels ``label``."""
    present, count = np.unique(label[label >= 0], return_counts=True)
    return present[count == clusters.sizes[present]]


def build_constraints(clusters: ClusterSet) -> sp.csr_matrix:
    """Global mean-value constraint operator: one row per aggregate in
    column order, one column per fine vertex."""
    return region_constraints(clusters, np.arange(clusters.n_vertices))[1]


def _constrained_minimizers(A: sp.csr_matrix, owner: np.ndarray, weight: np.ndarray,
                            targets: np.ndarray, context: str) -> np.ndarray:
    """Minimize ``x^T A x / 2``, for a symmetric positive definite ``A``,
    subject to ``S x = e_t`` for each constraint row ``t`` in ``targets``;
    returns the minimizers as columns.

    ``S`` is given by its layout: ``owner`` labels each vertex with the row
    that constrains it (-1 where none does; every row has a member), and
    row ``i`` stores the weight ``weight[i]`` on each of its members.  The
    member with the lowest index of each row is its pivot, eliminated as
    ``x_pivot = e_t / w - (sum of the other members)``: ``x = Z y + X_p``,
    where ``X_p`` holds ``1/w`` on the target's pivot and ``Z`` has a column
    ``e_i`` for each unconstrained vertex and ``e_i - e_prev(i)`` for each
    free member, ``prev(i)`` the member before it in its row: each vertex
    lies in at most two columns, so ``Z^T A Z`` keeps near the band of ``A``
    (Benzi, Golub & Liesen, Acta Numer. 2005, sec. 6).  ``y`` solves the SPD
    system ``(Z^T A Z) y = -Z^T A X_p`` (the null-space method), one
    factorization for all targets; ``x`` does not depend on ``Z``.  When
    every vertex is a pivot, ``x = X_p``.
    """
    n, k = A.shape[0], targets.size
    members = np.flatnonzero(owner >= 0)
    pivots = members[np.unique(owner[members], return_index=True)[1]]
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    if free.size:
        # row j of Z^T: +1 on free[j], -1 on the member before it in its row
        chain = members[np.argsort(owner[members], kind="stable")]
        prev = np.empty(n, dtype=chain.dtype)
        prev[chain[1:]] = chain[:-1]
        member = np.flatnonzero(owner[free] >= 0)
        Zt = sp.csr_matrix((np.r_[np.ones(free.size), -np.ones(member.size)],
                            (np.r_[np.arange(free.size), member],
                             np.r_[free, prev[free[member]]])),
                           shape=(free.size, n))
        AZ = A @ Zt.T
        lu = RefinedLU((Zt @ AZ).tocsc(), context=context)
        # Z^T A X_p = (A Z)^T X_p for a symmetric A: rows of A Z at the
        # pivots, kept sparse and divided column by column, as a dense copy
        # divided by -w would be
        rhs = AZ[pivots[targets]].T.tocsc()
        rhs.data /= np.repeat(-weight[targets], np.diff(rhs.indptr))
        y = lu.solve(rhs)
        # x = Z y a block of columns at a time: a sparse product copies its
        # column-major dense operand to row-major first
        width = max(1, _BLOCK_ENTRIES // n)
        psi = np.empty((n, k))
        for start in range(0, k, width):
            psi[:, start:start + width] = Zt.T @ y[:, start:start + width]
    else:
        psi = np.zeros((n, k))
    psi[pivots[targets], np.arange(k)] += 1.0 / weight[targets]
    return psi


def mc_global(A: sp.spmatrix, clusters: ClusterSet) -> Prolongation:
    """Energy-minimizing basis with mean-value constraints on every
    aggregate: column (k, r) has aggregate mean one on its own aggregate
    and zero on all others.  One pivot member per aggregate is eliminated
    and each other member enters ``Z`` as its difference to the member
    before it (:func:`_constrained_minimizers`), so all columns share one
    factorization of the SPD reduced operator ``Z^T A Z``.  The coarse
    operator ``P^T A P`` is the dense product of the basis with ``A P``,
    taken before the basis is stored as CSR, so that ``A P`` is gone then."""
    A = A.tocsr()
    psi = _constrained_minimizers(A, clusters.column_of, 1.0 / clusters.sizes,
                                  np.arange(clusters.n_coarse),
                                  context="global constrained system")
    A_c = psi.T @ (A @ psi)
    columns = tuple(ColumnInfo(k, r, None) for k, r in clusters.columns)
    return Prolongation(dense_to_csr(psi), "mc-glo", columns, operator=A_c)


def mc_local(A: sp.spmatrix, clusters: ClusterSet, partition: Partition) -> Prolongation:
    """Localized energy minimization with zero boundary values, with its
    coarse operator.

    The 'boundary ring' of an oversampled region (vertices with a nonzero
    operator entry outside it) is pinned to zero by dropping those rows and
    columns; when the region has no exterior neighbor all rows are kept,
    matching the global construction.  Each region is constrained by the
    aggregates lying wholly inside it (:func:`region_constraints`);
    aggregates whose members all fall on the ring lose their constraint row
    (reported once per build, naming every such subdomain), and a target
    aggregate losing its row is an error.  A kept row keeps its weight
    ``1/|aggregate|`` on the interior members left.  One pivot member per
    row, the interior member first in region order, is eliminated, each
    other member kept as its difference to the one before it
    (:func:`_constrained_minimizers`): all columns of a subdomain share one
    factorization of a mostly narrow-band SPD reduced operator and form one
    block ``psi_k`` of P on the interior rows ``I_k``.  The region's rows of A
    are read once, through a map from vertex to region position.

    An interior vertex has all its neighbors inside the region, so
    ``A P_k`` is the small dense block ``Y_k = A[R_k, I_k] psi_k`` on the
    region rows ``R_k`` with a nonzero entry in ``I_k``, and
    :func:`_local_galerkin` forms ``P^T A P`` from these blocks.
    """
    if partition.oversampled is None:
        raise ValueError("partition carries no oversampled regions")
    A = A.tocsr()
    n = A.shape[0]
    idx = A.indices.dtype

    # the region position of each vertex of the region in hand, -1 elsewhere
    local = np.full(n, -1, dtype=idx)
    blocks, products, dropped = [], [], []
    for k in range(clusters.n_subdomains):
        ids = partition.oversampled[k].ids
        local[ids] = np.arange(ids.size)
        sub = A[ids]
        col = local[sub.indices]
        local[ids] = -1
        row = np.repeat(np.arange(ids.size), np.diff(sub.indptr))
        nonzero = sub.data != 0
        interior = np.ones(ids.size, dtype=bool)
        interior[row[(col < 0) & nonzero]] = False
        if not interior.any():
            raise InfeasibleConstraintError(
                f"subdomain {k}: oversampled region is all boundary ring")
        interior_ids = ids[interior].astype(idx)
        # the entries in interior columns, renumbered over the interior, and
        # the rows R_k holding a nonzero one
        at = np.flatnonzero(interior[col] & (col >= 0))
        entries = (sub.data[at], (np.cumsum(interior) - 1).astype(idx)[col[at]], row[at])
        reach = np.zeros(ids.size, dtype=bool)
        reach[row[at[nonzero[at]]]] = True
        A_II = _csr_rows(*entries, interior, interior_ids.size)
        A_RI = _csr_rows(*entries, reach, interior_ids.size)

        label = clusters.column_of[ids]
        kept = _kept_aggregates(clusters, label)
        label = label[interior]
        member = np.flatnonzero(np.isin(label, kept))
        live, which = np.unique(label[member], return_inverse=True)
        own = np.arange(clusters.column_offsets[k], clusters.column_offsets[k + 1])
        lost = own[~np.isin(own, live)]
        if lost.size:
            c = lost[0]
            why = ("removed entirely by the boundary ring" if c in kept
                   else "not wholly inside its oversampled region")
            raise InfeasibleConstraintError(f"aggregate {clusters.columns[c]} {why}")
        if live.size < kept.size:
            dropped.append((k, [clusters.columns[c] for c in np.setdiff1d(kept, live)]))
        # the kept rows with an interior member, by interior vertex
        owner = np.full(label.size, -1)
        owner[member] = which
        psi = _constrained_minimizers(A_II, owner, 1.0 / clusters.sizes[live],
                                      np.searchsorted(live, own),
                                      context=f"local constrained system of subdomain {k}")
        blocks.append((interior_ids[:, None], psi))
        products.append((ids[reach].astype(idx), A_RI @ psi))
    if dropped:
        warnings.warn("dropped ring-only constraint rows in " + "; ".join(
            f"subdomain {k}: {rows}" for k, rows in dropped), RepairWarning)
    P = _assemble_rows(blocks, n)
    columns = tuple(ColumnInfo(k, r, None) for k, r in clusters.columns)
    return Prolongation(P, "mc-loc", columns,
                        operator=_local_galerkin(P, products))


def _csr_rows(data: np.ndarray, columns: np.ndarray, rows: np.ndarray,
              keep: np.ndarray, width: int) -> sp.csr_matrix:
    """The ``width``-column CSR matrix of the entries ``(data, columns)`` in
    the rows ``rows`` (ascending) that the boolean ``keep`` selects: the
    arrays scipy's row and column indexing gives."""
    at = keep[rows]
    counts = np.bincount(rows[at], minlength=keep.size)[keep]
    return sp.csr_matrix((data[at], columns[at],
                          np.concatenate([[0], np.cumsum(counts)]).astype(columns.dtype)),
                         shape=(counts.size, width))


def _local_galerkin(P: sp.csr_matrix, products: list) -> sp.csr_matrix:
    """``P^T A P`` of a localized P from the blocks ``(R_k, Y_k)``, one per
    subdomain in column order: ``Y_k = A P_k`` on the rows ``R_k`` outside
    which it vanishes.

    Column block k is ``B = P[R_k]^T Y_k``, summed over ``R_k`` in its order
    and stored on the rows where ``B`` is nonzero; the exact zeros left in
    those rows are dropped.  With ``R_k`` ascending the products sum the
    same terms in the same order as the sparse triple product
    ``P^T (A P)``, which drops the same zeros, so the result, symmetrized
    as :func:`galerkin_coarse` symmetrizes that product, is the same CSR
    matrix bit for bit.  The list is emptied as it is read.
    """
    blocks = []
    for i in range(len(products)):
        reach, Y = products[i]
        products[i] = None
        B = P[reach].T @ Y
        rows = np.flatnonzero(B.any(axis=1))
        blocks.append((rows[:, None], B[rows]))
    products.clear()
    A_c = _assemble_rows(blocks, P.shape[1])
    A_c.eliminate_zeros()
    return _symmetric_part(A_c)


def _assemble_rows(blocks: list, n: int,
                   units: np.ndarray = np.empty(0, dtype=np.int64)) -> sp.csr_matrix:
    """The n-row CSR matrix of the ``(rows, values)`` blocks of a localized
    construction, one per subdomain in column order, whose columns share
    their rows (``rows`` of shape ``(r, 1)``), plus a 1 in column ``j`` of
    row ``units[j]``, a row holding nothing else.  Each row's entries are
    placed from its end, the last block first, each block freed once
    copied."""
    widths = [v.shape[1] for _, v in blocks]
    counts = np.bincount(units, minlength=n)
    for (rows, _), m in zip(blocks, widths):
        counts[rows[:, 0]] += m
    end, n_c = int(counts.sum()), sum(widths)
    shape = (n, n_c)
    if not n_c:
        raise ValueError("no coarse columns")
    # sp.csr_matrix's rule: 32-bit indices while every index and count fits
    idx = np.int32 if max(end, n, n_c) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices, data = np.empty(end, dtype=idx), np.empty(end)
    indices[indptr[units]] = np.arange(units.size)
    data[indptr[units]] = 1.0
    cursor = indptr[1:].copy()
    while blocks:  # the last block first
        rows, values = blocks.pop()
        m = values.shape[1]
        n_c -= m
        cursor[rows[:, 0]] -= m
        at = cursor[rows[:, 0]][:, None] + np.arange(m)
        indices[at] = np.arange(n_c, n_c + m, dtype=idx)
        data[at] = values
    return sp.csr_matrix((data, indices, indptr.astype(idx)), shape=shape)


def constraint_violation(prol: Prolongation, clusters: ClusterSet,
                         partition: Partition | None = None) -> float:
    """Worst deviation of the aggregate means from their targets: the
    largest entry of ``|S P - I|``, one product with the constraints ``S``
    of :func:`build_constraints`.

    Global kinds take every entry; localized kinds take, for each
    subdomain, its own columns on the aggregates lying wholly in its
    oversampled region (the rows that region constrains).
    """
    if not prol.kind.startswith("mc"):
        raise ValueError("constraint check applies to energy-minimized kinds only")
    E = (build_constraints(clusters) @ prol.matrix
         - sp.identity(prol.n_coarse, format="csr")).tocoo()
    deviation = np.abs(E.data)
    if prol.kind.endswith("-loc"):
        if partition is None or partition.oversampled is None:
            raise ValueError("localized prolongation needs the oversampled partition")
        # scoped[k, i]: aggregate i lies wholly in the region of subdomain k
        scoped = np.zeros((clusters.n_subdomains, prol.n_coarse), dtype=bool)
        for k, region in enumerate(partition.oversampled):
            scoped[k, _kept_aggregates(clusters, clusters.column_of[region.ids])] = True
        subdomain_of = np.repeat(np.arange(clusters.n_subdomains),
                                 np.diff(clusters.column_offsets))
        deviation = deviation[scoped[subdomain_of[E.col], E.row]]
    return float(deviation.max(initial=0.0))
