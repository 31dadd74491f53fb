"""Reference computations shared by the test modules."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def centroid_clusters(n, centroids):
    """One subdomain whose aggregates are the given vertices, each alone and
    its own centroid: the cluster set whose CF split has the coarse set
    ``centroids``, in that order."""
    from graphcoarsen import IndexSet
    from graphcoarsen.clustering import ClusterSet

    return ClusterSet(n, (tuple(IndexSet(np.array([c]), n) for c in centroids),),
                      (tuple(int(c) for c in centroids),))


def stepped_states(model, cfg):
    """Backward-Euler states ``P u_k`` of a coarse model started from zero,
    by one ``splu`` of ``C_c/tau + A_c`` and a plain loop: whatever path
    ``solve_parabolic`` takes, this one always steps."""
    C_c = sp.csc_matrix(model.capacity)
    lu = splu(sp.csc_matrix(C_c / cfg.tau + model.operator))
    coarse = np.zeros((cfg.n_steps + 1, model.n_coarse))
    for k in range(cfg.n_steps):
        coarse[k + 1] = lu.solve(C_c @ coarse[k] / cfg.tau + model.rhs)
    return (model.prolongation.matrix @ coarse.T).T


def kkt_solve(A, S, rhs_rows):
    """Minimize ``x^T A x / 2`` subject to ``S x = e_row`` for each row in
    ``rhs_rows`` through the indefinite KKT matrix; returns the primal
    solutions and the Lagrange multipliers, both as columns.  One ``splu``
    with COLAMD and partial pivoting: the reference for the package's
    elimination of the constraints."""
    n = A.shape[0]
    m = S.shape[0]
    A, S = A.tocoo(), S.tocoo()
    K = sp.csc_matrix((np.concatenate([A.data, S.data, S.data]),
                       (np.concatenate([A.row, S.col, n + S.row]),
                        np.concatenate([A.col, n + S.row, S.col]))),
                      shape=(n + m, n + m))
    lu = splu(K)
    rhs = np.zeros((n + m, rhs_rows.size))
    rhs[n + rhs_rows, np.arange(rhs_rows.size)] = 1.0
    sol = lu.solve(rhs)
    return sol[:n], sol[n:]


def coo_assemble(blocks, n, n_coarse, units=()):
    """A localized P from its per-subdomain ``(rows, values)`` blocks, taken
    in column order (column ``j`` of a block stores ``values[:, j]`` on
    ``rows[:, j]``), plus a 1 in column ``j`` of row ``units[j]``,
    assembled through COO: one 64-bit (row, column, value) triplet per
    entry, sorted into CSR by scipy.  The reference for the package's
    compressed-row assembly."""
    rows = [np.asarray(units, dtype=np.int64)]
    cols = [np.arange(rows[0].size, dtype=np.int64)]
    vals = [np.ones(rows[0].size)]
    first = 0
    for r, v in blocks:
        rows.append(np.broadcast_to(r, v.shape).astype(np.int64).ravel())
        cols.append(np.tile(np.arange(first, first + v.shape[1], dtype=np.int64), v.shape[0]))
        vals.append(v.ravel())
        first += v.shape[1]
    rows, cols, vals = (np.concatenate(part) for part in (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n_coarse)).tocsr()


def cf_local_operator_by_outer_residual(A, clusters, partition, P):
    """cf-loc's coarse operator ``(Q^T P + P^T Q) / 2`` by one global sparse
    product, as the package formed it before it summed per-subdomain
    blocks.  A column of P is harmonic on the F rows of its region, so
    ``A P`` is the outer residual ``Q``: ``A P`` on the region's centroids
    and on the ring just outside it, read here from the rows of ``A`` at
    the column's block (the region's F vertices, then its subdomain's
    centroids) and from P itself.  Each row of ``Q^T`` holds the outer rows
    in the builder's order, own centroids first, so that the product sums
    the same terms in the same order as the builder."""
    from graphcoarsen.graph import _symmetric_part

    A, P = A.tocsr(), P.tocsr()
    n = A.shape[0]
    centroids = clusters.flat_centroids
    is_coarse = np.zeros(n, dtype=bool)
    is_coarse[centroids] = True
    indices, data = [], []
    for k in range(clusters.n_subdomains):
        own = np.arange(clusters.column_offsets[k], clusters.column_offsets[k + 1])
        ids = partition.oversampled[k].ids
        block = np.concatenate([ids[~is_coarse[ids]], centroids[own]])
        rows = A[block]
        outer = np.concatenate([centroids[own], np.setdiff1d(rows.indices, block)])
        Q_k = rows[:, outer].T @ P[block][:, own].toarray()
        indices += [outer] * own.size
        data += list(Q_k.T)
    idx = P.indices.dtype
    sizes = [row.size for row in indices]
    Q_t = sp.csr_matrix((np.concatenate(data), np.concatenate(indices).astype(idx),
                         np.concatenate([[0], np.cumsum(sizes)]).astype(idx)),
                        shape=(clusters.n_coarse, n))
    return _symmetric_part(Q_t @ P)


def mc_local_by_indexing(A, clusters, partition):
    """mc-loc's P built with scipy's row and column indexing of each
    region, as the package built it before it read the regions through a
    vertex-to-position map: ``A[ids][:, ids]`` for the region block, the
    mean-value rows of :func:`region_constraints` restricted to the
    interior columns, and the same constrained solve.  Returns P and the
    ring-only constraint rows dropped, by subdomain."""
    from graphcoarsen.interpolation import _constrained_minimizers, region_constraints

    def row_nnz(M):
        ends = np.concatenate([[0], np.cumsum(M.data != 0)])
        return np.diff(ends[M.indptr])

    A = A.tocsr()
    blocks, dropped = [], {}
    for k in range(clusters.n_subdomains):
        ids = partition.oversampled[k].ids
        rows = A[ids]
        A_reg = rows[:, ids]
        interior = row_nnz(rows) == row_nnz(A_reg)
        kept, S = region_constraints(clusters, ids)
        S_int = S[:, interior]
        alive = np.diff(S_int.indptr) > 0
        if not alive.all():
            dropped[k] = [clusters.columns[c] for c in kept[~alive]]
        owner, weight = constraint_layout(S_int[alive])
        own = np.arange(clusters.column_offsets[k], clusters.column_offsets[k + 1])
        psi = _constrained_minimizers(A_reg[interior][:, interior], owner, weight,
                                      np.searchsorted(kept[alive], own),
                                      context=f"subdomain {k}")
        blocks.append((ids[interior][:, None], psi))
    return coo_assemble(blocks, A.shape[0], clusters.n_coarse), dropped


def constraint_layout(S):
    """The per-vertex row label (-1 where no row has a member) and the
    per-row weight of a mean-value matrix ``S`` whose rows share no member
    and each store one weight: the layout the MC builders hand to their
    constrained solve."""
    S = S.tocsr()
    owner = np.full(S.shape[1], -1)
    owner[S.indices] = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    return owner, S.data[S.indptr[:-1]]
