"""Reference computations shared by the test modules."""

from functools import reduce

import numpy as np
import scipy.linalg
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


def sum_in_order(S):
    """``S`` summed over its last axis one term after another,
    ``((s_0 + s_1) + s_2) + ...``: the order numpy takes when that axis is
    the slowest in memory, as in an F-ordered embedding."""
    return reduce(np.add, np.moveaxis(S, -1, 0))


def unit_rows(V, dim_sum=sum_in_order):
    """The rows of ``V`` divided by their norms; zero rows stay zero."""
    norms = np.sqrt(dim_sum(V * V))
    return V / np.where(norms == 0.0, 1.0, norms)[:, None]


def serial_kmeans_pp(X, m, rng, dim_sum=sum_in_order):
    """k-means++ seeding of one embedding, one point at a time."""
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = dim_sum((X - centers[0]) ** 2)
    for c in range(1, m):
        total = d2.sum()
        if total <= 0:
            idx = int(np.argmax(d2 == d2.max()))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = X[idx]
        d2 = np.minimum(d2, dim_sum((X - centers[c]) ** 2))
    return centers


def serial_kmeans(vectors, m, seed, dim_sum=sum_in_order):
    """k-means of one row-normalized embedding, as the package ran it
    subdomain by subdomain before it ran all of them in lockstep; returns
    the groups ordered by smallest member.  ``dim_sum`` sums over the
    embedding dimension: ``lambda S: S.sum(axis=-1)`` is the former code
    itself, whose order follows the memory layout of ``vectors``."""
    X = unit_rows(vectors, dim_sum)
    n = X.shape[0]
    if m == 1:
        return [np.arange(n)]
    if m >= n:
        return [np.array([i]) for i in range(n)]
    centers = serial_kmeans_pp(X, m, np.random.default_rng(seed), dim_sum)
    prev_inertia = np.inf
    for _ in range(300):
        d2 = dim_sum((X[:, None, :] - centers[None, :, :]) ** 2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=m)
        if np.any(counts == 0):
            for empty in np.flatnonzero(counts == 0):
                big = int(np.argmax(counts))
                members = np.flatnonzero(labels == big)
                far = members[int(np.argmax(d2[members, big]))]
                centers[empty] = X[far]
                labels[far] = empty
                counts = np.bincount(labels, minlength=m)
            d2 = dim_sum((X[:, None, :] - centers[None, :, :]) ** 2)
        inertia = float(d2[np.arange(n), labels].sum())
        centers = np.stack([np.bincount(labels, weights=col, minlength=m)
                            for col in X.T], axis=1) / counts[:, None]
        if abs(prev_inertia - inertia) < 1e-8 * max(inertia, 1e-300):
            break
        prev_inertia = inertia
    groups = [np.flatnonzero(labels == c) for c in range(m)]
    groups.sort(key=lambda g: int(g[0]))
    return groups


def serial_cluster_partition(graph, partition, m, seed=0):
    """Spectral clustering one subdomain after another, as the package did
    before it made each step one pass over the partition: the local
    Laplacian, a dense ``eigh`` of its scaled form, k-means from the
    subdomain's seed stream, and per aggregate the member nearest the
    coordinate mean (the embedding mean without coordinates)."""
    from graphcoarsen import IndexSet
    from graphcoarsen.clustering import ClusterSet, local_signed_laplacian

    all_aggs, all_cents = [], []
    for k, omega in enumerate(partition.subdomains):
        L, d = local_signed_laplacian(graph, omega)
        m_k = min(m, len(omega))
        s = 1.0 / np.sqrt(d)
        M = L.toarray() * s[:, None] * s[None, :]
        vecs = scipy.linalg.eigh(0.5 * (M + M.T))[1]
        phi = s[:, None] * vecs[:, :m_k]
        sub_seed = np.random.default_rng([seed, k]).integers(2 ** 63)
        groups = serial_kmeans(phi, m_k, sub_seed)
        X = unit_rows(phi)
        aggs, cents = [], []
        for g in groups:
            members = omega.ids[np.sort(g)]
            pts = X[np.sort(g)] if graph.coords is None else graph.coords[members]
            dist = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
            aggs.append(IndexSet(members, graph.n_vertices))
            cents.append(int(members[int(np.argmin(dist))]))
        all_aggs.append(tuple(aggs))
        all_cents.append(tuple(cents))
    return ClusterSet(graph.n_vertices, tuple(all_aggs), tuple(all_cents))
