"""Spectral clustering of every subdomain into aggregates with centroid nodes.

Within each subdomain the generalized eigenproblem ``L x = lambda D x`` is
solved on the local signed Laplacian (degrees recomputed from edges
interior to the subdomain), the lowest eigenvectors are row-normalized and
clustered by k-means, and each aggregate is represented by the member
vertex closest to the aggregate's coordinate mean.

Each step is one pass over the whole partition.  One block-diagonal signed
Laplacian holds every subdomain; one dense scaled block at a time is cut
from it for the dense eigensolver, and the residuals are checked once.
k-means++ draws from each subdomain's own seed stream, Lloyd iterations run
in lockstep over the subdomains of one size, and the centroids come from
one pass.  The single-subdomain functions run the same code.  Squared
distances and row norms are summed one embedding dimension after another,
whatever the memory layout, so the labels do not depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .exceptions import RepairWarning
from .graph import IndexSet, WeightedGraph, _signed_laplacian, guarded_degrees
from .partition import Partition

__all__ = [
    "SpectralEmbedding",
    "ClusterSet",
    "local_signed_laplacian",
    "generalized_eigs",
    "kmeans_embed",
    "select_centroids",
    "cluster_partition",
]

# Lloyd iterations: at most _KMEANS_MAX_ITER, until the inertia settles to _KMEANS_RTOL
_KMEANS_MAX_ITER = 300
_KMEANS_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralEmbedding:
    """Lowest generalized eigenpairs of a local signed Laplacian."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # (n_local, m), column r pairs with eigenvalues[r]

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if np.any(np.diff(ev) < -1e-12 * max(1.0, np.abs(ev).max())):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)


def local_signed_laplacian(graph: WeightedGraph, omega: IndexSet
                           ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Signed Laplacian of the induced subgraph, with its diagonal degrees.

    Degrees use only edges interior to ``omega``, taken from the upper
    triangle of the principal submatrix of the weight matrix; isolated
    vertices get a small positive floor so the diagonal stays invertible.
    """
    if len(omega) == 0:
        raise ValueError("empty subdomain")
    T = sp.triu(graph.weight_matrix[omega.ids][:, omega.ids]).tocoo()
    L, d = _signed_laplacian(T.row, T.col, T.data, len(omega))
    return L, guarded_degrees(d)


def _local_laplacians(graph: WeightedGraph, partition: Partition
                      ) -> tuple[sp.csr_matrix, np.ndarray]:
    """:func:`local_signed_laplacian` of every subdomain, bit for bit, as the
    blocks of one block-diagonal matrix in partition order.  A vertex takes
    its degree terms in upper-triangle order, as in its own principal
    submatrix, and each block's degrees are floored on their own."""
    a, off = partition.assignment, partition.offsets
    T = sp.triu(graph.weight_matrix).tocoo()
    inner = a[T.row] == a[T.col]
    pos = np.argsort(partition.order)  # row of each vertex
    L, d = _signed_laplacian(pos[T.row[inner]], pos[T.col[inner]], T.data[inner],
                             graph.n_vertices)
    for k in np.unique(a[partition.order[d == 0]]):
        d[off[k]:off[k + 1]] = guarded_degrees(d[off[k]:off[k + 1]])
    return L, d


def _embed(L: sp.csr_matrix, d: np.ndarray, offsets: np.ndarray, m: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``min(m, n_k)`` generalized pairs of each diagonal block ``k``
    of a canonical CSR ``L``, rows ``offsets[k]:offsets[k + 1]``: eigenvalues
    by block and vectors by row, zero past a block's count."""
    n, width = L.shape[0], min(m, int(np.diff(offsets).max()))
    vals, phi = np.zeros((offsets.size - 1, width)), np.zeros((n, width))
    s = 1.0 / np.sqrt(d)
    rows = np.repeat(np.arange(n), np.diff(L.indptr))
    for k, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        a, b = L.indptr[lo], L.indptr[hi]
        M = np.zeros((hi - lo, hi - lo))
        M[rows[a:b] - lo, L.indices[a:b] - lo] += L.data[a:b]  # the block's toarray()
        M = M * s[lo:hi, None] * s[None, lo:hi]
        M = 0.5 * (M + M.T)
        w, v = scipy.linalg.eigh(M)
        m_k = min(m, hi - lo)
        vals[k, :m_k] = w[:m_k]
        phi[lo:hi, :m_k] = s[lo:hi, None] * v[:, :m_k]
        del M, v  # one dense block alive at a time

    # defensive residual check; eigh is backward stable, so only broken input fails
    row_abs = np.asarray(abs(L).sum(axis=1)).ravel()
    scale = np.where(np.diff(L.indptr[offsets]) > 0,
                     np.maximum.reduceat(row_abs, offsets[:-1]), 1.0)
    block = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    res = np.abs(L @ phi - (d[:, None] * phi) * vals[block])
    if np.any(res > 1e-8 * np.maximum(scale, 1e-300)[block, None]):
        raise RuntimeError("eigen residual beyond tolerance")
    return vals, phi


def generalized_eigs(L: sp.spmatrix, d: np.ndarray, m: int) -> SpectralEmbedding:
    """Lowest ``m`` pairs of ``L x = lambda D x`` via the symmetric
    reduction ``D^{-1/2} L D^{-1/2}`` and a dense solver.

    Subdomains are small by construction, so a dense solve is cheap and
    reproducible.
    """
    d = np.asarray(d, dtype=np.float64)
    n = L.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got m = {m}")
    if np.any(d <= 0):
        raise ValueError("diagonal scaling must be positive")
    L = sp.csr_matrix(L, copy=True)
    L.sum_duplicates()
    vals, phi = _embed(L, d, np.array([0, n]), m)
    return SpectralEmbedding(eigenvalues=vals[0], vectors=phi)


def _sq_dist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared distances ``(..., n, c)`` from the rows of ``X`` to those of
    ``C``, summed one dimension after another, as numpy sums an F-ordered
    embedding, whatever the layout of ``X``."""
    D = np.zeros(X.shape[:-1] + C.shape[-2:-1])
    for j in range(X.shape[-1]):
        D += (X[..., :, None, j] - C[..., None, :, j]) ** 2
    return D


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    norms = np.sqrt(_sq_dist(X, np.zeros((1, X.shape[1])))[:, 0])
    norms[norms == 0.0] = 1.0  # zero rows stay zero
    return X / norms[:, None]


def _kmeans(X: np.ndarray, m: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """Labels ``(B, n)`` of ``m``-means on each of the ``B`` embeddings
    ``X[b]``, seeded by k-means++ from ``rngs[b]``: the draws per embedding,
    the distance updates and Lloyd iterations for all at once, each leaving
    when its inertia settles.  Each inertia and k-means++ total is a row sum,
    pairwise as the ``.sum()`` of that embedding's array alone."""
    B, n, dim = X.shape
    idx = np.array([rng.integers(n) for rng in rngs])
    C = np.empty((B, m, dim))
    C[:, 0] = X[np.arange(B), idx]
    d2 = _sq_dist(X, C[:, :1])[..., 0]
    for c in range(1, m):
        total = d2.sum(axis=1)
        for b, rng in enumerate(rngs):
            if total[b] <= 0:
                # duplicate points; take the smallest index not yet used
                idx[b] = np.argmax(d2[b] == d2[b].max())
            else:
                idx[b] = rng.choice(n, p=d2[b] / total[b])
        C[:, c] = X[np.arange(B), idx]
        d2 = np.minimum(d2, _sq_dist(X, C[:, c:c + 1])[..., 0])

    labels = np.empty((B, n), dtype=np.int64)
    live, prev = np.arange(B), np.full(B, np.inf)
    for _ in range(_KMEANS_MAX_ITER):
        D = _sq_dist(X, C)
        lab = np.argmin(D, axis=2)
        bins = m * np.arange(live.size)[:, None]
        for b in np.flatnonzero(np.bincount((lab + bins).ravel(), minlength=live.size * m)
                                .reshape(-1, m).min(axis=1) == 0):
            # re-seed each empty cluster at the farthest point of the largest
            counts = np.bincount(lab[b], minlength=m)
            for empty in np.flatnonzero(counts == 0):
                big = int(np.argmax(counts))
                members = np.flatnonzero(lab[b] == big)
                far = members[int(np.argmax(D[b, members, big]))]
                C[b, empty] = X[b, far]
                lab[b, far] = empty
                counts = np.bincount(lab[b], minlength=m)
            warnings.warn("empty cluster repaired by splitting the largest", RepairWarning)
            D[b] = _sq_dist(X[b], C[b])
        key = (lab + bins).ravel()
        counts = np.bincount(key, minlength=live.size * m)[:, None]
        inertia = np.take_along_axis(D, lab[..., None], axis=2)[..., 0].sum(axis=1)
        # per-label sums in index order, as X[labels == c].sum(axis=0) adds
        # the rows; the repair above leaves no cluster empty
        C = (np.stack([np.bincount(key, weights=col.ravel(), minlength=counts.size)
                       for col in np.moveaxis(X, 2, 0)], axis=1) / counts).reshape(-1, m, dim)
        labels[live] = lab
        going = ~(np.abs(prev - inertia) < _KMEANS_RTOL * np.maximum(inertia, 1e-300))
        live, X, C, prev = live[going], X[going], C[going], inertia[going]
        if not live.size:
            break
    return labels


def kmeans_embed(emb: SpectralEmbedding, m: int, seed: int = 0) -> list[np.ndarray]:
    """Cluster the row-normalized embedding into ``m`` aggregates.

    Lloyd iterations with k-means++ seeding, deterministic per seed.  Empty
    clusters are repaired by re-seeding at the farthest point of the
    largest cluster.  Returns local member index arrays, one per aggregate,
    ordered by smallest member.
    """
    X = _normalize_rows(np.asarray(emb.vectors, dtype=np.float64))
    n = X.shape[0]
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return [np.arange(n, dtype=np.int64)]
    if m >= n:
        return [np.array([i], dtype=np.int64) for i in range(n)]
    labels = _kmeans(X[None], m, [np.random.default_rng(seed)])[0]
    groups = [np.flatnonzero(labels == c).astype(np.int64) for c in range(m)]
    groups.sort(key=lambda g: int(g[0]))
    return groups


def _centroids(col: np.ndarray, ids: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per aggregate ``col``, the member nearest the mean of its rows of
    ``pts``, ties to the smallest id; each aggregate's rows must come in
    ascending id order, so the means sum them as ``pts.mean(axis=0)``."""
    counts = np.bincount(col)
    mu = np.stack([np.bincount(col, weights=p) for p in pts.T], axis=1) / counts[:, None]
    dist = np.linalg.norm(pts - mu[col], axis=1)
    first = np.lexsort((ids, dist, col))[np.cumsum(counts) - counts]
    return ids[first]


def select_centroids(aggregates: list[IndexSet], coords: np.ndarray | None,
                     embedding_rows: np.ndarray | None = None) -> list[int]:
    """Representative vertex per aggregate.

    The coordinate mean of the members, then the member closest to it; ties
    break to the smallest vertex id.  With no coordinates available the
    member nearest the embedding mean is used (medoid fallback, reported).
    """
    if coords is None:
        if embedding_rows is None:
            raise ValueError("embedding rows required without coordinates")
        warnings.warn("no coordinates; falling back to embedding medoid",
                      RepairWarning)
    if not aggregates:
        return []
    col = np.repeat(np.arange(len(aggregates)), [len(agg) for agg in aggregates])
    ids = np.concatenate([np.sort(agg.ids) for agg in aggregates])
    pts = np.concatenate(embedding_rows) if coords is None else coords[ids]
    out = _centroids(col, ids, pts).tolist()
    if len(set(out)) != len(out):
        raise RuntimeError("two aggregates selected the same centroid")
    return out


@dataclass(frozen=True)
class ClusterSet:
    """Aggregates and centroids for every subdomain.

    Coarse columns are ordered lexicographically by (subdomain, aggregate).
    The layout is held in three arrays built once: :attr:`column_of` maps
    every vertex to its coarse column (-1 when uncovered), :attr:`sizes`
    holds the aggregate sizes by column, and :attr:`column_offsets` the
    first column of each subdomain.
    """

    n_vertices: int
    aggregates: tuple[tuple[IndexSet, ...], ...]
    centroids: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        empty = np.flatnonzero(self.sizes == 0)
        if empty.size:
            raise ValueError(f"empty aggregate {self.columns[empty[0]]}")
        if np.count_nonzero(self.column_of >= 0) != self.sizes.sum():
            raise ValueError("aggregates overlap")
        cents = self.flat_centroids
        if cents.size != self.n_coarse:
            raise ValueError("one centroid per aggregate required")
        # disjoint aggregates each holding their own centroid also rules out
        # duplicate centroids
        owner = self.column_of[np.clip(cents, 0, max(self.n_vertices - 1, 0))]
        bad = np.flatnonzero((owner != np.arange(cents.size)) | (cents < 0)
                             | (cents >= self.n_vertices))
        if bad.size:
            raise ValueError(f"centroid of {self.columns[bad[0]]} outside its aggregate")

    @property
    def n_subdomains(self) -> int:
        return len(self.aggregates)

    @property
    def n_coarse(self) -> int:
        return int(self.column_offsets[-1])

    @cached_property
    def columns(self) -> tuple[tuple[int, int], ...]:
        return tuple((k, r) for k, aggs in enumerate(self.aggregates)
                     for r in range(len(aggs)))

    @cached_property
    def column_offsets(self) -> np.ndarray:
        """First column of each subdomain, plus the total count at the end."""
        counts = [len(aggs) for aggs in self.aggregates]
        return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([len(agg) for agg in self.flat_aggregates], dtype=np.int64)

    @cached_property
    def column_of(self) -> np.ndarray:
        col = np.full(self.n_vertices, -1, dtype=np.int64)
        if self.flat_aggregates:
            members = np.concatenate([agg.ids for agg in self.flat_aggregates])
            col[members] = np.repeat(np.arange(self.sizes.size), self.sizes)
        return col

    @cached_property
    def flat_aggregates(self) -> tuple[IndexSet, ...]:
        return tuple(agg for aggs in self.aggregates for agg in aggs)

    @cached_property
    def flat_centroids(self) -> np.ndarray:
        return np.array([c for row in self.centroids for c in row], dtype=np.int64)

    def labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-vertex (subdomain, aggregate, is_centroid) arrays for export."""
        col = self.column_of
        covered = col >= 0
        sub_of_col = np.repeat(np.arange(self.n_subdomains), np.diff(self.column_offsets))
        sub = np.full(self.n_vertices, -1, dtype=np.int64)
        agg = np.full(self.n_vertices, -1, dtype=np.int64)
        sub[covered] = sub_of_col[col[covered]]
        agg[covered] = col[covered] - self.column_offsets[sub[covered]]
        cent = np.zeros(self.n_vertices, dtype=np.int64)
        cent[self.flat_centroids] = 1
        return sub, agg, cent


def cluster_partition(graph: WeightedGraph, partition: Partition, m: int,
                      seed: int = 0) -> ClusterSet:
    """Cluster every subdomain into (up to) ``m`` aggregates.

    The eigencount is clamped to the subdomain size when needed.  Each
    subdomain draws an independent seed stream from ``(seed, k)``, so
    results are deterministic and independent of evaluation order.
    """
    n, sizes, off, order = graph.n_vertices, partition.sizes, partition.offsets, partition.order
    block = np.repeat(np.arange(sizes.size), sizes)
    L, d = _local_laplacians(graph, partition)
    X = _normalize_rows(_embed(L, d, off, m)[1])

    # local labels by row of the partition order: singletons where m_k = n_k,
    # one aggregate at m = 1, k-means on the rest, subdomains of one size at once
    labels = (np.arange(n) - off[block]) * (m > 1)
    run = (sizes > m) & (m > 1)
    for size in np.unique(sizes[run]):
        ks = np.flatnonzero(run & (sizes == size))
        rows = off[ks][:, None] + np.arange(size)
        rngs = [np.random.default_rng(np.random.default_rng([seed, int(k)]).integers(2 ** 63))
                for k in ks]
        labels[rows] = _kmeans(X[rows], m, rngs)

    # columns by (subdomain, smallest member): aggregates ranked by first row
    _, first, inverse = np.unique(block * m + labels, return_index=True, return_inverse=True)
    col = np.argsort(np.argsort(first))[inverse]
    if graph.coords is None:
        warnings.warn(f"no coordinates; {sizes.size} subdomains fall back to the "
                      "embedding medoid", RepairWarning)
    cents = _centroids(col, order, X if graph.coords is None else graph.coords[order])

    members = np.split(order[np.argsort(col, kind="stable")], np.cumsum(np.bincount(col))[:-1])
    aggs, cents = [IndexSet(ids, n) for ids in members], cents.tolist()
    bounds = np.concatenate([[0], np.cumsum(np.bincount(block[first], minlength=sizes.size))])
    return ClusterSet(n, tuple(tuple(aggs[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])),
                      tuple(tuple(cents[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])))
