"""Per-subdomain spectral clustering into aggregates with centroid nodes.

Within each subdomain the generalized eigenproblem ``L x = lambda D x`` is
solved on the local signed Laplacian (degrees recomputed from edges
interior to the subdomain), the lowest eigenvectors are row-normalized and
clustered by k-means, and each aggregate is represented by the member
vertex closest to the aggregate's coordinate mean.  The local Laplacians of
all subdomains come from one pass over the upper triangle of the weight
matrix, cut by the partition's subdomain layout.
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
                      ) -> list[tuple[sp.csr_matrix, np.ndarray]]:
    """:func:`local_signed_laplacian` of every subdomain, in one pass.

    The upper triangle of the weight matrix comes in (row, col) order, and
    local ids grow with global ids inside a subdomain, so a stable sort of
    the interior edges by subdomain leaves each subdomain's edges in the
    order of its own principal submatrix.
    """
    n, sizes = graph.n_vertices, partition.sizes
    a = partition.assignment
    T = sp.triu(graph.weight_matrix).tocoo()
    inner = np.flatnonzero(a[T.row] == a[T.col])
    sub = a[T.row[inner]]
    inner = inner[np.argsort(sub, kind="stable")]
    local = np.empty(n, dtype=np.int64)
    local[partition.order] = np.arange(n) - np.repeat(partition.offsets[:-1], sizes)
    i, j, w = local[T.row[inner]], local[T.col[inner]], T.data[inner]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(sub, minlength=sizes.size))])
    laplacians = (_signed_laplacian(i[lo:hi], j[lo:hi], w[lo:hi], int(size))
                  for lo, hi, size in zip(bounds[:-1], bounds[1:], sizes))
    return [(L, guarded_degrees(d)) for L, d in laplacians]


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
    s = 1.0 / np.sqrt(d)
    M = L.toarray() * s[:, None] * s[None, :]
    M = 0.5 * (M + M.T)
    vals, vecs = scipy.linalg.eigh(M)
    vals = vals[:m]
    phi = s[:, None] * vecs[:, :m]

    # defensive residual check; eigh is backward stable so this only fires
    # on genuinely broken inputs
    scale = np.abs(L).sum(axis=1).max() if L.nnz else 1.0
    res = np.abs(L @ phi - (d[:, None] * phi) * vals[None, :]).max(axis=0)
    if np.any(res > 1e-8 * max(float(scale), 1e-300)):
        raise RuntimeError("eigen residual beyond tolerance")
    return SpectralEmbedding(eigenvalues=vals, vectors=phi)


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    safe = norms.copy()
    safe[safe == 0.0] = 1.0  # zero rows stay zero
    return X / safe[:, None]


def _kmeans_pp(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, m):
        total = d2.sum()
        if total <= 0:
            # duplicate points; take the smallest index not yet used
            idx = int(np.argmax(d2 == d2.max()))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[c]) ** 2, axis=1))
    return centers


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

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(X, m, rng)
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
            warnings.warn("empty cluster repaired by splitting the largest",
                          RepairWarning)
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)

        inertia = float(d2[np.arange(n), labels].sum())
        # per-label sums in index order, as X[labels == c].sum(axis=0) adds
        # the rows, so the centers equal the member means bit for bit; the
        # repair above leaves no cluster empty
        centers = np.stack([np.bincount(labels, weights=col, minlength=m)
                            for col in X.T], axis=1) / counts[:, None]
        if abs(prev_inertia - inertia) < _KMEANS_RTOL * max(inertia, 1e-300):
            break
        prev_inertia = inertia

    groups = [np.flatnonzero(labels == c).astype(np.int64) for c in range(m)]
    groups.sort(key=lambda g: int(g[0]))
    return groups


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
    out = []
    for r, agg in enumerate(aggregates):
        members = np.sort(agg.ids)
        pts = embedding_rows[r] if coords is None else coords[members]
        mu = pts.mean(axis=0)
        dist = np.linalg.norm(pts - mu, axis=1)
        out.append(int(members[int(np.argmin(dist))]))
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
    all_aggs = []
    all_cents = []
    for k, (L, d) in enumerate(_local_laplacians(graph, partition)):
        omega = partition.subdomain(k)
        m_k = min(m, len(omega))
        emb = generalized_eigs(L, d, m_k)
        sub_seed = np.random.default_rng([seed, k]).integers(2 ** 63)
        groups = kmeans_embed(emb, m_k, seed=sub_seed)
        aggs = [IndexSet(np.sort(omega.ids[g]), graph.n_vertices) for g in groups]
        emb_rows = None
        if graph.coords is None:
            X = _normalize_rows(emb.vectors)
            emb_rows = [X[np.sort(g)] for g in groups]
        cents = select_centroids(aggs, graph.coords, embedding_rows=emb_rows)
        all_aggs.append(tuple(aggs))
        all_cents.append(tuple(cents))
    return ClusterSet(graph.n_vertices, tuple(all_aggs), tuple(all_cents))
