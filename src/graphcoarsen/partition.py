"""Balanced graph partitioning and oversampled regions.

Every graph goes through one partitioner: recursive coordinate bisection
with pair-swap boundary refinement on the absolute edge-cut (swaps keep
sizes exact, so balance survives refinement).  A graph without coordinates
is bisected on spectral coordinates, the lowest eigenvectors of its
unweighted graph Laplacian.  Subdomain connectivity is best effort: small
stranded fragments are moved to a neighboring subdomain when balance
allows, otherwise reported.

A :class:`Partition` holds one subdomain layout, built once: the vertices
grouped by subdomain (one stable sort of the assignment) and the group
offsets, so every subdomain is a slice.  :func:`oversample` grows each
subdomain into its oversampled region by a Euclidean radius when the graph
has coordinates and by a BFS hop count when it has none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from scipy.spatial import cKDTree

from .exceptions import DisconnectedGraphError, RepairWarning
from .graph import IndexSet, WeightedGraph

__all__ = ["Partition", "partition_balanced", "oversample"]

#: Default max/min subdomain size ratio allowance, beyond one.
BALANCE_TOL = 0.1

#: The modes of :func:`oversample`, the default first.
OVERSAMPLE_MODES = ("vertex", "closure")


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the vertex set into balanced subdomains.

    Subdomain ``k`` is the slice ``order[offsets[k]:offsets[k + 1]]`` of the
    layout; its vertex ids come in ascending order.  Subdomains left
    disconnected are reported by a ``RepairWarning``, not recorded.
    """

    n_vertices: int
    n_subdomains: int
    assignment: np.ndarray
    oversampled: tuple[IndexSet, ...] | None = None
    balance_tol: float = BALANCE_TOL

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if a.shape != (self.n_vertices,):
            raise ValueError("assignment must cover every vertex")
        counts = np.bincount(a, minlength=self.n_subdomains)
        if a.size and (a.min() < 0 or a.max() >= self.n_subdomains):
            raise ValueError("subdomain id out of range")
        if counts.size != self.n_subdomains or np.any(counts == 0):
            raise ValueError("every subdomain must be nonempty")
        if counts.sum() != self.n_vertices:
            raise ValueError("assignment does not cover the vertex set")
        lo, hi = counts.min(), counts.max()
        n, N = self.n_vertices, self.n_subdomains
        rounding = math_ceil_ratio(n, N)
        if hi / lo > max(1.0 + self.balance_tol, rounding) + 1e-12:
            raise ValueError(
                f"unbalanced partition: sizes in [{lo}, {hi}] exceed tolerance"
            )
        if self.oversampled is not None:
            if len(self.oversampled) != self.n_subdomains:
                raise ValueError("one oversampled set per subdomain required")
            for k, os_set in enumerate(self.oversampled):
                if not np.isin(self.subdomain(k).ids, os_set.ids, assume_unique=True).all():
                    raise ValueError(f"oversampled set {k} does not contain its subdomain")

    @cached_property
    def order(self) -> np.ndarray:
        """Vertex ids grouped by subdomain, ascending within each group.

        Read-only: every :meth:`subdomain` is a view into it.
        """
        order = np.argsort(self.assignment, kind="stable")
        order.flags.writeable = False
        return order

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each subdomain in :attr:`order`, plus ``n`` at the end."""
        return np.concatenate([[0], np.cumsum(self.sizes)])

    def subdomain(self, k: int) -> IndexSet:
        return IndexSet(self.order[self.offsets[k]:self.offsets[k + 1]], self.n_vertices)

    @property
    def subdomains(self) -> tuple[IndexSet, ...]:
        return tuple(self.subdomain(k) for k in range(self.n_subdomains))

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_subdomains)

    @property
    def balance(self) -> tuple[int, int, float]:
        s = self.sizes
        return int(s.min()), int(s.max()), float(s.mean())


def math_ceil_ratio(n: int, N: int) -> float:
    lo = n // N
    hi = lo + (1 if n % N else 0)
    return hi / max(lo, 1)


def _apportion(n: int, N: int) -> np.ndarray:
    """Target sizes: n // N each, the first n % N get one extra."""
    base = np.full(N, n // N, dtype=np.int64)
    base[: n % N] += 1
    return base


def _require_connected(graph: WeightedGraph) -> None:
    ncomp, labels = connected_components(graph.adjacency, directed=False)
    if ncomp > 1:
        sizes = np.bincount(labels)
        raise DisconnectedGraphError(
            f"graph has {ncomp} connected components with sizes {sizes.tolist()}"
        )


def _refine_bipartition(W: sp.csr_matrix, side: np.ndarray, max_swaps: int) -> None:
    """Pair-swap refinement of a bipartition, in place.

    ``gain[v]`` is the cut reduction from switching ``v`` alone; a swap of
    (a, b) across sides improves the cut by ``gain[a] + gain[b] - 2 w_ab``.
    Sizes never change.  Deterministic: maximal gain, ties to smaller id.
    """
    absW = W.copy()
    absW.data = np.abs(absW.data)
    # weight to the other side, from one product per side
    ext = np.where(side, absW @ (~side).astype(float), absW @ side.astype(float))
    tot = np.asarray(absW.sum(axis=1)).ravel()
    gain = 2 * ext - tot
    scale = max(absW.data.max() if absW.nnz else 1.0, 1e-300)

    for _ in range(max_swaps):
        a = _argmax_ties(gain, side)
        b = _argmax_ties(gain, ~side)
        if a < 0 or b < 0:
            break
        w_ab = 0.0
        cols = absW.indices[absW.indptr[a]:absW.indptr[a + 1]]
        hit = np.flatnonzero(cols == b)
        if hit.size:
            w_ab = absW.data[absW.indptr[a] + hit[0]]
        if gain[a] + gain[b] - 2 * w_ab <= 1e-12 * scale:
            break
        for v in (a, b):
            side[v] = ~side[v]
        for v in (a, b):
            nbrs = absW.indices[absW.indptr[v]:absW.indptr[v + 1]]
            wts = absW.data[absW.indptr[v]:absW.indptr[v + 1]]
            ext[v] = wts[side[nbrs] != side[v]].sum()
            gain[v] = 2 * ext[v] - tot[v]
            for u, w in zip(nbrs, wts):
                un = absW.indices[absW.indptr[u]:absW.indptr[u + 1]]
                uw = absW.data[absW.indptr[u]:absW.indptr[u + 1]]
                ext[u] = uw[side[un] != side[u]].sum()
                gain[u] = 2 * ext[u] - tot[u]


def _argmax_ties(values: np.ndarray, mask: np.ndarray) -> int:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return -1
    sub = values[idx]
    best = sub.max()
    return int(idx[sub == best][0])


def _bisect_coords(graph, coords, ids, targets, labels, out, refine_swaps):
    if len(targets) == 1:
        out[ids] = labels[0]
        return
    half = (len(targets) + 1) // 2
    n_left = int(np.sum(targets[:half]))
    pts = coords[ids]
    extents = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(extents))
    order = np.lexsort((ids, pts[:, axis]))
    side = np.zeros(ids.size, dtype=bool)  # True = left block
    side[order[:n_left]] = True

    W = graph.weight_matrix[ids][:, ids].tocsr()
    _refine_bipartition(W, side, refine_swaps)

    _bisect_coords(graph, coords, ids[side], targets[:half], labels[:half], out,
                   refine_swaps)
    _bisect_coords(graph, coords, ids[~side], targets[half:], labels[half:], out,
                   refine_swaps)


def _repair_fragments(graph, assign, N, balance_tol):
    """Move small disconnected fragments to adjacent subdomains when balance
    allows; return ids of subdomains left disconnected."""
    n = graph.n_vertices
    counts = np.bincount(assign, minlength=N)
    allowance = max(1.0 + balance_tol, math_ceil_ratio(n, N))
    order = np.argsort(assign, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # the components of every subdomain at once, from its inner edges; a
    # connected subdomain stays connected when fragments adjacent to it join
    adj = graph.adjacency.tocoo()
    inner = assign[adj.row] == assign[adj.col]
    n_pieces, piece = connected_components(
        sp.csr_matrix((adj.data[inner], (adj.row[inner], adj.col[inner])), shape=(n, n)),
        directed=False)
    piece_owner = np.empty(n_pieces, dtype=np.int64)
    piece_owner[piece] = assign
    split = np.bincount(piece_owner, minlength=N) > 1
    # fragments moved to a subdomain not visited yet join its members there
    arrivals = [[] for _ in range(N)]
    disconnected = []
    for k in range(N):
        if not split[k]:
            continue
        ids = order[offsets[k]:offsets[k + 1]]
        if arrivals[k]:
            ids = np.sort(np.concatenate([ids, *arrivals[k]]))
        sub = graph.adjacency[ids][:, ids]
        ncomp, labels = connected_components(sub, directed=False)
        if ncomp == 1:
            continue
        comp_sizes = np.bincount(labels)
        main = int(np.argmax(comp_sizes))
        moved_all = True
        for c in range(ncomp):
            if c == main:
                continue
            frag = ids[labels == c]
            nbr_subs = sorted({
                int(assign[u]) for v in frag for u in graph.neighbors(v)
                if assign[u] != k
            })
            moved = False
            for q in nbr_subs:
                new_counts = counts.copy()
                new_counts[k] -= frag.size
                new_counts[q] += frag.size
                if new_counts[k] > 0 and new_counts.max() / new_counts.min() <= allowance:
                    assign[frag] = q
                    counts = new_counts
                    if q > k:
                        arrivals[q].append(frag)
                    moved = True
                    break
            moved_all = moved_all and moved
        if not moved_all:
            disconnected.append(k)
    if disconnected:
        warnings.warn(
            f"subdomains {disconnected} remain disconnected after refinement",
            RepairWarning,
        )
    return tuple(disconnected)


def partition_balanced(graph: WeightedGraph, n_subdomains: int, seed: int = 0
                       ) -> Partition:
    """Split the graph into balanced subdomains, deterministic per seed.

    Requires a connected graph.  Recursive coordinate bisection splits on
    ``graph.coords`` when the graph has them, and on its spectral
    coordinates (:func:`_spectral_coords`) when it has none.  ``seed`` draws
    the eigensolver's start vector in the second case; bisection on given
    coordinates does not read it.  Sizes come out within one vertex of each
    other before fragment repair; repair keeps the max/min ratio within
    ``1 + BALANCE_TOL`` (or the unavoidable rounding ratio for tiny
    subdomains).
    """
    n = graph.n_vertices
    if not 1 <= n_subdomains <= n:
        raise ValueError("need 1 <= n_subdomains <= n_vertices")
    _require_connected(graph)
    assign = np.zeros(n, dtype=np.int64)
    if n_subdomains > 1:
        coords = graph.coords
        if coords is None:
            coords = _spectral_coords(graph, seed)
        _bisect_coords(graph, coords, np.arange(n, dtype=np.int64),
                       _apportion(n, n_subdomains), np.arange(n_subdomains), assign,
                       max(64, n // 10))
    _repair_fragments(graph, assign, n_subdomains, BALANCE_TOL)
    return Partition(n, n_subdomains, assign)


def _spectral_coords(graph: WeightedGraph, seed: int) -> np.ndarray:
    """The three lowest eigenvectors of the unweighted graph Laplacian.

    The pattern Laplacian is semidefinite whatever the signs of the weights,
    so shift-invert about ``-1e-6`` factors a definite matrix.  The constant
    eigenvector stays in: a 2-vertex graph has no other.  ARPACK starts from
    a vector drawn from ``seed`` (Pothen, Simon & Liou, SIMAX 11, 1990).
    """
    adj = graph.adjacency
    n = adj.shape[0]
    L = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return eigsh(L.tocsc(), k=min(3, n - 1), sigma=-1e-6, v0=v0)[1]


def oversample(graph: WeightedGraph, partition: Partition, delta_h: float,
               mode: str = "vertex") -> Partition:
    """Grow every subdomain into its oversampled region.

    With coordinates, ``vertex`` mode adds every vertex within Euclidean
    distance ``delta_h`` of some subdomain member.  Without coordinates,
    ``delta_h`` is a hop count and ``vertex`` mode adds every vertex within
    that many edges of the subdomain.  ``closure`` mode additionally pulls
    in each whole subdomain that the region touches.
    """
    if delta_h < 0:
        raise ValueError("delta_h must be nonnegative")
    if mode not in OVERSAMPLE_MODES:
        raise ValueError(f"unknown oversample mode: {mode}")
    if graph.coords is None:
        if not float(delta_h).is_integer():
            raise ValueError(
                f"delta_h = {delta_h} is not a hop count; a graph without "
                "coordinates is oversampled by whole hops")
        regions = _hop_regions(graph, partition, int(delta_h))
    else:
        regions = _ball_regions(graph, partition, delta_h)
    if mode == "closure":
        order, offsets = partition.order, partition.offsets
        regions = [np.sort(np.concatenate([order[offsets[s]:offsets[s + 1]]
                                           for s in np.unique(partition.assignment[r])]))
                   for r in regions]
    oversampled = tuple(IndexSet(r, graph.n_vertices) for r in regions)
    return replace(partition, oversampled=oversampled)


def _hop_regions(graph: WeightedGraph, partition: Partition, hops: int) -> list:
    """Rows of ``S (I + adjacency)^hops`` for the subdomain indicator ``S``."""
    n, N = graph.n_vertices, partition.n_subdomains
    R = sp.csr_matrix((np.ones(n), (partition.assignment, np.arange(n))), shape=(N, n))
    step = (sp.identity(n, format="csr") + graph.adjacency).tocsr()
    for _ in range(hops):
        grown = R @ step
        grown.data[:] = 1.0  # only the pattern matters
        if grown.nnz == R.nnz:
            break
        R = grown
    R.sort_indices()
    return [R.indices[R.indptr[k]:R.indptr[k + 1]] for k in range(N)]


def _ball_regions(graph: WeightedGraph, partition: Partition, delta_h: float) -> list:
    """Every vertex within ``delta_h`` of a member, per subdomain.

    The candidates come from one ball around the subdomain's bounding-box
    center that holds every member's ``delta_h`` ball; a candidate stays
    when some member lies within ``delta_h`` of it.
    """
    tree = cKDTree(graph.coords)
    regions = []
    for k in range(partition.n_subdomains):
        pts = graph.coords[partition.subdomain(k).ids]
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        reach = np.linalg.norm(pts - center, axis=1).max() + delta_h
        cand = np.sort(tree.query_ball_point(center, reach * (1 + 1e-9)))
        near = cKDTree(pts).query_ball_point(graph.coords[cand], delta_h,
                                             return_length=True)
        regions.append(cand[near > 0])
    return regions
