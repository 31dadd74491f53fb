"""Weighted signed graphs and their discrete operators.

A :class:`WeightedGraph` carries vertex coordinates, signed edge weights,
optional per-vertex capacities and boundary data.  Operators built from it
(signed Laplacian, boundary-augmented system, restrictions) are plain
``scipy.sparse`` matrices: coordinate format during assembly, compressed
rows everywhere else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import IndefiniteOperatorError, RepairWarning, SingularSystemError

__all__ = [
    "WeightedGraph",
    "IndexSet",
    "DirichletReduction",
    "assemble_signed_laplacian",
    "apply_boundary",
    "eliminate_dirichlet",
    "subgraph",
    "guarded_degrees",
    "norm_A",
    "check_symmetric",
    "dense_to_csr",
]

#: Relative tolerance used when checking that a matrix is symmetric.
SYMMETRY_RTOL = 1e-12

# entries of a dense array per row block of dense_to_csr (1 MiB of float64)
_DENSE_BLOCK_ENTRIES = 1 << 17

#: Relative floor substituted for zero vertex degrees (isolated vertices).
DEGREE_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class IndexSet:
    """Ordered set of distinct fine-vertex ids.

    ``ids[local]`` gives the fine id of a local index.  The order of ``ids``
    is meaningful and preserved.
    """

    ids: np.ndarray
    n_global: int

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        if ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        if ids.size:
            # ids nearly always come ascending: an O(n) check spares the sort
            ascending = bool(np.all(ids[1:] > ids[:-1]))
            lo, hi = (ids[0], ids[-1]) if ascending else (ids.min(), ids.max())
            if lo < 0 or hi >= self.n_global:
                raise ValueError("vertex id out of range")
            if not ascending and np.unique(ids).size != ids.size:
                raise ValueError("duplicate vertex ids in index set")

    def __len__(self) -> int:
        return int(self.ids.size)

    def complement(self) -> "IndexSet":
        mask = np.ones(self.n_global, dtype=bool)
        mask[self.ids] = False
        return IndexSet(np.flatnonzero(mask), self.n_global)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with signed edge weights.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; all ids live in ``[0, n_vertices)``.
    edge_index : (m, 2) int array
        Edge endpoints.  Normalized so that ``i < j`` and edges are sorted
        lexicographically; duplicate edges and self-loops are rejected.
    edge_weight : (m,) float array
        Signed weights: conductances for network models (positive), negated
        off-diagonal operator entries for discretized diffusion (either sign).
    coords : (n, d) float array, optional
        Vertex positions, ``d`` in {2, 3}.  ``None`` for purely algebraic
        graphs; geometric operations are then unavailable.
    capacity : (n,) float array, optional
        Nonnegative per-vertex coefficient (volume / compressibility).
    robin : sequence of (vertex, alpha, value), optional
        Pointwise Robin boundary data, ``alpha >= 0``.
    dirichlet : sequence of (vertex, value), optional
        Vertices with prescribed values, eliminated before solving.
    """

    n_vertices: int
    edge_index: np.ndarray
    edge_weight: np.ndarray
    coords: np.ndarray | None = None
    capacity: np.ndarray | None = None
    robin: tuple = ()
    dirichlet: tuple = ()

    def __post_init__(self):
        n = self.n_vertices
        ij = np.asarray(self.edge_index, dtype=np.int64).reshape(-1, 2)
        w = np.asarray(self.edge_weight, dtype=np.float64).reshape(-1)
        if ij.shape[0] != w.shape[0]:
            raise ValueError("edge_index and edge_weight length mismatch")
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
        if ij.size and (ij.min() < 0 or ij.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(ij[:, 0] == ij[:, 1]):
            raise ValueError("self-loops are not allowed")
        # normalize orientation and ordering
        flip = ij[:, 0] > ij[:, 1]
        ij[flip] = ij[flip, ::-1]
        order = np.lexsort((ij[:, 1], ij[:, 0]))
        ij = ij[order]
        w = w[order]
        if ij.shape[0] > 1 and np.any(np.all(ij[1:] == ij[:-1], axis=1)):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "edge_index", ij)
        object.__setattr__(self, "edge_weight", w)

        if self.coords is not None:
            c = np.asarray(self.coords, dtype=np.float64)
            if c.shape != (n, 2) and c.shape != (n, 3):
                raise ValueError("coords must have shape (n, 2) or (n, 3)")
            if not np.isfinite(c).all():
                raise ValueError("coordinates must be finite")
            object.__setattr__(self, "coords", c)
        if self.capacity is not None:
            cap = np.asarray(self.capacity, dtype=np.float64).reshape(-1)
            if cap.shape[0] != n:
                raise ValueError("capacity length mismatch")
            if not np.all((cap >= 0) & (cap < np.inf)):  # NaN fails too
                raise ValueError("capacities must be finite and nonnegative")
            object.__setattr__(self, "capacity", cap)

        robin = tuple(sorted((int(v), float(a), float(g)) for v, a, g in self.robin))
        for v, a, g in robin:
            if not 0 <= v < n:
                raise ValueError("robin vertex out of range")
            if not 0 <= a < np.inf:  # NaN fails too
                raise ValueError("robin coefficient must be finite and nonnegative")
            if not np.isfinite(g):
                raise ValueError("robin value must be finite")
        if len({v for v, _, _ in robin}) != len(robin):
            raise ValueError("duplicate robin vertex")
        object.__setattr__(self, "robin", robin)

        diri = tuple(sorted((int(v), float(g)) for v, g in self.dirichlet))
        for v, g in diri:
            if not 0 <= v < n:
                raise ValueError("dirichlet vertex out of range")
            if not np.isfinite(g):
                raise ValueError("dirichlet value must be finite")
        if len({v for v, _ in diri}) != len(diri):
            raise ValueError("duplicate dirichlet vertex")
        object.__setattr__(self, "dirichlet", diri)

    @classmethod
    def build(cls, n_vertices, edges, coords=None, capacity=None, robin=(), dirichlet=()):
        """Construct from an iterable of ``(i, j, w)`` triples."""
        rows = list(edges)
        if rows:
            arr = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
            ij = arr[:, :2].astype(np.int64)
            w = arr[:, 2]
        else:
            ij = np.empty((0, 2), dtype=np.int64)
            w = np.empty(0)
        return cls(n_vertices, ij, w, coords=coords, capacity=capacity,
                   robin=robin, dirichlet=dirichlet)

    @property
    def n_edges(self) -> int:
        return int(self.edge_weight.size)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree ``d_i = sum_j |w_ij|``."""
        d = np.zeros(self.n_vertices)
        np.add.at(d, self.edge_index[:, 0], np.abs(self.edge_weight))
        np.add.at(d, self.edge_index[:, 1], np.abs(self.edge_weight))
        return d

    @cached_property
    def weight_matrix(self) -> sp.csr_matrix:
        """Symmetric sparse weight matrix ``W`` with ``W_ij = w_ij``."""
        i, j = self.edge_index[:, 0], self.edge_index[:, 1]
        w = self.edge_weight
        W = sp.coo_matrix(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n_vertices, self.n_vertices),
        )
        return W.tocsr()

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Unweighted symmetric adjacency pattern (data all ones)."""
        A = self.weight_matrix.copy()
        A.data = np.ones_like(A.data)
        return A

    def neighbors(self, v: int) -> np.ndarray:
        A = self.adjacency
        return A.indices[A.indptr[v]:A.indptr[v + 1]]


@dataclass(frozen=True)
class DirichletReduction:
    """Bookkeeping to restore a full vector after Dirichlet elimination."""

    free: IndexSet
    constrained: IndexSet
    values: np.ndarray

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        u = np.zeros(self.free.n_global)
        u[self.free.ids] = u_free
        u[self.constrained.ids] = self.values
        return u


def assemble_signed_laplacian(graph: WeightedGraph) -> sp.csr_matrix:
    """Signed graph Laplacian: ``L_ii = sum_j |w_ij|``, ``L_ij = -w_ij``.

    Positive semidefinite for any sign pattern of the weights; for
    all-positive weights the rows sum to zero and the constant vector
    spans the kernel of each connected component.
    """
    return _signed_laplacian(*graph.edge_index.T, graph.edge_weight, graph.n_vertices)[0]


def _signed_laplacian(i: np.ndarray, j: np.ndarray, w: np.ndarray, n: int
                      ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Signed Laplacian of ``n`` vertices from the edges ``(i, j, w)``, each
    listed once, and its diagonal, the degrees ``sum_j |w_ij|``."""
    d = np.zeros(n)
    np.add.at(d, i, np.abs(w))
    np.add.at(d, j, np.abs(w))
    rows = np.concatenate([i, j, np.arange(n)])
    cols = np.concatenate([j, i, np.arange(n)])
    vals = np.concatenate([-w, -w, d])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr(), d


def apply_boundary(L: sp.spmatrix, graph: WeightedGraph) -> tuple[sp.csr_matrix, np.ndarray]:
    """Add pointwise Robin terms: ``A = L + diag(alpha)``, ``f_i = alpha_i g_i``.

    Only diagonal entries are touched, so symmetry is preserved.  With no
    Robin vertex the operator stays singular; unless the graph carries
    Dirichlet data for a later elimination this raises
    :class:`SingularSystemError`.
    """
    n = graph.n_vertices
    if not graph.robin and not graph.dirichlet:
        raise SingularSystemError(
            "singular system: no Robin vertex and no Dirichlet vertex"
        )
    alpha = np.zeros(n)
    f = np.zeros(n)
    for v, a, g in graph.robin:
        alpha[v] += a
        f[v] += a * g
    A = (L.tocsr() + sp.diags(alpha)).tocsr()
    return A, f


def eliminate_dirichlet(A: sp.spmatrix, f: np.ndarray,
                        dirichlet: Sequence[tuple[int, float]]
                        ) -> tuple[sp.csr_matrix, np.ndarray, DirichletReduction]:
    """Restrict the system to free vertices, folding prescribed values into
    the right-hand side.  The returned reduction restores full vectors."""
    A = A.tocsr()
    n = A.shape[0]
    pairs = sorted((int(v), float(g)) for v, g in dirichlet)
    verts = np.array([v for v, _ in pairs], dtype=np.int64)
    vals = np.array([g for _, g in pairs])
    if verts.size:
        if verts.min() < 0 or verts.max() >= n:
            raise ValueError("dirichlet vertex out of range")
        if np.unique(verts).size != verts.size:
            raise ValueError("dirichlet vertices must be distinct")
    mask = np.ones(n, dtype=bool)
    mask[verts] = False
    free = np.flatnonzero(mask)
    A_ff = A[free][:, free].tocsr()
    f_int = np.asarray(f, dtype=np.float64)[free]
    if verts.size:
        f_int = f_int - A[free][:, verts] @ vals
    reduction = DirichletReduction(
        free=IndexSet(free, n), constrained=IndexSet(verts, n), values=vals
    )
    return A_ff, f_int, reduction


def subgraph(graph: WeightedGraph, keep_ids) -> tuple[WeightedGraph, IndexSet]:
    """Induced subgraph on ``keep_ids`` (edges with both endpoints kept).

    The edges are the upper triangle of the principal submatrix of the
    weight matrix, zero weights included.  Vertex data (coords, capacity,
    boundary) are restricted and re-indexed.  Returns the subgraph and the
    index set mapping local to fine ids.
    """
    keep = IndexSet(np.asarray(keep_ids, dtype=np.int64), graph.n_vertices)
    T = sp.triu(graph.weight_matrix[keep.ids][:, keep.ids]).tocoo()
    local = np.full(graph.n_vertices, -1, dtype=np.int64)
    local[keep.ids] = np.arange(len(keep))
    coords = graph.coords[keep.ids] if graph.coords is not None else None
    capacity = graph.capacity[keep.ids] if graph.capacity is not None else None
    robin = [(local[v], a, g) for v, a, g in graph.robin if local[v] >= 0]
    diri = [(local[v], g) for v, g in graph.dirichlet if local[v] >= 0]
    g2 = WeightedGraph(len(keep), np.column_stack([T.row, T.col]), T.data,
                       coords=coords, capacity=capacity, robin=robin, dirichlet=diri)
    return g2, keep


def check_symmetric(A: sp.spmatrix) -> None:
    """Raise ``ValueError`` if ``A`` deviates from symmetry beyond
    ``SYMMETRY_RTOL`` relative to ``max(1, max |A|)``."""
    A = A.tocsr()
    worst = _asymmetry(A)
    if worst > SYMMETRY_RTOL * max(1.0, np.abs(A.data).max(initial=0.0)):
        raise ValueError(f"matrix not symmetric: max |A - A^T| = {worst:.3e}")


def _transpose(B: sp.csr_matrix) -> tuple[sp.csr_matrix, bool]:
    """``B^T`` in CSR and whether it has B's pattern; B's indices get sorted."""
    B.sort_indices()
    B_t = B.T.tocsr()
    return B_t, (np.array_equal(B.indptr, B_t.indptr)
                 and np.array_equal(B.indices, B_t.indices))


def _asymmetry(B: sp.csr_matrix,
               transposed: tuple[sp.csr_matrix, bool] | None = None) -> float:
    """``max |B - B^T|`` of a square CSR matrix; a symmetric pattern is
    compared entry by entry, with only B's transpose and one vector.
    ``transposed`` is ``_transpose(B)`` when the caller holds it already."""
    B_t, same = transposed or _transpose(B)
    skew = B.data - B_t.data if same else (B - B_t).data
    return float(np.abs(skew, out=skew).max(initial=0.0))


def _symmetric_part(B: sp.csr_matrix,
                    transposed: tuple[sp.csr_matrix, bool] | None = None
                    ) -> sp.csr_matrix:
    """``(B + B^T) / 2``, exactly symmetric and canonical.  A pattern that is
    symmetric already, as that of a Galerkin product is but for exact
    cancellations (kept as stored zeros), is summed in B's own arrays.
    ``transposed`` is ``_transpose(B)`` when the caller holds it already."""
    B_t, same = transposed or _transpose(B)
    if same:
        B.data += B_t.data
    else:
        B = B + B_t
    B.data *= 0.5
    return B


def dense_to_csr(D: np.ndarray) -> sp.csr_matrix:
    """``sp.csr_matrix(D)`` of a 2-D array: the same ``data``, ``indices``,
    ``indptr`` and index dtype.  The nonzeros are counted per row first, and
    ``data`` and ``indices`` are then filled a block of rows at a time, so
    that beside ``D`` only the result and one block's mask exist."""
    D = np.asarray(D)
    n, m = D.shape
    rows = max(1, _DENSE_BLOCK_ENTRIES // max(m, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    for a in range(0, n, rows):
        indptr[a + 1:a + rows + 1] = np.count_nonzero(D[a:a + rows], axis=1)
    np.cumsum(indptr, out=indptr)
    nnz = int(indptr[-1])
    # sp.csr_matrix's rule: 32-bit indices while every index and count fits
    fits = max(nnz, n, m) <= np.iinfo(np.int32).max
    indices = np.empty(nnz, dtype=np.int32 if fits else np.int64)
    data = np.empty(nnz, dtype=D.dtype)
    for a in range(0, n, rows):
        block = D[a:a + rows]
        mask = block != 0
        span = slice(indptr[a], indptr[min(a + rows, n)])
        indices[span] = np.nonzero(mask)[1]  # row-major, so sorted within each row
        data[span] = block[mask]
    return sp.csr_matrix((data, indices, indptr), shape=D.shape)


def guarded_degrees(d: np.ndarray) -> np.ndarray:
    """Replace zero degrees by a small positive floor so that degree-scaled
    quantities stay finite; isolated vertices are reported."""
    d = np.asarray(d, dtype=np.float64).copy()
    zero = d == 0.0
    if np.any(zero):
        floor = DEGREE_FLOOR_REL * d.max() if d.max() > 0 else 1.0
        # the relative floor underflows to zero when the largest degree is tiny
        floor = max(floor, np.finfo(np.float64).tiny)
        d[zero] = floor
        warnings.warn(
            f"{int(zero.sum())} isolated vertex degree(s) floored to {floor:.3e}",
            category=RepairWarning,
        )
    return d


def _quadratic_form(q: float, sq_norm: float, what: str) -> float:
    if q < -1e-12 * max(sq_norm, 1e-300):
        raise IndefiniteOperatorError(f"indefinite operator: {what} = {q:.3e} < 0")
    return np.sqrt(max(q, 0.0))


def norm_A(v: np.ndarray, A: sp.spmatrix) -> float:
    """Energy norm ``sqrt(v^T A v)`` for (semi)definite ``A``."""
    v = np.asarray(v, dtype=np.float64)
    q = float(v @ (A @ v))
    return _quadratic_form(q, float(v @ v), "v^T A v")
