"""Desk-scale test problem generators.

Three families: piecewise-constant / rotated-anisotropic diffusion
discretized with linear elements on a structured triangulation of the unit
square, strongly anisotropic heat flow along a prescribed direction field,
and synthetic two-scale pore networks with channel structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import WeightedGraph

__all__ = [
    "TensorField",
    "PoreNetworkSpec",
    "gen_fem_grid",
    "gen_aniso_heat",
    "gen_pore_network",
    "p1_triangle_stiffness",
    "hagen_poiseuille",
    "channel_field",
    "lattice_graph",
    "box_boundary_vertices",
    "channel_endpoints",
]


@dataclass(frozen=True)
class TensorField:
    """Symmetric positive-definite coefficient field on the plane.

    ``isotropic`` fields are per-region scalars; ``rotated`` fields take
    ``Q^T diag(d1, d2) Q`` with ``Q`` the rotation by ``theta``, optionally
    scaled per region.  ``region`` maps points (m, 2) to integer region ids
    indexing ``multipliers``.
    """

    kind: str = "isotropic"
    d1: float = 1.0
    d2: float = 1.0
    theta: float = 0.0
    region: Callable[[np.ndarray], np.ndarray] | None = None
    multipliers: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.kind not in ("isotropic", "rotated"):
            raise ValueError(f"unknown tensor field kind: {self.kind}")
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("tensor eigenvalues must be positive")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("region multipliers must be positive")

    @classmethod
    def isotropic(cls, value: float = 1.0) -> "TensorField":
        return cls(kind="isotropic", multipliers=(value,))

    @classmethod
    def piecewise(cls, region, multipliers) -> "TensorField":
        return cls(kind="isotropic", region=region, multipliers=tuple(multipliers))

    @classmethod
    def rotated(cls, d1: float, d2: float, theta: float) -> "TensorField":
        return cls(kind="rotated", d1=d1, d2=d2, theta=theta)

    @property
    def strong_direction(self) -> np.ndarray:
        """Unit eigenvector of the larger eigenvalue (rotated fields)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        v = np.array([c, -s]) if self.d1 >= self.d2 else np.array([s, c])
        return v

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the 2x2 tensor at each point, shape (m, 2, 2)."""
        points = np.asarray(points, dtype=np.float64)
        m = points.shape[0]
        if self.region is None:
            scale = np.full(m, self.multipliers[0])
        else:
            ids = np.asarray(self.region(points), dtype=np.int64)
            scale = np.asarray(self.multipliers)[ids]
        if self.kind == "isotropic":
            K = np.zeros((m, 2, 2))
            K[:, 0, 0] = scale
            K[:, 1, 1] = scale
            return K
        c, s = math.cos(self.theta), math.sin(self.theta)
        Q = np.array([[c, -s], [s, c]])
        base = Q.T @ np.diag([self.d1, self.d2]) @ Q
        return scale[:, None, None] * base[None, :, :]


def channel_field(k_background: float = 1.0, k_channel: float = 1e4,
                  band: tuple[float, float] = (0.45, 0.55)) -> TensorField:
    """High-contrast horizontal channel through the unit square."""
    lo, hi = band

    def region(points):
        y = points[:, 1]
        return ((y >= lo) & (y <= hi)).astype(np.int64)

    return TensorField.piecewise(region, (k_background, k_channel))


def p1_triangle_stiffness(pts: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Exact element stiffness of linear elements on triangles.

    Parameters
    ----------
    pts : (m, 3, 2) vertex coordinates per triangle
    K : (m, 2, 2) constant tensor per triangle

    Returns
    -------
    (m, 3, 3) element matrices ``area * grad_a . K grad_b``.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 2:
        pts = pts[None]
        K = np.asarray(K, dtype=np.float64)[None]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det == 0):
        raise ValueError("degenerate triangle")
    area = 0.5 * np.abs(det)
    # gradients of the three hat functions (rows), constant per triangle
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    g0 = -(g1 + g2)
    G = np.stack([g0, g1, g2], axis=1)  # (m, 3, 2)
    Ke = area[:, None, None] * np.einsum("tad,tde,tbe->tab", G, K, G)
    return 0.5 * (Ke + Ke.transpose(0, 2, 1))


def _structured_mesh(nx: int, ny: int):
    """Vertices and triangles of the unit square split into 2*nx*ny cells."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    coords = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    v00 = (iy * (nx + 1) + ix).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    tris = np.vstack([lower, upper])
    return coords, tris


def _in_holes(points: np.ndarray, holes) -> np.ndarray:
    mask = np.zeros(points.shape[0], dtype=bool)
    for cx, cy, r in holes:
        mask |= (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2 <= r * r
    return mask


def gen_fem_grid(nx: int, ny: int, field, source: float = 1.0,
                 holes: Sequence[tuple[float, float, float]] = ()
                 ) -> tuple[WeightedGraph, sp.csr_matrix, np.ndarray]:
    """Assemble the linear-element diffusion operator on a structured grid.

    Each grid cell is split into two triangles; the tensor is evaluated at
    triangle barycenters and the load uses one-point (lumped) integration,
    ``f_i = source * support_area(i) / 3``.  Circular ``holes`` remove the
    triangles whose barycenter falls inside, imitating perforations with
    natural boundary conditions; unsupported vertices are dropped.
    ``field`` maps the barycenters ``(m, 2)`` to tensors ``(m, 2, 2)``, as
    a :class:`TensorField` does.

    Returns the vertex graph (edge weights are the negated off-diagonal
    operator entries), the singular pre-boundary operator, and the load.
    """
    if nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2")
    coords, tris = _structured_mesh(nx, ny)
    bary = coords[tris].mean(axis=1)
    if holes:
        tris = tris[~_in_holes(bary, holes)]
        bary = coords[tris].mean(axis=1)
        keep = np.unique(tris)
        remap = np.full(coords.shape[0], -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        tris = remap[tris]
        coords = coords[keep]
    n = coords.shape[0]

    K = np.asarray(field(bary), dtype=np.float64)
    if K.shape != (tris.shape[0], 2, 2):
        raise ValueError("tensor evaluation must return shape (m, 2, 2)")
    eig_lo = np.linalg.eigvalsh(K)[:, 0]
    if np.any(eig_lo <= 0):
        raise ValueError("coefficient tensor must be positive definite")

    pts = coords[tris]
    Ke = p1_triangle_stiffness(pts, K)
    area = 0.5 * np.abs(
        (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
        - (pts[:, 1, 1] - pts[:, 0, 1]) * (pts[:, 2, 0] - pts[:, 0, 0])
    )

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    A = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()

    f = np.zeros(n)
    np.add.at(f, tris.ravel(), np.repeat(source * area / 3.0, 3))

    C = sp.triu(A, k=1).tocoo()
    keep = C.data != 0.0
    ij = np.column_stack([C.row[keep], C.col[keep]])
    graph = WeightedGraph(n, ij, -C.data[keep], coords=coords)
    return graph, A, f


def gen_aniso_heat(nx: int, ny: int, k_par: float, k_perp: float,
                   b, source: float = 1.0
                   ) -> tuple[WeightedGraph, sp.csr_matrix, np.ndarray]:
    """Anisotropic heat flow ``K = k_perp I + (k_par - k_perp) b b^T``.

    ``b`` is a constant unit vector or a callable mapping points (m, 2) to
    unit vectors (m, 2); deviations from unit length beyond 1e-8 are
    rejected.
    """
    if not k_par >= k_perp > 0:
        raise ValueError("need k_par >= k_perp > 0")

    if callable(b):
        b_eval = b
    else:
        b_const = np.asarray(b, dtype=np.float64)

        def b_eval(points):
            return np.broadcast_to(b_const, (points.shape[0], 2))

    def field(points):
        bv = np.asarray(b_eval(points), dtype=np.float64)
        norms = np.linalg.norm(bv, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ValueError("direction field must consist of unit vectors")
        K = np.zeros((points.shape[0], 2, 2))
        K[:, 0, 0] = k_perp
        K[:, 1, 1] = k_perp
        K += (k_par - k_perp) * np.einsum("mi,mj->mij", bv, bv)
        return K

    return gen_fem_grid(nx, ny, field, source=source)


def box_boundary_vertices(coords: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vertices on the boundary of the unit square."""
    x, y = coords[:, 0], coords[:, 1]
    on = (np.abs(x) <= tol) | (np.abs(x - 1) <= tol) | \
         (np.abs(y) <= tol) | (np.abs(y - 1) <= tol)
    return np.flatnonzero(on)


def hagen_poiseuille(radius, length, viscosity) -> np.ndarray:
    """Laminar tube conductance ``pi r^4 / (8 mu l)``."""
    return np.pi * np.asarray(radius, dtype=np.float64) ** 4 / (8.0 * viscosity * length)


@dataclass(frozen=True)
class PoreNetworkSpec:
    """Synthetic two-scale lattice network.

    Fine throats draw radii from ``r_fine``; throats on channel rows draw
    from ``r_channel``.  Default ranges give a conductance contrast of
    roughly ``(r_channel_hi / r_fine_lo)^4 ~ 5e3``.
    """

    nx: int = 64
    ny: int = 64
    r_fine: tuple[float, float] = (0.3, 0.6)
    r_channel: tuple[float, float] = (1.5, 2.5)
    throat_length: float = 1.0
    viscosity: float = 1.0
    channels: tuple[int, ...] | None = None  # channel row indices; None = ny//3, 2ny//3
    capacity_range: tuple[float, float] = (0.1, 1.0)
    robin_alpha: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need nx, ny >= 2")
        for lo, hi in (self.r_fine, self.r_channel):
            if not 0 < lo <= hi:
                raise ValueError("radius ranges must be positive and ordered")
        if self.throat_length <= 0 or self.viscosity <= 0:
            raise ValueError("throat length and viscosity must be positive")
        c_lo, c_hi = self.capacity_range
        if not 0 <= c_lo <= c_hi:
            raise ValueError("capacity range must be ordered and nonnegative")

    @property
    def channel_rows(self) -> tuple[int, ...]:
        if self.channels is not None:
            return self.channels
        return (self.ny // 3, (2 * self.ny) // 3)


def _lattice_edges(nx: int, ny: int) -> np.ndarray:
    """Horizontal then vertical nearest-neighbor edges, row-major ids."""
    vid = np.arange(nx * ny).reshape(ny, nx)
    horiz = np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()])
    vert = np.column_stack([vid[:-1, :].ravel(), vid[1:, :].ravel()])
    return np.vstack([horiz, vert])


def lattice_graph(nx: int, ny: int, weight: float = 1.0,
                  spacing: float = 1.0) -> WeightedGraph:
    """Uniform rectangular lattice, handy for small structural tests."""
    ij = _lattice_edges(nx, ny)
    X, Y = np.meshgrid(np.arange(nx) * spacing, np.arange(ny) * spacing)
    coords = np.column_stack([X.ravel(), Y.ravel()])
    return WeightedGraph(nx * ny, ij, np.full(ij.shape[0], weight), coords=coords)


def gen_pore_network(spec: PoreNetworkSpec, seed: int) -> WeightedGraph:
    """Generate the two-scale lattice network, bit-reproducible per seed.

    Radii are drawn uniformly per edge (horizontal edges row-major, then
    vertical), channel rows are overridden with channel-scale radii, and
    capacities are drawn per node.  Robin boundary conditions sit at the
    channel endpoints on the left and right domain edges.
    """
    rng = np.random.default_rng(seed)
    nx, ny = spec.nx, spec.ny
    ij = _lattice_edges(nx, ny)
    radii = rng.uniform(spec.r_fine[0], spec.r_fine[1], size=ij.shape[0])

    rows_of = ij // nx  # row index of each endpoint
    horizontal = rows_of[:, 0] == rows_of[:, 1]
    for row in spec.channel_rows:
        on_channel = horizontal & (rows_of[:, 0] == row)
        radii[on_channel] = rng.uniform(spec.r_channel[0], spec.r_channel[1],
                                        size=int(on_channel.sum()))
    weights = hagen_poiseuille(radii, spec.throat_length, spec.viscosity)

    capacity = rng.uniform(spec.capacity_range[0], spec.capacity_range[1],
                           size=nx * ny)

    X, Y = np.meshgrid(np.arange(nx) * spec.throat_length,
                       np.arange(ny) * spec.throat_length)
    coords = np.column_stack([X.ravel(), Y.ravel()])

    robin = []
    if spec.robin_alpha > 0:
        left, right = channel_endpoints(spec)
        for v in sorted(np.concatenate([left, right])):
            robin.append((int(v), spec.robin_alpha, 0.0))

    return WeightedGraph(nx * ny, ij, weights, coords=coords,
                         capacity=capacity, robin=robin)


def channel_endpoints(spec: PoreNetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Left and right boundary node ids of each channel row."""
    rows = np.asarray(spec.channel_rows, dtype=np.int64)
    left = rows * spec.nx
    right = rows * spec.nx + (spec.nx - 1)
    return left, right
