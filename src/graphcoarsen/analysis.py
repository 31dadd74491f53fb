"""Convergence diagnostics: aggregate diameters, intra-aggregate contrast
ratios, degree-weighted dual norms, and fitted constants for the energy
error bound ``||u - u_ms||_A <= C * H * sqrt(C_ratio) * ||f||_{D^{-1}}``.

The unquantified constant is never evaluated; instead the fitted value is
reported so refinement sweeps can check boundedness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .clustering import ClusterSet
from .coarsesolve import galerkin_residual
from .exceptions import RepairWarning
from .graph import WeightedGraph, guarded_degrees, norm_A
from .partition import Partition

__all__ = [
    "ConvergenceReport",
    "cluster_contrast",
    "cluster_diameter",
    "dual_norm_f",
    "verify_bound",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-aggregate geometry/contrast data and fitted bound constants."""

    columns: tuple[tuple[int, int], ...]
    diameters: np.ndarray
    weight_contrast: np.ndarray
    degree_contrast: np.ndarray
    h_max: float
    contrast_max: float
    dual_norm: float
    energy_error: float
    error_d_norm: float
    fitted_constant: float          # energy error / (H sqrt(C_ratio) ||f||_D^-1)
    fitted_constant_d: float        # D-norm error / (H sqrt(C_ratio) energy error)
    orthogonality_residual: float
    overlap_multiplicity: int | None = None

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("subdomain,aggregate,diameter,weight_contrast,degree_contrast\n")
            for (k, r), h, cw, cd in zip(self.columns, self.diameters,
                                         self.weight_contrast, self.degree_contrast):
                fh.write(f"{k},{r},{h:.10g},{cw:.10g},{cd:.10g}\n")
            fh.write(
                f"summary,,{self.h_max:.10g},{self.contrast_max:.10g},"
                f"{self.fitted_constant:.10g}\n"
            )


def cluster_contrast(graph: WeightedGraph, clusters: ClusterSet
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Weight- and degree-based contrast per aggregate, both read from the
    column labels :attr:`ClusterSet.column_of`.

    Weight contrast is max/min absolute weight over edges interior to the
    aggregate; aggregates with no interior edge report 1.  Degree contrast
    is max/min vertex degree over members.
    """
    n_c = clusters.n_coarse
    col_of = clusters.column_of
    i, j = graph.edge_index[:, 0], graph.edge_index[:, 1]
    same = (col_of[i] == col_of[j]) & (col_of[i] >= 0)
    absw = np.abs(graph.edge_weight[same])
    cols = col_of[i[same]]
    w_max = np.zeros(n_c)
    w_min = np.full(n_c, np.inf)
    np.maximum.at(w_max, cols, absw)
    np.minimum.at(w_min, cols, absw)
    no_edge = ~np.isfinite(w_min) | (w_max == 0)
    if np.any(no_edge):
        warnings.warn(f"{int(no_edge.sum())} aggregate(s) without interior edges; "
                      "contrast set to 1", RepairWarning)
    weight_ratio = np.ones(n_c)
    ok = ~no_edge
    weight_ratio[ok] = w_max[ok] / w_min[ok]

    # every aggregate has a member, so each minimum is a degree
    covered = col_of >= 0
    deg = guarded_degrees(graph.degrees)[covered]
    d_max = np.zeros(n_c)
    d_min = np.full(n_c, np.inf)
    np.maximum.at(d_max, col_of[covered], deg)
    np.minimum.at(d_min, col_of[covered], deg)
    return weight_ratio, d_max / d_min


def cluster_diameter(coords: np.ndarray, clusters: ClusterSet) -> np.ndarray:
    """Euclidean diameter per aggregate, bit for bit as ``pdist`` gives it.

    Members are laid out by aggregate, the largest first, so that offset t
    takes the pairs t apart in the aggregates larger than t in one pass."""
    sizes, col = clusters.sizes, clusters.column_of
    members = np.lexsort((col, -np.append(sizes, 0)[col]))[:sizes.sum()]  # uncovered last
    col, x = col[members], coords[members].T.copy()
    far = np.zeros(members.size)  # distance to the farthest later member
    for t in range(1, int(sizes.max(initial=1))):
        head = int(sizes[sizes > t].sum()) - t
        d = np.sqrt(sum((xk[t:t + head] - xk[:head]) ** 2 for xk in x))
        np.maximum(far[:head], np.where(col[t:t + head] == col[:head], d, 0.0), out=far[:head])
    out = np.zeros(clusters.n_coarse)
    np.maximum.at(out, col, far)
    return out


def dual_norm_f(f: np.ndarray, graph: WeightedGraph) -> float:
    """Degree-weighted dual norm ``sqrt(sum f_i^2 / d_i)``."""
    d = guarded_degrees(graph.degrees)
    f = np.asarray(f, dtype=np.float64)
    return float(np.sqrt(np.sum(f * f / d)))


def verify_bound(graph: WeightedGraph, clusters: ClusterSet, P,
                 A: sp.spmatrix, f: np.ndarray, u: np.ndarray,
                 u_ms: np.ndarray, partition: Partition | None = None
                 ) -> ConvergenceReport:
    """Assemble the convergence report for one completed run."""
    if graph.coords is None:
        raise ValueError("convergence report needs vertex coordinates")
    diam = cluster_diameter(graph.coords, clusters)
    w_ratio, d_ratio = cluster_contrast(graph, clusters)
    h_max = float(diam.max())
    contrast = float(w_ratio.max())
    dual = dual_norm_f(f, graph)
    err = np.asarray(u) - np.asarray(u_ms)
    e_a = norm_A(err, A)
    d = guarded_degrees(graph.degrees)
    e_d = float(np.sqrt(np.sum(d * err * err)))

    denom = h_max * np.sqrt(contrast) * dual
    c_fit = 0.0 if e_a == 0 else (e_a / denom if denom > 0 else np.inf)
    denom_d = h_max * np.sqrt(contrast) * e_a
    c_fit_d = 0.0 if e_d == 0 else (e_d / denom_d if denom_d > 0 else np.inf)

    overlap = None
    if partition is not None and partition.oversampled is not None:
        overlap = int(np.bincount(np.concatenate(
            [region.ids for region in partition.oversampled])).max())

    return ConvergenceReport(
        columns=clusters.columns,
        diameters=diam,
        weight_contrast=w_ratio,
        degree_contrast=d_ratio,
        h_max=h_max,
        contrast_max=contrast,
        dual_norm=dual,
        energy_error=e_a,
        error_d_norm=e_d,
        fitted_constant=float(c_fit),
        fitted_constant_d=float(c_fit_d),
        orthogonality_residual=galerkin_residual(P, A, f, u_ms),
        overlap_multiplicity=overlap,
    )
