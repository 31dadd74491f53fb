"""File formats: graph text files, Matrix Market operators, and the plain
text exports used by the command-line tools.

Graph text format (line oriented)::

    n d                 header: vertex count, coordinate dimension (0 = none)
    x y [z]             n coordinate lines (omitted when d = 0)
    i j w               edge lines
    #capacity           optional section: n lines, one value per vertex
    #robin              optional section: lines "i alpha g"
    #dirichlet          optional section: lines "i g"
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

from .clustering import ClusterSet
from .graph import IndexSet, WeightedGraph, check_symmetric
from .partition import Partition

__all__ = [
    "read_graph",
    "write_graph",
    "read_operator",
    "write_operator",
    "write_vector",
    "read_vector",
    "write_partition",
    "read_partition",
    "write_clusters",
    "read_clusters",
    "write_prolongation",
    "read_prolongation",
    "write_trajectory",
]

_FLOAT_FMT = "%.17g"


def write_graph(graph: WeightedGraph, path) -> None:
    d = 0 if graph.coords is None else graph.coords.shape[1]
    with open(path, "w") as fh:
        fh.write(f"{graph.n_vertices} {d}\n")
        if d:
            for row in graph.coords:
                fh.write(" ".join(_FLOAT_FMT % x for x in row) + "\n")
        for (i, j), w in zip(graph.edge_index, graph.edge_weight):
            fh.write(f"{i} {j} {_FLOAT_FMT % w}\n")
        if graph.capacity is not None:
            fh.write("#capacity\n")
            for c in graph.capacity:
                fh.write(_FLOAT_FMT % c + "\n")
        if graph.robin:
            fh.write("#robin\n")
            for v, a, g in graph.robin:
                fh.write(f"{v} {_FLOAT_FMT % a} {_FLOAT_FMT % g}\n")
        if graph.dirichlet:
            fh.write("#dirichlet\n")
            for v, g in graph.dirichlet:
                fh.write(f"{v} {_FLOAT_FMT % g}\n")


# layout and field types of the lines of each section of a graph file
_GRAPH_SECTIONS = {"edges": ("i j w", (int, int, float)), "capacity": ("value", (float,)),
                   "robin": ("i alpha g", (int, float, float)),
                   "dirichlet": ("i g", (int, float))}


def _graph_line(path, lineno: int, text: str, layout: str, types: tuple) -> tuple:
    """The fields of one graph-file line converted by ``types``; a wrong
    count, an unparsable field or a non-finite number raises ``ValueError``
    naming the file and the line."""
    parts = text.split()
    try:
        if len(parts) != len(types):
            raise ValueError
        fields = tuple(t(x) for t, x in zip(types, parts))
    except ValueError:
        raise ValueError(f"{path}, line {lineno}: expected '{layout}', got '{text}'") from None
    if not np.isfinite([x for x in fields if isinstance(x, float)]).all():
        raise ValueError(f"{path}, line {lineno}: non-finite value in '{text}'")
    return fields


def read_graph(path) -> WeightedGraph:
    """Read the graph text format of the module docstring.  A line with the
    wrong number of fields, an unparsable field, a non-finite number or a
    vertex id outside ``[0, n)``, a coordinate block cut short and an unknown
    section raise ``ValueError`` naming the file and the line."""
    with open(path) as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    n, d = _graph_line(path, *lines[0], "n d", (int, int))
    if n < 0 or d < 0:
        raise ValueError(f"{path}, line {lines[0][0]}: need n >= 0 and d >= 0")
    coords = None
    if d:
        block = lines[1:n + 1]
        if len(block) < n:
            raise ValueError(f"{path}, line {lines[-1][0] + 1}: file ends after "
                             f"{len(block)} of {n} coordinate lines")
        coords = np.array([_graph_line(path, k, ln, f"{d} coordinates", (float,) * d)
                           for k, ln in block]).reshape(n, d)
    parsed = {"edges": []}
    section = "edges"
    for lineno, ln in lines[1 + (n if d else 0):]:
        if ln.startswith("#"):
            section = (ln[1:].split() or [""])[0].lower()
            if section not in _GRAPH_SECTIONS:
                raise ValueError(f"{path}, line {lineno}: unknown section '{ln}'")
            parsed.setdefault(section, [])
            continue
        fields = _graph_line(path, lineno, ln, *_GRAPH_SECTIONS[section])
        if not all(0 <= x < n for x in fields if isinstance(x, int)):  # the vertex ids
            raise ValueError(f"{path}, line {lineno}: vertex id out of range [0, {n}) "
                             f"in '{ln}'")
        parsed[section].append(fields)
    capacity = parsed.get("capacity")
    if capacity is not None:
        if len(capacity) != n:
            raise ValueError(f"{path}: #capacity must list one value per vertex")
        capacity = np.array([c for c, in capacity])
    return WeightedGraph.build(n, parsed["edges"], coords=coords, capacity=capacity,
                               robin=parsed.get("robin", []),
                               dirichlet=parsed.get("dirichlet", []))


def write_operator(A: sp.spmatrix, path) -> None:
    scipy.io.mmwrite(str(path), A.tocoo(), symmetry="symmetric", precision=17)


def read_operator(path) -> sp.csr_matrix:
    """Read a symmetric sparse operator from a Matrix Market file; a
    non-finite entry raises ``ValueError`` naming the file."""
    A = scipy.io.mmread(str(path)).tocsr()
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{path}: operator must be square")
    if not np.isfinite(A.data).all():
        raise ValueError(f"{path}: operator has a non-finite entry")
    check_symmetric(A)
    return A


def write_vector(v: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(v, dtype=np.float64), fmt=_FLOAT_FMT)


def read_vector(path) -> np.ndarray:
    """Read one value per line; a non-finite value raises ``ValueError``
    naming the file."""
    v = np.atleast_1d(np.loadtxt(path, dtype=np.float64))
    if not np.isfinite(v).all():
        raise ValueError(f"{path}: vector has a non-finite entry")
    return v


def write_partition(partition, path) -> None:
    """Lines ``vertex subdomain``."""
    with open(path, "w") as fh:
        for v, k in enumerate(partition.assignment):
            fh.write(f"{v} {k}\n")


def _read_vertex_table(path, n_vertices: int, width: int) -> np.ndarray:
    """Integer lines ``vertex ...`` naming every vertex exactly once,
    returned sorted by vertex."""
    data = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if data.size == 0:
        data = data.reshape(0, width)
    if data.shape[1] != width:
        raise ValueError(f"{path}: expected {width} integers per line")
    v = data[:, 0]
    bad = np.flatnonzero((v < 0) | (v >= n_vertices))
    if bad.size:
        raise ValueError(f"{path}: vertex {v[bad[0]]} out of range [0, {n_vertices})")
    count = np.bincount(v, minlength=n_vertices)
    if np.any(count > 1):
        raise ValueError(f"{path}: vertex {np.flatnonzero(count > 1)[0]} listed twice")
    if np.any(count == 0):
        raise ValueError(f"{path}: vertex {np.flatnonzero(count == 0)[0]} missing")
    return data[np.argsort(v)]


def read_partition(path, n_vertices: int) -> Partition:
    """Read the ``vertex subdomain`` lines of :func:`write_partition`."""
    sub = _read_vertex_table(path, n_vertices, 2)[:, 1]
    bad = np.flatnonzero((sub < 0) | (sub >= n_vertices))
    if bad.size:
        raise ValueError(f"{path}: vertex {bad[0]} has subdomain id {sub[bad[0]]} "
                         f"out of range [0, {n_vertices})")
    return Partition(n_vertices, int(sub.max()) + 1 if sub.size else 0, sub)


def write_clusters(clusters, path) -> None:
    """Lines ``vertex subdomain aggregate is_centroid``; a vertex outside
    every aggregate has subdomain and aggregate -1."""
    sub, agg, cent = clusters.labels()
    with open(path, "w") as fh:
        for v in range(clusters.n_vertices):
            fh.write(f"{v} {sub[v]} {agg[v]} {cent[v]}\n")


def read_clusters(path, n_vertices: int) -> ClusterSet:
    """Read the lines of :func:`write_clusters`; every aggregate needs
    exactly one centroid flag."""
    groups: dict = {}
    for v, k, r, flag in _read_vertex_table(path, n_vertices, 4).tolist():
        if k >= 0:
            groups.setdefault(k, {}).setdefault(r, []).append((v, flag))
    aggs, cents = [], []
    for k in range(max(groups, default=-1) + 1):
        rows = groups.get(k, {})
        if sorted(rows) != list(range(len(rows))):
            raise ValueError(f"{path}: aggregate ids of subdomain {k} are not "
                             f"0..{len(rows) - 1}")
        row_a, row_c = [], []
        for r in range(len(rows)):
            members = [v for v, _ in rows[r]]
            flagged = [v for v, flag in rows[r] if flag]
            if not flagged:
                raise ValueError(f"{path}: aggregate ({k}, {r}) of vertex {members[0]} "
                                 "has no centroid flag")
            if len(flagged) > 1:
                raise ValueError(f"{path}: aggregate ({k}, {r}) has centroid flags on "
                                 f"vertices {flagged}")
            row_a.append(IndexSet(np.array(members, dtype=np.int64), n_vertices))
            row_c.append(flagged[0])
        aggs.append(tuple(row_a))
        cents.append(tuple(row_c))
    return ClusterSet(n_vertices, tuple(aggs), tuple(cents))


def write_prolongation(prol, path) -> None:
    """Matrix Market file plus a ``.cols`` sidecar ``col k r centroid``."""
    scipy.io.mmwrite(str(path), prol.matrix.tocoo(), precision=17)
    with open(str(path) + ".cols", "w") as fh:
        for c, col in enumerate(prol.columns):
            centroid = -1 if col.centroid is None else col.centroid
            fh.write(f"{c} {col.subdomain} {col.aggregate} {centroid}\n")


def read_prolongation(path):
    """Read the files of :func:`write_prolongation`.

    Sidecar lines ``col k r centroid`` list the columns 0..n_c-1 once each
    in order, with ``k, r >= 0``, no ``(k, r)`` twice, and ``centroid`` a
    row of P or -1 for none.
    """
    from .interpolation import ColumnInfo, Prolongation

    P = scipy.io.mmread(str(path)).tocsr()
    n, n_c = P.shape
    sidecar = str(path) + ".cols"
    columns, line_of, lineno = [], {}, 0
    with open(sidecar) as fh:
        for lineno, ln in enumerate(fh, 1):
            if not ln.split():
                continue
            where = f"{sidecar}, line {lineno}"
            try:
                c, k, r, centroid = (int(x) for x in ln.split())
            except ValueError:
                raise ValueError(f"{where}: expected 4 integers 'col k r centroid'") from None
            if len(columns) == n_c:
                raise ValueError(f"{where}: more lines than the {n_c} columns of P")
            if c != len(columns):
                raise ValueError(f"{where}: column id {c}, expected {len(columns)}")
            if min(k, r) < 0 or not -1 <= centroid < n:
                raise ValueError(f"{where}: need k >= 0, r >= 0 and centroid in [-1, {n})")
            if (k, r) in line_of:
                raise ValueError(f"{where}: column ({k}, {r}) already on line {line_of[k, r]}")
            line_of[k, r] = lineno
            columns.append(ColumnInfo(k, r, None if centroid < 0 else centroid))
    if len(columns) != n_c:
        raise ValueError(f"{sidecar}, line {lineno + 1}: file ends after "
                         f"{len(columns)} of {n_c} columns")
    return Prolongation(matrix=P, kind="file", columns=tuple(columns), delta_h=None)


def write_trajectory(times: np.ndarray, states: np.ndarray, path) -> None:
    """CSV trajectory ``step,time,vertex,value``."""
    with open(path, "w") as fh:
        fh.write("step,time,vertex,value\n")
        for step, (t, u) in enumerate(zip(times, states)):
            for v, val in enumerate(u):
                fh.write(f"{step},{_FLOAT_FMT % t},{v},{_FLOAT_FMT % val}\n")
