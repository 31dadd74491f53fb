import numpy as np
import pytest

from graphcoarsen import WeightedGraph, assemble_signed_laplacian, apply_boundary
from graphcoarsen import fileio
from graphcoarsen.clustering import cluster_partition
from graphcoarsen.partition import partition_balanced
from graphcoarsen.problems import lattice_graph


@pytest.fixture
def full_graph():
    return WeightedGraph.build(
        4,
        [(0, 1, 1.5), (1, 2, -2.25), (2, 3, 0.125)],
        coords=np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.25], [1.5, 1.0]]),
        capacity=[0.1, 0.2, 0.3, 0.4],
        robin=[(0, 2.0, 1.0), (3, 1.0, 0.0)],
        dirichlet=[(2, 7.0)],
    )


def test_graph_text_roundtrip(tmp_path, full_graph):
    path = tmp_path / "g.txt"
    fileio.write_graph(full_graph, path)
    g2 = fileio.read_graph(path)
    assert g2.n_vertices == full_graph.n_vertices
    assert np.array_equal(g2.edge_index, full_graph.edge_index)
    assert np.array_equal(g2.edge_weight, full_graph.edge_weight)
    assert np.array_equal(g2.coords, full_graph.coords)
    assert np.array_equal(g2.capacity, full_graph.capacity)
    assert g2.robin == full_graph.robin
    assert g2.dirichlet == full_graph.dirichlet


def test_graph_without_coords_roundtrip(tmp_path):
    g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 2.0)])
    path = tmp_path / "g.txt"
    fileio.write_graph(g, path)
    g2 = fileio.read_graph(path)
    assert g2.coords is None
    assert np.array_equal(g2.edge_weight, g.edge_weight)


def test_operator_matrix_market_roundtrip(tmp_path):
    g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 2.0)], robin=[(0, 1.0, 0.0)])
    A, _ = apply_boundary(assemble_signed_laplacian(g), g)
    path = tmp_path / "A.mtx"
    fileio.write_operator(A, path)
    A2 = fileio.read_operator(path)
    assert np.array_equal(A2.toarray(), A.toarray())


def test_vector_roundtrip_exact(tmp_path):
    v = np.array([1.0 / 3.0, -2.5e-17, 1e300, 0.1])
    path = tmp_path / "v.txt"
    fileio.write_vector(v, path)
    assert np.array_equal(fileio.read_vector(path), v)


def test_partition_and_cluster_exports(tmp_path):
    g = lattice_graph(4, 4)
    part = partition_balanced(g, 2, seed=0)
    ppath = tmp_path / "part.txt"
    fileio.write_partition(part, ppath)
    rows = np.loadtxt(ppath, dtype=np.int64)
    assert rows.shape == (16, 2)
    assert np.array_equal(rows[:, 1], part.assignment)

    clusters = cluster_partition(g, part, 2, seed=0)
    cpath = tmp_path / "clusters.txt"
    fileio.write_clusters(clusters, cpath)
    rows = np.loadtxt(cpath, dtype=np.int64)
    assert rows.shape == (16, 4)
    assert rows[:, 3].sum() == clusters.n_coarse  # one centroid flag per aggregate


def test_prolongation_roundtrip(tmp_path):
    from graphcoarsen.experiments import Problem, build_prolongation

    g = lattice_graph(4, 4, spacing=1.0)
    g = WeightedGraph(g.n_vertices, g.edge_index, g.edge_weight, coords=g.coords,
                      robin=[(0, 1.0, 0.0)])
    A, f = apply_boundary(assemble_signed_laplacian(g), g)
    part = partition_balanced(g, 2, seed=0)
    clusters = cluster_partition(g, part, 2, seed=0)
    P = build_prolongation("cf-glo", Problem("t", g, A, f), clusters, part)
    path = tmp_path / "P.mtx"
    fileio.write_prolongation(P, path)
    P2 = fileio.read_prolongation(path)
    assert np.allclose(P2.matrix.toarray(), P.matrix.toarray())
    assert [c.subdomain for c in P2.columns] == [c.subdomain for c in P.columns]
    assert [c.centroid for c in P2.columns] == [c.centroid for c in P.columns]


@pytest.mark.parametrize("cols, match", [
    ("0 0 0 0\n1 0 1\n", r"line 2: expected 4 integers"),
    ("0 0 0 0\n1 0 1 x\n", r"line 2: expected 4 integers"),
    ("0 0 0 0\n0 0 1 1\n", r"line 2: column id 0, expected 1"),
    ("1 0 0 0\n0 0 1 1\n", r"line 1: column id 1, expected 0"),
    ("0 0 0 0\n1 0 1 1\n2 0 2 2\n", r"line 3: more lines than the 2 columns"),
    ("0 0 0 0\n", r"line 2: file ends after 1 of 2 columns"),
    ("0 0 0 0\n1 -1 1 1\n", r"line 2: need k >= 0, r >= 0"),
    ("0 0 0 0\n1 0 -1 1\n", r"line 2: need k >= 0, r >= 0"),
    ("0 0 1 0\n\n1 0 1 1\n", r"line 3: column \(0, 1\) already on line 1"),
    ("0 0 0 0\n1 0 1 99\n", r"line 2: .*centroid in \[-1, 3\)"),
    ("0 0 0 -2\n1 0 1 1\n", r"line 1: .*centroid in \[-1, 3\)"),
])
def test_read_prolongation_rejects_bad_sidecar(tmp_path, cols, match):
    import scipy.io
    import scipy.sparse as sp

    path = tmp_path / "P.mtx"
    scipy.io.mmwrite(str(path), sp.coo_matrix(np.eye(3, 2)))
    sidecar = tmp_path / "P.mtx.cols"
    sidecar.write_text(cols)
    with pytest.raises(ValueError, match=match) as err:
        fileio.read_prolongation(path)
    assert str(sidecar) in str(err.value)


def test_trajectory_csv(tmp_path):
    times = np.array([0.0, 0.5])
    states = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "traj.csv"
    fileio.write_trajectory(times, states, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,time,vertex,value"
    assert lines[1] == "0,0,0,1"
    assert lines[4] == "1,0.5,1,4"


def test_partition_and_cluster_read_roundtrip(tmp_path):
    g = lattice_graph(4, 4)
    part = partition_balanced(g, 2, seed=0)
    clusters = cluster_partition(g, part, 3, seed=0)
    fileio.write_partition(part, tmp_path / "part.txt")
    fileio.write_clusters(clusters, tmp_path / "clusters.txt")

    part2 = fileio.read_partition(tmp_path / "part.txt", g.n_vertices)
    assert np.array_equal(part2.assignment, part.assignment)
    clusters2 = fileio.read_clusters(tmp_path / "clusters.txt", g.n_vertices)
    assert clusters2.centroids == clusters.centroids
    assert [a.ids.tolist() for a in clusters2.flat_aggregates] == \
        [a.ids.tolist() for a in clusters.flat_aggregates]


def test_cluster_roundtrip_keeps_uncovered_vertices(tmp_path):
    from graphcoarsen import IndexSet
    from graphcoarsen.clustering import ClusterSet

    clusters = ClusterSet(4, ((IndexSet(np.array([1, 2]), 4),),), ((2,),))
    fileio.write_clusters(clusters, tmp_path / "c.txt")
    back = fileio.read_clusters(tmp_path / "c.txt", 4)
    assert np.array_equal(back.column_of, [-1, 0, 0, -1])
    assert back.centroids == ((2,),)


@pytest.mark.parametrize("text, match", [
    ("0 0\n1 0\n3 1\n", r"vertex 2 missing"),
    ("0 0\n1 0\n2 1\n2 1\n3 1\n", r"vertex 2 listed twice"),
    ("0 0\n1 0\n2 1\n3 -1\n", r"vertex 3 has subdomain id -1 out of range"),
    ("0 0\n1 0\n2 1\n3 1\n4 1\n", r"vertex 4 out of range"),
])
def test_read_partition_rejects_bad_files(tmp_path, text, match):
    path = tmp_path / "part.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match) as err:
        fileio.read_partition(path, 4)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("text, match", [
    ("0 0 0 1\n1 0 0 0\n2 0 1 0\n3 0 1 0\n", r"aggregate \(0, 1\) of vertex 2 has no centroid"),
    ("0 0 0 1\n1 0 0 1\n2 0 1 1\n3 0 1 0\n", r"aggregate \(0, 0\) has centroid flags on vertices \[0, 1\]"),
])
def test_read_clusters_rejects_bad_centroid_flags(tmp_path, text, match):
    path = tmp_path / "clusters.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match) as err:
        fileio.read_clusters(path, 4)
    assert str(path) in str(err.value)


GRAPH_TEXT = "3 2\n0 0\n1 0\n2 0\n0 1 1.0\n1 2 2.0\n"
# each vertex-id field of a graph file, set to an id no float or int64
# holds, to n and to -1
BAD_VERTEX_IDS = [
    pytest.param(GRAPH_TEXT + section + line.format(v) + "\n",
                 rf"line {7 + bool(section)}: vertex id out of range \[0, 3\) "
                 rf"in '{line.format(v)}'", id=f"{name}-{v_name}")
    for name, section, line in (("edge", "", "1 {} 2.0"), ("robin", "#robin\n", "{} 1 0"),
                                ("dirichlet", "#dirichlet\n", "{} 0"))
    for v_name, v in (("huge", "9" * 300), ("n", "3"), ("negative", "-1"))]


@pytest.mark.parametrize("text, match", [
    ("3 2\n0 0\n1 0\n", r"line 4: file ends after 2 of 3 coordinate lines"),
    ("3 2\n0 0\n1 0\n#capacity\n1\n2\n3\n", r"line 4: expected '2 coordinates', got '#capacity'"),
    ("3 2\n0 0\n1 0 7\n2 0\n", r"line 3: expected '2 coordinates', got '1 0 7'"),
    ("3\n", r"line 1: expected 'n d', got '3'"),
    ("-3 2\n", r"line 1: need n >= 0 and d >= 0"),
    ("3 2\n\n0 0\n1 0\n2 0\n0 1\n", r"line 6: expected 'i j w', got '0 1'"),
    (GRAPH_TEXT + "1 x 2.0\n", r"line 7: expected 'i j w', got '1 x 2.0'"),
    (GRAPH_TEXT + "#capacity\n1\n2 3\n3\n", r"line 9: expected 'value', got '2 3'"),
    (GRAPH_TEXT + "#robin\n0 2.0\n", r"line 8: expected 'i alpha g', got '0 2.0'"),
    (GRAPH_TEXT + "#dirichlet\n2\n", r"line 8: expected 'i g', got '2'"),
    (GRAPH_TEXT + "#neumann\n2 1.0\n", r"line 7: unknown section '#neumann'"),
    ("3 2\n0 0\n1 nan\n2 0\n", r"line 3: non-finite value in '1 nan'"),
    (GRAPH_TEXT + "1 0 NaN\n", r"line 7: non-finite value in '1 0 NaN'"),
    (GRAPH_TEXT + "#capacity\n1\ninf\n3\n", r"line 9: non-finite value in 'inf'"),
    (GRAPH_TEXT + "#robin\n0 nan 0\n", r"line 8: non-finite value in '0 nan 0'"),
    (GRAPH_TEXT + "#dirichlet\n2 -inf\n", r"line 8: non-finite value in '2 -inf'"),
    *BAD_VERTEX_IDS,
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_read_graph_rejects_bad_lines(tmp_path, text, match):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match) as err:
        fileio.read_graph(path)
    assert str(path) in str(err.value)


def test_read_graph_sections(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(GRAPH_TEXT + "#Capacity\n1\n2\n3\n#edges\n0 2 0.5\n#dirichlet\n2 7.0\n")
    g = fileio.read_graph(path)
    assert g.n_vertices == 3 and len(g.edge_weight) == 3
    assert np.array_equal(g.capacity, [1.0, 2.0, 3.0])
    assert g.dirichlet == ((2, 7.0),)
