import numpy as np
import pytest
from scipy.spatial.distance import pdist

from graphcoarsen import (IndexSet, RepairWarning, WeightedGraph,
                          galerkin_coarse, oversample, partition_balanced,
                          solve_fine, solve_steady)
from graphcoarsen.analysis import (cluster_contrast, cluster_diameter, dual_norm_f,
                                   verify_bound)
from graphcoarsen.clustering import ClusterSet, cluster_partition
from graphcoarsen.experiments import build_problem, build_prolongation
from graphcoarsen.graph import guarded_degrees


def make_clusters(n, groups, centroids):
    aggs = (tuple(IndexSet(np.array(g), n) for g in groups),)
    return ClusterSet(n, aggs, (tuple(centroids),))


class TestContrast:
    def test_uniform_weights(self):
        g = WeightedGraph.build(3, [(0, 1, 2.0), (1, 2, 2.0)])
        clusters = make_clusters(3, [[0, 1, 2]], [1])
        w, d = cluster_contrast(g, clusters)
        assert w[0] == 1.0
        assert d[0] == 2.0  # path endpoints have half the middle degree

    def test_uniform_degrees_on_cycle(self):
        g = WeightedGraph.build(4, [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 3.0),
                                    (0, 3, 3.0)])
        clusters = make_clusters(4, [[0, 1, 2, 3]], [0])
        w, d = cluster_contrast(g, clusters)
        assert w[0] == 1.0 and d[0] == 1.0

    def test_mixed_weights(self):
        g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 1e4)])
        clusters = make_clusters(3, [[0, 1, 2]], [1])
        w, _ = cluster_contrast(g, clusters)
        assert w[0] == pytest.approx(1e4)

    def test_no_interior_edges_reports_one(self):
        g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        clusters = make_clusters(3, [[0, 2], [1]], [0, 1])
        with pytest.warns(RepairWarning, match="interior"):
            w, _ = cluster_contrast(g, clusters)
        assert np.array_equal(w, [1.0, 1.0])

    def test_degree_contrast_per_aggregate(self):
        # vertex 5 is in no aggregate and has the largest degree
        edges = [(0, 1, 0.7), (1, 2, 1.3), (2, 3, 0.2), (3, 4, 2.9), (4, 5, 9.0),
                 (5, 6, 8.0), (5, 0, 7.5), (6, 7, 0.1), (1, 7, 3.3)]
        g = WeightedGraph.build(8, edges)
        groups = [[0, 1, 2], [3, 4], [6], [7]]
        clusters = make_clusters(8, groups, [0, 3, 6, 7])
        deg = guarded_degrees(g.degrees)
        oracle = np.array([deg[ids].max() / deg[ids].min() for ids in groups])
        _, d = cluster_contrast(g, clusters)
        assert np.array_equal(d, oracle)
        assert d[2] == d[3] == 1.0


class TestDiameter:
    def test_cases(self):
        coords = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                           [1.0, 0.0]])
        g = 5
        clusters = ClusterSet(
            5,
            ((IndexSet(np.array([0]), g), IndexSet(np.array([1, 2]), g),
              IndexSet(np.array([3, 4]), g)),),
            ((0, 1, 3),),
        )
        d = cluster_diameter(coords, clusters)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(np.sqrt(10.0))
        assert d[2] == pytest.approx(1.0)

    def test_unit_square_corners(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        clusters = make_clusters(4, [[0, 1, 2, 3]], [0])
        assert cluster_diameter(coords, clusters)[0] == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("problem, n_subdomains, m", [
        ({"family": "fem", "nx": "40", "ny": "40"}, 16, 8),
        ({"family": "fem", "nx": "40", "ny": "40"}, 4, 1),  # 381 members at most
        ({"family": "pore", "nx": "24", "ny": "24"}, 9, 4),
    ])
    def test_bits_of_pdist(self, problem, n_subdomains, m):
        # the vectorized passes give the bits of a pdist loop, on small and
        # large aggregates alike
        graph = build_problem(problem).graph
        clusters = cluster_partition(graph, partition_balanced(graph, n_subdomains, seed=1),
                                     m, seed=1)
        oracle = np.array([pdist(graph.coords[agg.ids]).max(initial=0.0)
                           for agg in clusters.flat_aggregates])
        d = cluster_diameter(graph.coords, clusters)
        assert np.array_equal(d.view(np.int64), oracle.view(np.int64))


class TestDualNorm:
    def test_zero(self):
        g = WeightedGraph.build(2, [(0, 1, 4.0)])
        assert dual_norm_f(np.zeros(2), g) == 0.0

    def test_single_vertex_value(self):
        g = WeightedGraph.build(2, [(0, 1, 4.0)])
        # d_0 = 4, f_0 = 2 -> sqrt(4/4) = 1
        assert dual_norm_f(np.array([2.0, 0.0]), g) == pytest.approx(1.0)

    def test_path_uniform_matches_direct_summation(self):
        g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        f = np.ones(3)
        oracle = np.sqrt(sum(f[i] ** 2 / d for i, d in enumerate([1.0, 2.0, 1.0])))
        assert dual_norm_f(f, g) == pytest.approx(oracle)
        assert oracle == pytest.approx(np.sqrt(2.5))


@pytest.fixture(scope="module")
def solved_run():
    prob = build_problem({"family": "fem", "nx": "16", "ny": "16",
                          "contrast": "1e4", "holes": "0.3,0.3,0.1"})
    part = partition_balanced(prob.graph, 4, seed=0)
    part_os = oversample(prob.graph, part, 0.3)
    clusters = cluster_partition(prob.graph, part, 4, seed=0)
    P = build_prolongation("mc-glo", prob, clusters, part_os)
    model = galerkin_coarse(prob.operator, prob.rhs, P)
    _, u_ms = solve_steady(model)
    u = solve_fine(prob.operator, prob.rhs)
    return prob, part_os, clusters, P, u, u_ms


class TestVerifyBound:
    def test_exact_reproduction_gives_zero_constant(self, solved_run):
        prob, part_os, clusters, P, u, _ = solved_run
        rep = verify_bound(prob.graph, clusters, P, prob.operator, prob.rhs, u, u,
                           partition=part_os)
        assert rep.fitted_constant == 0.0
        assert rep.energy_error == 0.0

    def test_report_fields_consistent(self, solved_run):
        prob, part_os, clusters, P, u, u_ms = solved_run
        rep = verify_bound(prob.graph, clusters, P, prob.operator, prob.rhs,
                           u, u_ms, partition=part_os)
        assert rep.h_max == rep.diameters.max()
        assert rep.contrast_max == rep.weight_contrast.max()
        assert rep.fitted_constant >= 0
        regions = [set(region.ids.tolist()) for region in part_os.oversampled]
        covering = [sum(v in region for region in regions)
                    for v in range(prob.graph.n_vertices)]
        assert rep.overlap_multiplicity == max(covering) > 1
        assert rep.orthogonality_residual <= 1e-9 * np.abs(prob.rhs).max()

    def test_theorem_constant_below_lemma_constant(self, solved_run):
        # Cauchy-Schwarz with Galerkin orthogonality gives
        # fitted_constant <= fitted_constant_d exactly
        prob, part_os, clusters, P, u, u_ms = solved_run
        rep = verify_bound(prob.graph, clusters, P, prob.operator, prob.rhs,
                           u, u_ms, partition=part_os)
        assert rep.fitted_constant <= rep.fitted_constant_d * (1 + 1e-9)

    def test_fitted_constant_bounded_under_refinement(self):
        prob = build_problem({"family": "fem", "nx": "24", "ny": "24",
                              "contrast": "1"})
        u = solve_fine(prob.operator, prob.rhs)
        consts = []
        for N in (4, 16):
            part = partition_balanced(prob.graph, N, seed=0)
            clusters = cluster_partition(prob.graph, part, 4, seed=0)
            P = build_prolongation("cf-glo", prob, clusters, part)
            model = galerkin_coarse(prob.operator, prob.rhs, P)
            _, u_ms = solve_steady(model)
            rep = verify_bound(prob.graph, clusters, P, prob.operator, prob.rhs,
                               u, u_ms)
            consts.append(rep.fitted_constant)
        assert max(consts) / min(consts) <= 10.0

    def test_mean_diameter_shrinks_with_more_aggregates(self):
        # the max-diameter variant is not monotone for k-means aggregates;
        # the mean is, and is what refinement arguments need on average
        prob = build_problem({"family": "fem", "nx": "20", "ny": "20",
                              "contrast": "1"})
        part = partition_balanced(prob.graph, 4, seed=0)
        means = []
        for M in (1, 2, 4, 8):
            clusters = cluster_partition(prob.graph, part, M, seed=0)
            means.append(cluster_diameter(prob.graph.coords, clusters).mean())
        assert all(means[i + 1] <= means[i] + 1e-12 for i in range(len(means) - 1))

    def test_csv_export(self, solved_run, tmp_path):
        prob, part_os, clusters, P, u, u_ms = solved_run
        rep = verify_bound(prob.graph, clusters, P, prob.operator, prob.rhs,
                           u, u_ms, partition=part_os)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("subdomain,aggregate,diameter")
        assert len(lines) == clusters.n_coarse + 2  # header + rows + summary
        assert lines[-1].startswith("summary")
