import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoarsen import IndexSet, RepairWarning, WeightedGraph
from graphcoarsen.clustering import (ClusterSet, SpectralEmbedding, _kmeans,
                                     _local_laplacians, _normalize_rows, cluster_partition,
                                     generalized_eigs, kmeans_embed,
                                     local_signed_laplacian, select_centroids)
from graphcoarsen.experiments import build_problem
from graphcoarsen.partition import Partition, partition_balanced
from graphcoarsen.problems import TensorField, box_boundary_vertices, gen_fem_grid, lattice_graph
from graphcoarsen.graph import eliminate_dirichlet, subgraph
from oracles import serial_cluster_partition, serial_kmeans, serial_kmeans_pp, sum_in_order

# the five perforations of the acceptance suite
HOLES = "0.2,0.2,0.06;0.8,0.2,0.06;0.3,0.75,0.06;0.7,0.8,0.06;0.15,0.55,0.05"


def whole(n):
    """Every vertex of an n-vertex graph, in order."""
    return IndexSet(np.arange(n), n)


def loop_kmeans(emb, m, seed=0, max_iter=300, rtol=1e-8):
    """Oracle: k-means whose centers are per-cluster member means, with the
    squared distances summed one embedding dimension after another."""
    X = _normalize_rows(np.asarray(emb.vectors, dtype=np.float64))
    n = X.shape[0]
    if m == 1:
        return [np.arange(n, dtype=np.int64)]
    if m >= n:
        return [np.array([i], dtype=np.int64) for i in range(n)]
    centers = serial_kmeans_pp(X, m, np.random.default_rng(seed))
    prev_inertia = np.inf
    for _ in range(max_iter):
        d2 = sum_in_order((X[:, None, :] - centers[None, :, :]) ** 2)
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
            d2 = sum_in_order((X[:, None, :] - centers[None, :, :]) ** 2)
        inertia = float(d2[np.arange(n), labels].sum())
        for c in range(m):
            members = labels == c
            if np.any(members):
                centers[c] = X[members].mean(axis=0)
        if abs(prev_inertia - inertia) < rtol * max(inertia, 1e-300):
            break
        prev_inertia = inertia
    groups = [np.flatnonzero(labels == c).astype(np.int64) for c in range(m)]
    groups.sort(key=lambda g: int(g[0]))
    return groups


def sparse_scaled_eigs(L, d, m):
    """Oracle: the generalized eigenpairs with ``D^{-1/2} L D^{-1/2}`` formed
    by two sparse ``multiply`` calls."""
    s = 1.0 / np.sqrt(d)
    M = (L.multiply(s[:, None]).multiply(s[None, :])).toarray()
    vals, vecs = scipy.linalg.eigh(0.5 * (M + M.T))
    return vals[:m], s[:, None] * vecs[:, :m]


def assert_same_csr(A, B):
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, attr), getattr(B, attr))


class TestLocalLaplacian:
    def test_single_vertex_floored_degree(self):
        g = WeightedGraph.build(3, [(1, 2, 1.0)])
        with pytest.warns(RepairWarning):
            L, d = local_signed_laplacian(g, IndexSet(np.array([0]), 3))
        assert L.toarray() == np.zeros((1, 1))
        assert d[0] > 0

    def test_subnormal_degree_floor_stays_positive(self):
        g = WeightedGraph.build(3, [(0, 1, 2.2250738585e-313)])
        with pytest.warns(RepairWarning):
            _, d = local_signed_laplacian(g, whole(3))
        assert d[0] == d[1] == 2.2250738585e-313 and d[2] > 0

    def test_interior_edge(self):
        g = WeightedGraph.build(4, [(0, 1, 2.0), (1, 2, 1.0)])
        L, d = local_signed_laplacian(g, IndexSet(np.array([0, 1]), 4))
        assert np.array_equal(L.toarray(), [[2, -2], [-2, 2]])
        assert np.array_equal(d, [2.0, 2.0])  # only local edges count

    def test_signed_edge_eigenvalues(self):
        g = WeightedGraph.build(2, [(0, 1, -1.0)])
        L, d = local_signed_laplacian(g, whole(2))
        assert np.array_equal(L.toarray(), [[1, 1], [1, 1]])
        emb = generalized_eigs(L, d, 2)
        assert np.allclose(emb.eigenvalues, [0.0, 2.0], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        n = data.draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        weights = data.draw(st.lists(
            st.sampled_from([0.0]) | st.floats(-10.0, 10.0),
            min_size=len(picked), max_size=len(picked)))
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        g = WeightedGraph.build(n, [(i, j, w) for (i, j), w in zip(picked, weights)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            L, d = local_signed_laplacian(g, IndexSet(np.array(subset), n))
        pos = {v: k for k, v in enumerate(subset)}
        dense = np.zeros((len(subset), len(subset)))
        for (i, j), w in zip(picked, weights):
            if i in pos and j in pos:
                a, b = pos[i], pos[j]
                dense[a, a] += abs(w)
                dense[b, b] += abs(w)
                dense[a, b] -= w
                dense[b, a] -= w
        np.testing.assert_allclose(L.toarray(), dense, rtol=1e-13, atol=0)
        deg = np.diag(dense)
        np.testing.assert_allclose(d[deg > 0], deg[deg > 0], rtol=1e-13, atol=0)
        assert np.all(d > 0)


    def _check_one_pass(self, g, part):
        with warnings.catch_warnings(record=True) as fast_warns:
            warnings.simplefilter("always", RepairWarning)
            L, d = _local_laplacians(g, part)
        with warnings.catch_warnings(record=True) as slow_warns:
            warnings.simplefilter("always", RepairWarning)
            slow = [local_signed_laplacian(g, omega) for omega in part.subdomains]
        # block k of the block diagonal, in partition order, is subdomain k's
        # local Laplacian, and nothing lies outside the blocks
        off = part.offsets
        for k, (L_ref, d_ref) in enumerate(slow):
            assert_same_csr(L[off[k]:off[k + 1], off[k]:off[k + 1]], L_ref)
            assert np.array_equal(d[off[k]:off[k + 1]], d_ref)
        assert L.nnz == sum(L_ref.nnz for L_ref, _ in slow)
        assert len(fast_warns) == len(slow_warns)
        return len(fast_warns)

    def test_one_pass_matches_per_subdomain_on_fem(self, channel_problem):
        g = channel_problem.graph
        for n_sub in (1, 4, 9):
            self._check_one_pass(g, partition_balanced(g, n_sub, seed=0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 24), density=st.floats(0.1, 1.0), n_sub=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_one_pass_matches_per_subdomain_on_random_graphs(self, n, density, n_sub, seed):
        # uniform weights, so a degree summed in another order shows in the
        # last bits; about one edge in ten is an explicit zero
        rng = np.random.default_rng(seed)
        i, j = np.triu_indices(n, 1)
        keep = rng.random(i.size) < density
        w = rng.uniform(-10.0, 10.0, i.size) * (rng.random(i.size) > 0.1)
        g = WeightedGraph(n, np.column_stack([i[keep], j[keep]]), w[keep])
        n_sub = min(n_sub, n)
        part = Partition(n, n_sub, rng.permutation(n) % n_sub, balance_tol=float(n))
        self._check_one_pass(g, part)

    def test_one_pass_isolated_vertex_and_zero_edge(self):
        # subdomain 0 = {0, 2, 4, 5}: 4 is isolated inside it, and 0-2 is an
        # explicit zero-weight interior edge; subdomain 1 = {1, 3, 6, 7}
        edges = [(0, 1, 1.0), (0, 2, 0.0), (1, 3, -2.0), (2, 3, 1.5), (2, 5, 3.0),
                 (3, 4, 1.0), (4, 6, 2.0), (5, 7, 1.0), (6, 7, 0.5)]
        g = WeightedGraph.build(8, edges)
        part = Partition(8, 2, np.array([0, 1, 0, 1, 0, 0, 1, 1]))
        assert self._check_one_pass(g, part) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            L, d = _local_laplacians(g, part)
        L, d = L[:4, :4], d[:4]
        assert 0.0 in L.data  # the zero edge is stored, as in the submatrix
        # local ids 0, 1, 2, 3 are 0, 2, 4, 5: 0 has only the zero edge and
        # 4 no interior edge, so both are floored
        assert d[1] == d[3] == 3.0 and 0 < d[0] == d[2] < 3.0


class TestGeneralizedEigs:
    def test_connected_positive_lowest_pair(self):
        g = lattice_graph(3, 3)
        L, d = local_signed_laplacian(g, whole(9))
        emb = generalized_eigs(L, d, 3)
        assert abs(emb.eigenvalues[0]) <= 1e-10
        v = emb.vectors[:, 0]
        assert np.allclose(v, v[0], atol=1e-10 * max(1, abs(v[0])))

    def test_two_components_double_zero(self):
        g = WeightedGraph.build(4, [(0, 1, 1.0), (2, 3, 1.0)])
        L, d = local_signed_laplacian(g, whole(4))
        emb = generalized_eigs(L, d, 3)
        assert np.allclose(emb.eigenvalues[:2], 0.0, atol=1e-12)
        assert emb.eigenvalues[2] > 0.1

    def test_path_spectrum(self):
        g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        L, d = local_signed_laplacian(g, whole(3))
        assert np.array_equal(d, [1.0, 2.0, 1.0])
        emb = generalized_eigs(L, d, 3)
        assert np.allclose(emb.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    def test_residuals_small(self):
        g = lattice_graph(5, 4, weight=3.0)
        L, d = local_signed_laplacian(g, whole(20))
        emb = generalized_eigs(L, d, 6)
        for r in range(6):
            res = L @ emb.vectors[:, r] - emb.eigenvalues[r] * d * emb.vectors[:, r]
            assert np.abs(res).max() <= 1e-8 * np.abs(L.toarray()).sum(axis=1).max()

    @pytest.mark.parametrize("weights", [(3.0, 0.7), (1e4, -1.0), (0.0, 2.0)])
    def test_dense_scaling_matches_sparse_multiply(self, weights):
        g = lattice_graph(6, 5, weight=weights[0])
        edges = [(i, j, weights[1] if (i + j) % 3 == 0 else w)
                 for (i, j), w in zip(g.edge_index.tolist(), g.edge_weight)]
        g = WeightedGraph.build(g.n_vertices, edges)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            L, d = local_signed_laplacian(g, whole(g.n_vertices))
        emb = generalized_eigs(L, d, 7)
        vals, phi = sparse_scaled_eigs(L, d, 7)
        assert np.array_equal(emb.eigenvalues, vals)
        assert np.array_equal(emb.vectors, phi)

    def test_too_many_modes_rejected(self):
        g = WeightedGraph.build(2, [(0, 1, 1.0)])
        L, d = local_signed_laplacian(g, whole(2))
        with pytest.raises(ValueError, match="m"):
            generalized_eigs(L, d, 3)


class TestKMeans:
    def test_single_cluster(self):
        emb = SpectralEmbedding(np.array([0.0]), np.ones((5, 1)))
        groups = kmeans_embed(emb, 1, seed=0)
        assert len(groups) == 1 and np.array_equal(groups[0], np.arange(5))

    def test_all_singletons(self):
        emb = SpectralEmbedding(np.array([0.0, 1.0]),
                                np.random.default_rng(0).standard_normal((4, 2)))
        groups = kmeans_embed(emb, 4, seed=0)
        assert sorted(int(g[0]) for g in groups) == [0, 1, 2, 3]

    def test_two_components_separate_exactly(self):
        # two positive-weight triangles: the two zero eigenvectors are
        # component indicators, so clustering must return the components
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
        g = WeightedGraph.build(6, edges)
        L, d = local_signed_laplacian(g, whole(6))
        emb = generalized_eigs(L, d, 2)
        groups = kmeans_embed(emb, 2, seed=0)
        sets = sorted(tuple(sorted(gr.tolist())) for gr in groups)
        assert sets == [(0, 1, 2), (3, 4, 5)]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        emb = SpectralEmbedding(np.zeros(3), rng.standard_normal((30, 3)))
        a = kmeans_embed(emb, 4, seed=11)
        b = kmeans_embed(emb, 4, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 60), dim=st.integers(2, 8), m=st.integers(2, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_array_centers_match_member_means(self, n, dim, m, seed):
        X = np.random.default_rng(seed).standard_normal((n, dim))
        emb = SpectralEmbedding(np.zeros(dim), X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            got = kmeans_embed(emb, m, seed=seed)
            want = loop_kmeans(emb, m, seed=seed)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_duplicate_rows_through_empty_cluster_repair(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])
        X = rows[np.random.default_rng(7).integers(0, 3, 40)]
        emb = SpectralEmbedding(np.zeros(3), X)
        with pytest.warns(RepairWarning, match="empty cluster"):
            got = kmeans_embed(emb, 5, seed=2)
        want = loop_kmeans(emb, 5, seed=2)
        assert len(got) == 5
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_empty_cluster_repair_inside_lockstep(self):
        # the duplicate-row embedding above, run in lockstep between three
        # ordinary ones: each gives the groups it gives alone, and each
        # repair still warns once
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])
        dup = rows[np.random.default_rng(7).integers(0, 3, 40)]
        embs = [SpectralEmbedding(np.zeros(3), X) for X in
                (np.random.default_rng(1).standard_normal((40, 3)), dup,
                 np.random.default_rng(2).standard_normal((40, 3)),
                 np.random.default_rng(3).standard_normal((40, 3)))]
        seeds = (5, 2, 9, 11)
        X = np.stack([_normalize_rows(emb.vectors) for emb in embs])
        with warnings.catch_warnings(record=True) as together:
            warnings.simplefilter("always", RepairWarning)
            labels = _kmeans(X, 5, [np.random.default_rng(s) for s in seeds])
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always", RepairWarning)
            for emb, s in zip(embs, seeds):
                kmeans_embed(emb, 5, seed=s)
        assert len(together) == len(alone) >= 1
        assert all("empty cluster" in str(w.message) for w in together)
        for emb, s, lab in zip(embs, seeds, labels):
            groups = sorted((np.flatnonzero(lab == c) for c in range(5)), key=lambda g: g[0])
            want = loop_kmeans(emb, 5, seed=s)
            assert len(want) == 5
            assert all(np.array_equal(a, b) for a, b in zip(groups, want))

    def test_labels_do_not_depend_on_the_memory_layout(self):
        # subdomain 3 of the acceptance channel at 24^2, N = 4, seed 0, left
        # disconnected by the partition (a double zero eigenvalue): the former
        # k-means summed its squared distances pairwise on a C-ordered
        # embedding and one dimension after another on the F-ordered one that
        # eigh returns, and here that moved aggregates
        prob = build_problem({"family": "fem", "nx": "24", "ny": "24",
                              "contrast": "1e4", "holes": HOLES})
        part = partition_balanced(prob.graph, 4, seed=0)
        omega = part.subdomain(3)
        emb = generalized_eigs(*local_signed_laplacian(prob.graph, omega), 8)
        F, C = np.asfortranarray(emb.vectors), np.ascontiguousarray(emb.vectors)
        seed = np.random.default_rng([0, 3]).integers(2 ** 63)
        by_layout = lambda S: S.sum(axis=-1)  # noqa: E731
        former_f = serial_kmeans(F, 8, seed, by_layout)
        former_c = serial_kmeans(C, 8, seed, by_layout)
        assert any(not np.array_equal(a, b) for a, b in zip(former_f, former_c))

        pipeline = cluster_partition(prob.graph, part, 8, seed=0).aggregates[3]
        for V in (F, C):
            got = kmeans_embed(SpectralEmbedding(emb.eigenvalues, V), 8, seed=seed)
            assert [omega.ids[g].tolist() for g in got] == [a.ids.tolist() for a in pipeline]
            assert all(np.array_equal(a, b) for a, b in zip(got, former_f))


class TestCentroids:
    def test_singleton(self):
        coords = np.array([[0.0, 0.0], [5.0, 5.0]])
        out = select_centroids([IndexSet(np.array([1]), 2)], coords)
        assert out == [1]

    def test_collinear_middle(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        out = select_centroids([whole(3)], coords)
        assert out == [1]

    def test_l_shape_corner(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = select_centroids([whole(3)], coords)
        assert out == [0]  # nearest to the mean (1/3, 1/3)

    def test_medoid_fallback_without_coords(self):
        rows = [np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.1]])]
        with pytest.warns(RepairWarning, match="medoid"):
            out = select_centroids([whole(3)], None, embedding_rows=rows)
        assert out == [2]  # closest to the embedding mean


class TestClusterPartition:
    def _problem(self, nx=12, contrast=1e4):
        from graphcoarsen.problems import channel_field

        g, A, f = gen_fem_grid(nx, nx, channel_field(1.0, contrast))
        diri = [(int(v), 0.0) for v in box_boundary_vertices(g.coords)]
        _, _, red = eliminate_dirichlet(A, f, diri)
        gi, _ = subgraph(g, red.free.ids)
        return gi

    def test_aggregates_partition_each_subdomain(self):
        g = self._problem()
        part = partition_balanced(g, 4, seed=0)
        clusters = cluster_partition(g, part, 3, seed=0)
        for k in range(4):
            members = np.concatenate([a.ids for a in clusters.aggregates[k]])
            assert np.array_equal(np.sort(members), part.subdomain(k).ids)

    def test_centroids_inside_and_unique(self):
        g = self._problem()
        part = partition_balanced(g, 4, seed=0)
        clusters = cluster_partition(g, part, 3, seed=0)
        seen = set()
        for k in range(4):
            for r, agg in enumerate(clusters.aggregates[k]):
                c = clusters.centroids[k][r]
                assert np.isin(c, agg.ids)
                assert c not in seen
                seen.add(c)

    def test_internal_order_invariance(self):
        g = self._problem(nx=8)
        part = partition_balanced(g, 2, seed=0)
        clusters1 = cluster_partition(g, part, 2, seed=0)
        # same cover, permuted assignment labels: aggregates as vertex sets
        # are unchanged because subdomain ids are canonicalized by sorting
        remap = np.array([1, 0])
        part2 = Partition(g.n_vertices, 2, remap[part.assignment])
        clusters2 = cluster_partition(g, part2, 2, seed=0)
        sets1 = {tuple(a.ids.tolist()) for row in clusters1.aggregates for a in row}
        sets2 = {tuple(a.ids.tolist()) for row in clusters2.aggregates for a in row}
        assert sets1 == sets2

    def test_m_clamped_to_subdomain_size(self):
        g = lattice_graph(3, 3)
        part = partition_balanced(g, 3, seed=0)
        clusters = cluster_partition(g, part, 10, seed=0)
        assert clusters.n_coarse == 9  # every vertex its own aggregate

    def test_channel_clusters_have_low_internal_contrast(self):
        from graphcoarsen.analysis import cluster_contrast

        g = self._problem(nx=16, contrast=1e4)
        part = partition_balanced(g, 4, seed=0)
        clusters = cluster_partition(g, part, 8, seed=0)
        w_ratio, _ = cluster_contrast(g, clusters)
        global_ratio = np.abs(g.edge_weight).max() / np.abs(g.edge_weight).min()
        assert global_ratio >= 1e4
        assert w_ratio.max() <= global_ratio / 100

    def test_anisotropic_aggregates_elongate_along_strong_axis(self):
        field = TensorField.rotated(1.0, 1e-4, np.pi / 3)
        g, A, f = gen_fem_grid(24, 24, field)
        diri = [(int(v), 0.0) for v in box_boundary_vertices(g.coords)]
        _, _, red = eliminate_dirichlet(A, f, diri)
        gi, _ = subgraph(g, red.free.ids)
        part = partition_balanced(gi, 4, seed=0)
        clusters = cluster_partition(gi, part, 8, seed=0)
        b = field.strong_direction
        b_perp = np.array([-b[1], b[0]])
        along, across = [], []
        for agg in clusters.flat_aggregates:
            if len(agg) < 2:
                continue
            pts = gi.coords[agg.ids]
            along.append(np.ptp(pts @ b))
            across.append(np.ptp(pts @ b_perp))
        assert np.mean(along) > np.mean(across)

    @pytest.mark.parametrize("case", ["channel-40", "pore-coordinate-free",
                                      "pore-isolated-vertex", "clamped", "m-1", "unequal"])
    def test_matches_serial_loop(self, case):
        m, seed = 8, 0
        if case == "channel-40":
            g = build_problem({"family": "fem", "nx": "40", "ny": "40",
                               "contrast": "1e4", "holes": HOLES}).graph
            part = partition_balanced(g, 16, seed=0)
        elif case.startswith("pore"):
            # coordinate-free pore 12^2 lattices, N = 9: disconnected
            # subdomains with a double zero eigenvalue, one with an isolated
            # vertex, all clustered around the embedding medoid
            g, m = self._bare_pore(), 4
            seed = 2 if case == "pore-isolated-vertex" else 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RepairWarning)
                part = partition_balanced(g, 9, seed=seed)
                L, d = _local_laplacians(g, part)
                emb = generalized_eigs(L[32:48, 32:48], d[32:48], 4)  # subdomain 2
            assert np.abs(emb.eigenvalues[:2]).max() < 1e-10
        elif case == "clamped":
            g, m = lattice_graph(6, 6), 10  # four subdomains of 9 vertices
            part = partition_balanced(g, 4, seed=0)
        elif case == "m-1":
            g, m = self._problem(nx=16), 1
            part = partition_balanced(g, 4, seed=0)
        else:
            g, m, seed = self._problem(nx=16), 5, 3
            sizes = [4, 5, 30, 31, 31, 60, 7, 57]  # 225 vertices; 4 and 5 clamp
            a = np.repeat(np.arange(len(sizes)), sizes)
            part = Partition(g.n_vertices, len(sizes), np.random.default_rng(0).permutation(a),
                             balance_tol=float(g.n_vertices))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            got = cluster_partition(g, part, m, seed=seed)
            want = serial_cluster_partition(g, part, m, seed=seed)
        assert np.array_equal(got.column_of, want.column_of)
        assert got.columns == want.columns
        assert all(np.array_equal(a.ids, b.ids) and a.ids.dtype == b.ids.dtype
                   for a, b in zip(got.flat_aggregates, want.flat_aggregates))
        assert got.centroids == want.centroids
        if case == "clamped":
            assert got.n_coarse == g.n_vertices
        if case == "m-1":
            assert got.n_coarse == part.n_subdomains

    @staticmethod
    def _bare_pore():
        g = build_problem({"family": "pore", "nx": "12", "ny": "12",
                           "network_seed": "0"}).graph
        return WeightedGraph(g.n_vertices, g.edge_index, g.edge_weight)

    def test_one_medoid_warning_per_clustering(self):
        g = self._bare_pore()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            part = partition_balanced(g, 9, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RepairWarning)
            cluster_partition(g, part, 4, seed=0)
        medoid = [str(w.message) for w in caught if "medoid" in str(w.message)]
        assert medoid == ["no coordinates; 9 subdomains fall back to the embedding medoid"]


class TestClusterSetValidation:
    def test_overlapping_aggregates_rejected(self):
        a = IndexSet(np.array([0, 1]), 3)
        b = IndexSet(np.array([1, 2]), 3)
        with pytest.raises(ValueError, match="overlap"):
            ClusterSet(3, ((a, b),), ((0, 2),))

    def test_centroid_outside_rejected(self):
        a = IndexSet(np.array([0, 1]), 3)
        with pytest.raises(ValueError, match="outside"):
            ClusterSet(3, ((a,),), ((2,),))

    def test_column_order_lexicographic(self):
        a = IndexSet(np.array([0]), 4)
        b = IndexSet(np.array([1]), 4)
        c = IndexSet(np.array([2, 3]), 4)
        cs = ClusterSet(4, ((a, b), (c,)), ((0, 1), (2,)))
        assert cs.columns == ((0, 0), (0, 1), (1, 0))
