import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoarsen import (IndexSet, InfeasibleConstraintError, RepairWarning, WeightedGraph,
                          apply_boundary, assemble_signed_laplacian,
                          interpolation, oversample, partition_balanced)
from graphcoarsen import _solvers, graph
from graphcoarsen.clustering import ClusterSet, cluster_partition
from graphcoarsen.coarsesolve import (TransientConfig, errors, galerkin_coarse, solve_fine,
                                      solve_parabolic, solve_steady)
from graphcoarsen.interpolation import (build_constraints, cf_ideal_global, cf_ideal_local,
                                        cf_split, constraint_violation, mc_global, mc_local,
                                        region_constraints)
from graphcoarsen.partition import Partition
from graphcoarsen.exceptions import SingularSystemError
from graphcoarsen.experiments import build_problem
from conftest import CHANNEL_HOLES
from oracles import (centroid_clusters, cf_local_operator_by_outer_residual, constraint_layout,
                     coo_assemble, kkt_solve, mc_local_by_indexing, stepped_states)


def single_cluster_set(n, centroid=0):
    return ClusterSet(n, ((IndexSet(np.arange(n), n),),), ((centroid,),))


@st.composite
def random_cluster_sets(draw):
    """Disjoint aggregates over up to 12 vertices, some vertices uncovered,
    spread over up to three subdomains (possibly without aggregates)."""
    n = draw(st.integers(1, 12))
    slot = draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n))
    n_sub = draw(st.integers(1, 3))
    aggs = [[] for _ in range(n_sub)]
    cents = [[] for _ in range(n_sub)]
    for s in sorted(set(slot) - {-1}):
        members = np.flatnonzero(np.array(slot) == s)
        aggs[s % n_sub].append(IndexSet(members, n))
        cents[s % n_sub].append(int(members[-1]))
    return ClusterSet(n, tuple(map(tuple, aggs)), tuple(map(tuple, cents)))


@st.composite
def random_spd_systems(draw):
    """Connected weighted Laplacian plus a positive diagonal shift over a
    random cluster set with at least one aggregate."""
    clusters = draw(random_cluster_sets().filter(lambda c: c.n_coarse > 0))
    n = clusters.n_vertices
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    edges = sorted({(min(i, j), max(i, j)) for i, j in tree + extra if i != j})
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(edges),
                            max_size=len(edges)))
    shift = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    g = WeightedGraph.build(n, [(i, j, w) for (i, j), w in zip(edges, weights)])
    return (assemble_signed_laplacian(g) + sp.diags(shift)).tocsr(), clusters


@pytest.fixture
def spd_path():
    """3-vertex path with Robin ends: the smallest SPD example."""
    g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)],
                            robin=[(0, 1.0, 0.0), (2, 1.0, 0.0)])
    A, f = apply_boundary(assemble_signed_laplacian(g), g)
    return g, A, f


@pytest.fixture(scope="module")
def channel_setup(request):
    """Shared mid-size SPD problem with clusters and oversampled partition."""
    prob = build_problem({"family": "fem", "nx": "12", "ny": "12",
                          "contrast": "1e4", "holes": "0.3,0.3,0.1"})
    part = partition_balanced(prob.graph, 4, seed=0)
    clusters = cluster_partition(prob.graph, part, 3, seed=0)
    return prob, part, clusters


class TestCfSplit:
    def test_no_clusters(self):
        C, F = cf_split(ClusterSet(4, (), ()), 4)
        assert len(C) == 0 and len(F) == 4

    def test_all_singletons(self):
        aggs = tuple((IndexSet(np.array([i]), 3),) for i in range(3))
        cents = tuple((i,) for i in range(3))
        C, F = cf_split(ClusterSet(3, aggs, cents), 3)
        assert len(C) == 3 and len(F) == 0

    def test_counts(self):
        ids = np.arange(9)
        aggs = ((IndexSet(ids[:3], 9), IndexSet(ids[3:6], 9), IndexSet(ids[6:], 9)),)
        cents = ((0, 4, 8),)
        C, F = cf_split(ClusterSet(9, aggs, cents), 9)
        assert len(C) == 3 and len(F) == 6
        assert set(C.ids) == {0, 4, 8}


class TestCfGlobal:
    def test_empty_fine_set_gives_identity(self):
        A = sp.identity(3, format="csr") * 2.0
        aggs = tuple((IndexSet(np.array([i]), 3),) for i in range(3))
        clusters = ClusterSet(3, aggs, tuple((i,) for i in range(3)))
        P = cf_ideal_global(A, clusters)
        assert np.array_equal(P.matrix.toarray(), np.eye(3))

    def test_path_harmonic_weights(self, spd_path):
        _, A, _ = spd_path
        P = cf_ideal_global(A, centroid_clusters(3, [1]))
        # oracle: 2x2 fine block solve, W = -A_FF^{-1} A_FC
        Ad = A.toarray()
        W = -np.linalg.solve(Ad[np.ix_([0, 2], [0, 2])], Ad[np.ix_([0, 2], [1])])
        assert np.allclose(W.ravel(), [0.5, 0.5])
        assert np.allclose(P.matrix.toarray().ravel(), [0.5, 1.0, 0.5], atol=1e-14)

    def test_every_fine_row_interpolated(self):
        # C = {1, 3} on a 5-vertex path: the F set is its complement, so the
        # end vertex 4 takes the harmonic extension from vertex 3 too
        g = WeightedGraph.build(5, [(i, i + 1, 1.0) for i in range(4)],
                                robin=[(0, 1.0, 0.0), (4, 1.0, 0.0)])
        A, _ = apply_boundary(assemble_signed_laplacian(g), g)
        P = cf_ideal_global(A, centroid_clusters(5, [1, 3])).matrix.toarray()
        Ad, F = A.toarray(), [0, 2, 4]
        W = -np.linalg.solve(Ad[np.ix_(F, F)], Ad[np.ix_(F, [1, 3])])
        assert np.array_equal(P[[1, 3]], np.eye(2))
        assert np.allclose(P[F], W, rtol=0, atol=1e-15)
        assert P[4, 1] == pytest.approx(0.5, rel=1e-15)

    def test_galerkin_equals_schur_complement(self, channel_setup):
        prob, part, clusters = channel_setup
        A = prob.operator
        C, F = cf_split(clusters, prob.graph.n_vertices)
        P = cf_ideal_global(A, clusters)
        A_c = (P.matrix.T @ A @ P.matrix).toarray()
        Ad = A.toarray()
        S = Ad[np.ix_(C.ids, C.ids)] - Ad[np.ix_(C.ids, F.ids)] @ np.linalg.solve(
            Ad[np.ix_(F.ids, F.ids)], Ad[np.ix_(F.ids, C.ids)])
        assert np.linalg.norm(A_c - S) <= 1e-10 * np.linalg.norm(S)

    def test_singular_fine_block_reported(self):
        A = sp.csr_matrix((3, 3))
        with pytest.raises(SingularSystemError):
            cf_ideal_global(A, centroid_clusters(3, [0]))


class TestCfLocal:
    def test_full_cover_matches_global(self, channel_setup):
        prob, part, clusters = channel_setup
        A = prob.operator
        Pg = cf_ideal_global(A, clusters)
        part_full = oversample(prob.graph, part, 10.0)
        Pl = cf_ideal_local(A, clusters, part_full)
        diff = spla.norm(Pl.matrix - Pg.matrix)
        assert diff <= 1e-10 * spla.norm(Pg.matrix)

    def test_star_diagonal_fine_block_closed_form(self):
        # spokes with Robin-loaded leaves: the local fine block is diagonal
        # and each leaf weight is w_i / (w_i + alpha_i)
        w = np.array([2.0, 3.0, 5.0])
        alpha = np.array([1.0, 2.0, 3.0])
        g = WeightedGraph.build(
            4, [(0, i + 1, w[i]) for i in range(3)],
            coords=np.array([[0, 0], [1, 0], [0, 1], [-1, 0]], dtype=float),
            robin=[(i + 1, alpha[i], 0.0) for i in range(3)])
        A, _ = apply_boundary(assemble_signed_laplacian(g), g)
        clusters = single_cluster_set(4, centroid=0)
        part = Partition(4, 1, np.zeros(4, dtype=np.int64))
        part = oversample(g, part, 0.0)  # zero radius: region = subdomain = all
        P = cf_ideal_local(A, clusters, part)
        expected = np.concatenate([[1.0], w / (w + alpha)])
        assert np.allclose(P.matrix.toarray().ravel(), expected, atol=1e-14)

    def test_centroid_rows_are_unit(self, channel_setup):
        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.2)
        P = cf_ideal_local(prob.operator, clusters, part_os)
        M = P.matrix.tocsr()
        for c, info in enumerate(P.columns):
            row = M[info.centroid].toarray().ravel()
            assert row[c] == 1.0
            assert np.count_nonzero(row) == 1

    def test_column_support_inside_region(self, channel_setup):
        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.2)
        P = cf_ideal_local(prob.operator, clusters, part_os).matrix.tocsc()
        for c, (k, r) in enumerate(clusters.columns):
            rows = P.indices[P.indptr[c]:P.indptr[c + 1]]
            assert np.all(np.isin(rows, part_os.oversampled[k].ids))

    def test_centroid_outside_region_rejected(self):
        # cluster subdomains swapped against the partition's
        g = WeightedGraph.build(4, [(i, i + 1, 1.0) for i in range(3)],
                                robin=[(0, 1.0, 0.0)])
        A, _ = apply_boundary(assemble_signed_laplacian(g), g)
        clusters = ClusterSet(4, ((IndexSet(np.array([2, 3]), 4),),
                                  (IndexSet(np.array([0, 1]), 4),)), ((2,), (0,)))
        part = oversample(g, Partition(4, 2, np.array([0, 0, 1, 1])), 0)
        with pytest.raises(ValueError, match="subdomain 0: centroid outside"):
            cf_ideal_local(A, clusters, part)


class TestConstraints:
    def test_singleton_row_is_unit_vector(self):
        clusters = ClusterSet(2, ((IndexSet(np.array([1]), 2),),), ((1,),))
        S = build_constraints(clusters).toarray()
        assert np.array_equal(S, [[0.0, 1.0]])

    def test_quarter_weights(self):
        clusters = single_cluster_set(4)
        S = build_constraints(clusters).toarray()
        assert np.array_equal(S, 0.25 * np.ones((1, 4)))

    def test_rows_sum_to_one(self, channel_setup):
        prob, part, clusters = channel_setup
        S = build_constraints(clusters)
        assert np.allclose(np.asarray(S.sum(axis=1)).ravel(), 1.0)

    def test_scoped_complete_drops_partial_aggregates(self):
        aggs = ((IndexSet(np.array([0, 1]), 4), IndexSet(np.array([2, 3]), 4)),)
        clusters = ClusterSet(4, aggs, ((0, 2),))
        scope = IndexSet(np.array([0, 1, 2]), 4)
        kept, S = region_constraints(clusters, scope.ids)
        assert tuple(clusters.columns[c] for c in kept) == ((0, 0),)
        assert np.array_equal(S.toarray(), [[0.5, 0.5, 0.0]])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_region_rows_match_dense_definition(self, data):
        clusters = data.draw(random_cluster_sets())
        n = clusters.n_vertices
        order = data.draw(st.permutations(range(n)))
        ids = np.array(order[:data.draw(st.integers(0, n))], dtype=np.int64)
        kept, S = region_constraints(clusters, ids)

        # reference: every aggregate wholly inside the region, in column
        # order, with 1/|aggregate| on each member
        ref_cols, ref_rows = [], []
        for c, agg in enumerate(clusters.flat_aggregates):
            members = set(agg.ids.tolist())
            if members <= set(ids.tolist()):
                ref_cols.append(c)
                ref_rows.append([1.0 / len(agg) if v in members else 0.0 for v in ids])
        assert kept.tolist() == ref_cols
        assert np.array_equal(S.toarray(), np.array(ref_rows).reshape(len(ref_cols), ids.size))


class TestMcGlobal:
    def test_single_aggregate_constant_minimizer(self):
        g = WeightedGraph.build(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
        A = (assemble_signed_laplacian(g) + sp.identity(4)).tocsr()
        P = mc_global(A, single_cluster_set(4))
        assert np.allclose(P.matrix.toarray().ravel(), 1.0, atol=1e-10)

    def test_constraint_identity(self, channel_setup):
        prob, part, clusters = channel_setup
        P = mc_global(prob.operator, clusters)
        assert constraint_violation(P, clusters) <= 1e-13

    def test_energy_minimality_under_feasible_perturbations(self, channel_setup):
        prob, part, clusters = channel_setup
        A = prob.operator
        P = mc_global(A, clusters)
        S = build_constraints(clusters).toarray()
        rng = np.random.default_rng(0)
        psi = P.matrix.toarray()[:, 0]
        base = psi @ (A @ psi)
        # project random directions onto the constraint null space
        for _ in range(5):
            d = rng.standard_normal(len(psi))
            d -= S.T @ np.linalg.solve(S @ S.T, S @ d)
            trial = psi + 0.1 * d
            assert trial @ (A @ trial) >= base - 1e-10


class TestConstrainedElimination:
    """The MC builders' elimination of one pivot member per aggregate gives
    the minimizer of the KKT system, met constraints and stationarity."""

    @staticmethod
    def draw_system(data):
        """A shifted Laplacian restricted to a random vertex subset, with the
        constraint rows of the aggregates left on it: their weight stays
        ``1/|aggregate|``, as for mc-loc's rows after the ring is dropped."""
        A, clusters = data.draw(random_spd_systems())
        n = clusters.n_vertices
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        keep[data.draw(st.integers(0, n - 1))] = True
        S = build_constraints(clusters)[:, keep]
        S = S[np.diff(S.indptr) > 0]
        rows = np.array(data.draw(st.lists(st.integers(0, max(S.shape[0] - 1, 0)),
                                           max_size=S.shape[0], unique=True)),
                        dtype=np.int64)
        return A[keep][:, keep].tocsr(), S, rows

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_kkt_and_is_stationary(self, data):
        A, S, rows = self.draw_system(data)
        owner, weight = constraint_layout(S)
        psi = interpolation._constrained_minimizers(A, owner, weight, rows,
                                                    context="drawn system")
        ref = kkt_solve(A, S, rows)[0]
        scale = max(np.abs(ref).max(initial=0.0), 1e-300)
        assert np.abs(psi - ref).max(initial=0.0) <= 1e-9 * scale

        target = np.zeros((S.shape[0], rows.size))
        target[rows, np.arange(rows.size)] = 1.0
        assert np.abs(S @ psi - target).max(initial=0.0) <= 1e-13 * max(scale, 1.0)

        # A psi = -S^T lam: constant over each constrained aggregate, zero
        # on the unconstrained vertices
        grad = A @ psi
        bound = 1e-10 * np.abs(A).sum(axis=1).max() * scale
        assert np.abs(grad[owner < 0]).max(initial=0.0) <= bound
        for i in range(S.shape[0]):
            members = grad[owner == i]
            assert np.abs(members - members[0]).max(initial=0.0) <= bound

    def test_pivot_is_lowest_member(self, monkeypatch):
        # aggregate {1, 3} of a 4-vertex path: vertex 1 is eliminated, so
        # the reduced operator is Z^T A Z with Z = [e0, e2, e3 - e1]
        g = WeightedGraph.build(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        A = (assemble_signed_laplacian(g) + sp.identity(4)).tocsr()
        factored, real_lu = [], interpolation.RefinedLU

        def recording_lu(M, **kwargs):
            factored.append(M.toarray())
            return real_lu(M, **kwargs)

        monkeypatch.setattr(interpolation, "RefinedLU", recording_lu)
        psi = interpolation._constrained_minimizers(A, np.array([-1, 0, -1, 0]), np.array([0.5]),
                                                    np.array([0]), context="path")
        Z = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(factored[0], Z.T @ A.toarray() @ Z, rtol=0, atol=1e-15)
        assert psi[1, 0] + psi[3, 0] == pytest.approx(2.0, rel=1e-15)

    def test_consecutive_member_differences(self, monkeypatch):
        # aggregates {1, 3, 4, 6} and {2, 5} of a 7-vertex path: the lowest
        # members 1 and 2 are eliminated, and each free member's column of Z
        # is its difference to the member before it, not to the pivot
        g = WeightedGraph.build(7, [(i, i + 1, 1.0 + i) for i in range(6)])
        A = (assemble_signed_laplacian(g) + sp.identity(7)).tocsr()
        factored, real_lu = [], interpolation.RefinedLU

        def recording_lu(M, **kwargs):
            factored.append(M.toarray())
            return real_lu(M, **kwargs)

        monkeypatch.setattr(interpolation, "RefinedLU", recording_lu)
        owner = np.array([-1, 0, 1, 0, 0, 1, 0])
        psi = interpolation._constrained_minimizers(A, owner, np.array([0.25, 0.5]),
                                                    np.array([0, 1]), context="path")
        # columns e0, e3 - e1, e4 - e3, e5 - e2, e6 - e4
        Z = np.zeros((7, 5))
        for j, (i, prev) in enumerate([(0, None), (3, 1), (4, 3), (5, 2), (6, 4)]):
            Z[i, j] = 1.0
            if prev is not None:
                Z[prev, j] = -1.0
        assert len(factored) == 1
        assert np.allclose(factored[0], Z.T @ A.toarray() @ Z, rtol=0, atol=1e-14)
        means = np.array([psi[owner == r].mean(axis=0) for r in (0, 1)])
        assert np.abs(means - np.eye(2)).max() <= 1e-15

    def test_local_systems_take_band_path(self, monkeypatch):
        # with differences to the pivot, 3 of these 16 reduced systems are
        # too wide for the band rule and go to SuperLU
        prob = build_problem({"family": "fem", "nx": "40", "ny": "40", "contrast": "1e4",
                              "holes": CHANNEL_HOLES})
        part = partition_balanced(prob.graph, 16, seed=0)
        clusters = cluster_partition(prob.graph, part, 8, seed=0)
        backends, real_factor = {}, _solvers._sparse_factor

        def recording_factor(A, context):
            backends[context] = real_factor(A, context)
            return backends[context]

        monkeypatch.setattr(_solvers, "_sparse_factor", recording_factor)
        mc_local(prob.operator, clusters, oversample(prob.graph, part, 0.25))
        banded = [isinstance(lu, _solvers._BandedCholesky) for lu in backends.values()]
        assert len(banded) == 16 and all(banded), f"{sum(banded)} of {len(banded)} banded"

    def test_all_pivots_need_no_factorization(self, monkeypatch):
        def no_lu(*args, **kwargs):
            raise AssertionError("no factorization expected")

        monkeypatch.setattr(interpolation, "RefinedLU", no_lu)
        A = sp.diags([3.0, 4.0, 5.0]) - sp.diags([1.0, 1.0], 1) - sp.diags([1.0, 1.0], -1)
        aggs = (tuple(IndexSet(np.array([i]), 3) for i in range(3)),)
        P = mc_global(A.tocsr(), ClusterSet(3, aggs, ((0, 1, 2),)))
        assert np.array_equal(P.matrix.toarray(), np.eye(3))
        assert np.array_equal(P.operator, A.toarray())


class TestConstraintViolation:
    """One product ``S P - I`` serves both scopes: a deviation planted in
    a column shows as its share ``d / |aggregate|`` of the aggregate's mean
    where the column's region constrains that aggregate, and not elsewhere."""

    @staticmethod
    def planted(P, vertex, column, d):
        M = P.matrix.toarray()
        M[vertex, column] += d
        return replace(P, matrix=sp.csr_matrix(M))

    @pytest.mark.parametrize("method", ["mc-glo", "mc-loc"])
    def test_planted_deviation_reported(self, channel_setup, method):
        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.25)
        P = (mc_global(prob.operator, clusters) if method == "mc-glo"
             else mc_local(prob.operator, clusters, part_os))
        k = 1
        column = clusters.column_offsets[k]
        region = part_os.oversampled[k].ids
        kept = interpolation._kept_aggregates(clusters, clusters.column_of[region])
        d = 0.5
        for aggregate in (column, kept[-1]):
            vertex = clusters.flat_aggregates[aggregate].ids[-1]
            v = constraint_violation(self.planted(P, vertex, column, d), clusters, part_os)
            assert abs(v - d / clusters.sizes[aggregate]) <= 1e-13

    def test_unscoped_deviation_ignored_by_localized(self, channel_setup):
        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.25)
        P = mc_local(prob.operator, clusters, part_os)
        k = 1
        region = part_os.oversampled[k].ids
        kept = interpolation._kept_aggregates(clusters, clusters.column_of[region])
        # an aggregate only partly inside the region: no row of its scope
        partial = np.setdiff1d(clusters.column_of[region], np.r_[kept, -1])
        assert partial.size
        vertex = np.intersect1d(clusters.flat_aggregates[partial[0]].ids, region)[0]
        planted = self.planted(P, vertex, clusters.column_offsets[k], 0.5)
        assert constraint_violation(planted, clusters, part_os) <= 1e-13


class TestMcLocal:
    def test_full_cover_matches_global(self, channel_setup):
        prob, part, clusters = channel_setup
        Pg = mc_global(prob.operator, clusters)
        part_full = oversample(prob.graph, part, 10.0)
        Pl = mc_local(prob.operator, clusters, part_full)
        assert spla.norm(Pl.matrix - Pg.matrix) <= 1e-8 * spla.norm(Pg.matrix)

    def test_scoped_constraints_met(self, channel_setup):
        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.25)
        P = mc_local(prob.operator, clusters, part_os)
        assert constraint_violation(P, clusters, part_os) <= 1e-13

    def test_support_confined_to_region(self, channel_setup):
        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.25)
        P = mc_local(prob.operator, clusters, part_os).matrix.tocsc()
        for c, (k, r) in enumerate(clusters.columns):
            rows = P.indices[P.indptr[c]:P.indptr[c + 1]]
            assert np.all(np.isin(rows, part_os.oversampled[k].ids))

    def test_ring_swallowing_target_aggregate_is_infeasible(self):
        # path 0-1-2-3-4, subdomain {3, 4} with singleton aggregates; with
        # no oversampling vertex 3 is the ring, so aggregate {3} dies
        g = WeightedGraph.build(5, [(i, i + 1, 1.0) for i in range(4)],
                                robin=[(0, 1.0, 0.0)])
        A, _ = apply_boundary(assemble_signed_laplacian(g), g)
        aggs = ((IndexSet(np.array([0, 1, 2]), 5),),
                (IndexSet(np.array([3]), 5), IndexSet(np.array([4]), 5)))
        clusters = ClusterSet(5, aggs, ((1,), (3, 4)))
        part = Partition(5, 2, np.array([0, 0, 0, 1, 1]), balance_tol=1.0)
        part = oversample(g, part, 0)
        with pytest.raises(InfeasibleConstraintError, match=r"\(1, 0\)"):
            mc_local(A, clusters, part)


class TestColumnInfo:
    def test_columns_follow_cluster_order(self, channel_setup):
        from graphcoarsen.experiments import build_prolongation

        prob, part, clusters = channel_setup
        part_os = oversample(prob.graph, part, 0.25)
        for method in ("cf-glo", "cf-loc", "mc-glo", "mc-loc"):
            P = build_prolongation(method, prob, clusters, part_os)
            expected = tuple(
                (k, r, int(clusters.centroids[k][r]) if method.startswith("cf") else None)
                for k, r in clusters.columns)
            assert P.columns == expected, method


class TestLocalizationConsistency:
    def test_gap_to_global_shrinks_with_radius(self, channel_setup):
        prob, part, clusters = channel_setup
        A = prob.operator
        refs = {"cf": cf_ideal_global(A, clusters), "mc": mc_global(A, clusters)}
        build = {"cf": cf_ideal_local, "mc": mc_local}
        for kind in ("cf", "mc"):
            gaps = []
            for dh in (0.15, 0.3, 0.7, 10.0):
                part_os = oversample(prob.graph, part, dh)
                P = build[kind](A, clusters, part_os)
                gaps.append(spla.norm(P.matrix - refs[kind].matrix))
            assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
            assert gaps[-1] <= 1e-8 * spla.norm(refs[kind].matrix)

    def test_full_column_rank_all_kinds(self, channel_setup):
        prob, part, clusters = channel_setup
        A = prob.operator
        part_os = oversample(prob.graph, part, 0.25)
        kinds = [cf_ideal_global(A, clusters), cf_ideal_local(A, clusters, part_os),
                 mc_global(A, clusters), mc_local(A, clusters, part_os)]
        for P in kinds:
            sv = scipy.linalg.svdvals(P.matrix.toarray())
            assert sv.min() > 1e-10


class TestClosedFormOperators:
    """The coarse operator every builder returns is ``P^T A P``."""

    @staticmethod
    def check(A, *prolongations):
        f = np.random.default_rng(1).standard_normal(A.shape[0])
        u = solve_fine(A, f)
        for P in prolongations:
            Pd = P.matrix.toarray()
            dense = Pd.T @ A.toarray() @ Pd
            operator = P.operator if P.dense else P.operator.toarray()
            assert np.linalg.norm(operator - dense) <= 1e-12 * np.linalg.norm(dense)
            closed = galerkin_coarse(A, f, P)
            # a sparse operator is exactly symmetric: the model holds it as it is
            assert P.dense or closed.operator is P.operator
            triple = galerkin_coarse(A, f, replace(P, operator=None))
            assert (spla.norm(closed.operator - triple.operator)
                    <= 1e-12 * spla.norm(triple.operator))
            e_closed = errors(u, solve_steady(closed)[1], A)
            e_triple = errors(u, solve_steady(triple)[1], A)
            assert np.allclose(e_closed, e_triple, rtol=1e-10, atol=1e-10)

    @staticmethod
    def global_kinds(A, clusters):
        return cf_ideal_global(A, clusters), mc_global(A, clusters)

    def test_channel_fixture(self, channel_setup):
        prob, _, clusters = channel_setup
        self.check(prob.operator, *self.global_kinds(prob.operator, clusters))

    @given(random_spd_systems())
    @settings(max_examples=60, deadline=None)
    def test_random_shifted_laplacian(self, system):
        self.check(system[0], *self.global_kinds(*system))

    @staticmethod
    def cf_local(A, clusters, part):
        """cf-loc's P, whose operator is the symmetrized product of P with
        its outer residual byte for byte: the same sums in the same order."""
        P = cf_ideal_local(A, clusters, part)
        ref = cf_local_operator_by_outer_residual(A, clusters, part, P.matrix)
        for name in ("indices", "indptr"):
            assert getattr(P.operator, name).dtype == getattr(ref, name).dtype, name
        assert sha1(P.operator) == sha1(ref)
        return P

    def test_cf_local(self, local_setup):
        graph, A, part, clusters, radius = local_setup
        self.check(A, self.cf_local(A, clusters, oversample(graph, part, radius)))

    def test_cf_local_without_fine_vertex(self, local_setup):
        graph, A, part, clusters, _ = local_setup
        # radius 0: the region of subdomain 0 is itself, every vertex a centroid
        self.check(A, self.cf_local(A, split_into_singletons(clusters, part, 0),
                                    oversample(graph, part, 0)))

    def test_cf_local_fem40(self, fem40):
        prob, part, clusters = fem40
        self.cf_local(prob.operator, clusters, oversample(prob.graph, part, 0.2))

    def test_mc_local(self, local_setup):
        """At a radius that drops a ring-only row, mc-loc's operator is the
        symmetrized sparse triple product, bit for bit: the same sums in the
        same order, with the same entries stored."""
        graph, A, part, clusters, radius = local_setup
        with pytest.warns(RepairWarning, match="dropped ring-only constraint rows"):
            P = mc_local(A, clusters, oversample(graph, part, radius))
        self.check(A, P)
        triple = galerkin_coarse(A, np.ones(A.shape[0]), replace(P, operator=None)).operator
        for name in ("data", "indices", "indptr"):
            got, want = getattr(P.operator, name), getattr(triple, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("pattern", ["symmetric", "unsymmetric"])
def test_symmetric_part(pattern):
    """``(B + B^T) / 2`` of an unsymmetric B, exactly symmetric, whether it is
    summed in B's arrays (symmetric pattern) or as a new matrix."""
    rng = np.random.default_rng(7)
    B = sp.random(30, 30, density=0.2, random_state=rng, format="csr")
    if pattern == "symmetric":
        B = (B + B.T).tocsr()
        B.data = rng.standard_normal(B.nnz)
    D = B.toarray()
    got = graph._symmetric_part(B)
    assert got.has_canonical_format and (got != got.T).nnz == 0
    assert np.array_equal(got.toarray(), (D + D.T) / 2)


class TestGlobalCsr:
    """The global kinds' dense P and carried operator reach CSR form in one
    pass, storing exactly what ``sp.csr_matrix`` of the dense array stores."""

    @staticmethod
    def builders(A, clusters):
        return cf_ideal_global(A, clusters), mc_global(A, clusters)

    @staticmethod
    def assert_same_csr(got, ref):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert getattr(got, name).dtype == getattr(ref, name).dtype

    def test_stored_entries_unchanged(self, channel_setup):
        prob, _, clusters = channel_setup
        for P, nnz in zip(self.builders(prob.operator, clusters), (1309, 1452)):
            assert P.matrix.nnz == nnz
            self.assert_same_csr(P.matrix, sp.csr_matrix(P.matrix.toarray()))

    def test_operator_as_sparse_symmetrization(self, channel_setup):
        prob, _, clusters = channel_setup
        A, f = prob.operator, prob.rhs
        for P in self.builders(A, clusters):
            A_c = sp.csr_matrix(P.operator)
            self.assert_same_csr(galerkin_coarse(A, f, P).operator,
                                 ((A_c + A_c.T) * 0.5).tocsr())

    def test_carried_asymmetry_checked(self, channel_setup):
        prob, _, clusters = channel_setup
        A, f = prob.operator, prob.rhs
        P = self.builders(A, clusters)[0]
        E = np.zeros_like(P.operator)
        scale = np.abs(P.operator).max()
        for delta, raises in ((1e-10 * scale, True), (1e-11 * scale, False)):
            E[0, 1], E[1, 0] = delta, -delta  # small enough to pass the probe
            skewed = replace(P, operator=P.operator + E)
            if raises:
                with pytest.raises(ValueError, match="symmetry"):
                    galerkin_coarse(A, f, skewed)
            else:
                A_c = galerkin_coarse(A, f, skewed).operator
                assert (A_c != A_c.T).nnz == 0
                assert np.abs(A_c.toarray() - P.operator).max() <= 1e-14 * scale

    def test_blocked_solves_match_one_block(self, channel_setup, monkeypatch):
        prob, _, clusters = channel_setup
        A = prob.operator
        whole = self.builders(A, clusters)
        monkeypatch.setattr(_solvers, "_BLOCK_ENTRIES", 5 * A.shape[0])  # 5 columns
        for P, Q in zip(whole, self.builders(A, clusters)):
            D = P.matrix.toarray()
            assert np.abs(Q.matrix.toarray() - D).max() <= 1e-14 * np.abs(D).max()


@pytest.fixture(scope="module")
def fem40():
    """n = 1,447 and n_c = 200: a P outweighs A and its factors."""
    prob = build_problem({"family": "fem", "nx": "40", "ny": "40", "contrast": "1e4",
                          "holes": "0.3,0.3,0.1;0.7,0.6,0.1"})
    part = partition_balanced(prob.graph, 25, seed=0)
    return prob, part, cluster_partition(prob.graph, part, 8, seed=0)


def traced_peak(build, *args):
    """The result of ``build(*args)`` and the peak of the memory traced
    while it ran."""
    tracemalloc.start()
    try:
        result = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestGlobalMemory:
    """A global build holds about 2.5 n n_c doubles at its peak: the dense
    P, its CSR form and one block of work, but no dense right-hand side, no
    negated or multiplied copy of the basis, and no 64-bit index array."""

    @pytest.mark.parametrize("kind", ["cf-glo", "mc-glo"])
    def test_peak_within_three_dense_copies(self, fem40, kind, monkeypatch):
        prob, _, clusters = fem40
        A = prob.operator
        # blocks of 4,096 entries (1/70 of n n_c), small beside the dense
        # arrays as the real 1 MiB budget is at fem nx = 80 (1/37)
        for module, name in ((_solvers, "_BLOCK_ENTRIES"), (interpolation, "_BLOCK_ENTRIES"),
                             (graph, "_DENSE_BLOCK_ENTRIES")):
            monkeypatch.setattr(module, name, 1 << 12)
        if kind == "cf-glo":
            P, peak = traced_peak(cf_ideal_global, A, clusters)
        else:
            P, peak = traced_peak(mc_global, A, clusters)
        dense = 8 * A.shape[0] * P.n_coarse
        assert P.matrix.nnz > 0.8 * A.shape[0] * P.n_coarse
        assert peak <= 3 * dense, f"peak {peak / dense:.2f} n n_c doubles"


class TestLocalMemory:
    """A localized build holds, at its peak, the CSR of P beside the blocks
    not yet copied and their products ``A P_k`` (2.4 times the CSR here for
    cf-loc, 2.9 times for mc-loc): no 64-bit index array and no COO
    triplets, which took 5.8 times the bytes of the CSR."""

    @pytest.mark.parametrize("build", [cf_ideal_local, mc_local], ids=["cf-loc", "mc-loc"])
    def test_peak_within_three_csr_copies(self, fem40, build):
        prob, part, clusters = fem40
        part_os = oversample(prob.graph, part, 0.2)
        P, peak = traced_peak(build, prob.operator, clusters, part_os)
        M = P.matrix
        csr = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        assert M.nnz > 5 * prob.operator.nnz  # P outweighs A and the local work
        assert peak <= 3 * csr, f"peak {peak / csr:.2f} times the CSR"

    def test_galerkin_holds_no_product(self, fem40):
        """A localized coarse model is the operator its P carries: no ``A P``
        and no symmetrized copy, which took the sparse triple product to
        2.8 times the bytes of the CSR of P here for cf-loc, and to 2.7
        times those of P and 6.4 times those of ``A_c`` for mc-loc.  Its
        asymmetry check compares ``A_c`` with its transpose entry by entry,
        holding about 1.7 times the bytes of the CSR of ``A_c``; the
        difference matrix ``A_c - A_c^T`` took 3.0 times."""
        prob, part, clusters = fem40
        part_os = oversample(prob.graph, part, 0.2)
        for build in (cf_ideal_local, mc_local):
            P = build(prob.operator, clusters, part_os)
            model, peak = traced_peak(galerkin_coarse, prob.operator, prob.rhs, P)
            for name, M in (("P", P.matrix), ("A_c", model.operator)):
                csr = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
                assert peak <= 2 * csr, (f"{P.kind}: peak {peak / csr:.2f} times "
                                         f"the CSR of {name}")
            assert model.operator is P.operator


def split_into_singletons(clusters, part, k):
    """``clusters`` with every vertex of subdomain ``k`` its own aggregate
    and centroid."""
    ids = part.subdomain(k).ids
    aggs, cents = list(clusters.aggregates), list(clusters.centroids)
    aggs[k] = tuple(IndexSet(np.array([v]), clusters.n_vertices) for v in ids)
    cents[k] = tuple(int(v) for v in ids)
    return ClusterSet(clusters.n_vertices, tuple(aggs), tuple(cents))


@pytest.fixture(scope="module", params=["channel", "pore-coordinate-free"])
def local_setup(request, channel_setup):
    """Graph, operator, partition, clusters and a radius at which mc-loc
    drops a ring-only constraint row."""
    if request.param == "channel":
        prob, part, _ = channel_setup
        graph, m, radius, seed = prob.graph, 8, 0.1, 0
    else:
        prob = build_problem({"family": "pore", "nx": "24", "ny": "24",
                              "network_seed": "1"})
        g = prob.graph
        graph = WeightedGraph(g.n_vertices, g.edge_index, g.edge_weight)
        m, radius, seed = 16, 3, 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            part = partition_balanced(graph, 9, seed=seed)
    clusters = cluster_partition(graph, part, m, seed=seed)
    return graph, prob.operator, part, clusters, radius


class TestLocalAssembly:
    """A localized P is laid out straight as compressed rows from the
    per-subdomain blocks its builder computes, whose columns share their
    rows, and for cf-loc from each column's unit entry on its own centroid:
    the same canonical CSR, bit for bit and dtype for dtype, as the COO
    assembly of those entries."""

    @staticmethod
    def assert_coo_identical(build, A, clusters, part, monkeypatch):
        """Build P with a spy on its blocks; returns P, its blocks and its
        unit rows."""
        recorded = []
        assemble = interpolation._assemble_rows

        def recording(blocks, n, *units):
            recorded.append((list(blocks), n, units))
            return assemble(blocks, n, *units)

        monkeypatch.setattr(interpolation, "_assemble_rows", recording)
        P = build(A, clusters, part).matrix
        # P's blocks come first, the column blocks of its coarse operator next
        assert len(recorded) == 2
        blocks, n, units = recorded[0]
        ref = coo_assemble(blocks, n, P.shape[1], *units)
        assert P.has_canonical_format and ref.has_canonical_format
        for name in ("data", "indices", "indptr"):
            got, want = getattr(P, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        return P, blocks, units

    def test_cf_local(self, local_setup, monkeypatch):
        graph, A, part, clusters, radius = local_setup
        _, _, units = self.assert_coo_identical(cf_ideal_local, A, clusters,
                                                oversample(graph, part, radius), monkeypatch)
        assert np.array_equal(*units, clusters.flat_centroids)

    def test_cf_subdomain_without_fine_vertex(self, local_setup, monkeypatch):
        graph, A, part, clusters, _ = local_setup
        # radius 0: the region of subdomain 0 is itself, every vertex a centroid
        clusters = split_into_singletons(clusters, part, 0)
        P, blocks, _ = self.assert_coo_identical(cf_ideal_local, A, clusters,
                                                 oversample(graph, part, 0), monkeypatch)
        rows, values = blocks[0]
        assert rows.size == values.size == 0
        ids = part.subdomain(0).ids
        unit = np.zeros((P.shape[0], ids.size))
        unit[ids, np.arange(ids.size)] = 1.0
        assert np.array_equal(P[:, :clusters.column_offsets[1]].toarray(), unit)

    def test_mc_local_dropping_ring_rows(self, local_setup, monkeypatch):
        graph, A, part, clusters, radius = local_setup
        with pytest.warns(RepairWarning, match="dropped ring-only constraint rows"):
            _, _, units = self.assert_coo_identical(mc_local, A, clusters,
                                                    oversample(graph, part, radius),
                                                    monkeypatch)
        assert units == ()


def sha1(M):
    return hashlib.sha1(b"".join(getattr(M, name).tobytes()
                                 for name in ("data", "indices", "indptr"))).hexdigest()


class TestMcLocalRegions:
    """mc-loc reads each region's rows of A once, through a map from vertex
    to region position, into the same P, byte for byte, as scipy's row and
    column indexing of the region gave."""

    @staticmethod
    def check(A, clusters, part):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            P = mc_local(A, clusters, part).matrix
        ref, dropped = mc_local_by_indexing(A, clusters, part)
        assert P.indices.dtype == ref.indices.dtype and P.indptr.dtype == ref.indptr.dtype
        assert sha1(P) == sha1(ref)
        return [str(w.message) for w in caught if issubclass(w.category, RepairWarning)], dropped

    def test_ring_rows_reported_once(self, local_setup):
        graph, A, part, clusters, radius = local_setup
        messages, dropped = self.check(A, clusters, oversample(graph, part, radius))
        assert dropped and len(messages) == 1
        assert messages[0].startswith("dropped ring-only constraint rows in subdomain")
        for k, rows in dropped.items():
            assert f"subdomain {k}: {rows}" in messages[0]

    def test_fem40(self, fem40):
        prob, part, clusters = fem40
        messages, dropped = self.check(prob.operator, clusters,
                                       oversample(prob.graph, part, 0.2))
        assert len(messages) == bool(dropped)


class TestDenseCapacity:
    """The global kinds' dense ``P^T C P`` matches the sparse triple product
    of the same P without its carried operator, and their transient run
    matches backward Euler stepped on that sparse model."""

    @staticmethod
    def check(A, clusters):
        n = A.shape[0]
        rng = np.random.default_rng(2)
        c = rng.uniform(0.1, 1.0, n)
        f = rng.standard_normal(n)
        cfg = TransientConfig(tau=0.1, n_steps=4)
        for P in (cf_ideal_global(A, clusters), mc_global(A, clusters)):
            bare = replace(P, operator=None)
            Pd = P.matrix.toarray()
            exact = Pd.T @ np.diag(c) @ Pd
            dense = galerkin_coarse(A, f, P, capacity=c).capacity
            sparse = galerkin_coarse(A, f, bare, capacity=c).capacity
            assert isinstance(dense, np.ndarray) and sp.issparse(sparse)
            assert np.array_equal(dense, dense.T)
            assert np.linalg.norm(dense - exact) <= 1e-12 * np.linalg.norm(exact)
            assert np.linalg.norm(dense - sparse.toarray()) <= 1e-12 * np.linalg.norm(exact)
            states = solve_parabolic(c, A, f, cfg, P=P).states
            ref = stepped_states(galerkin_coarse(A, f, bare, capacity=c), cfg)
            assert np.linalg.norm(states - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_channel_fixture(self, channel_setup):
        prob, _, clusters = channel_setup
        self.check(prob.operator, clusters)

    @given(random_spd_systems())
    @settings(max_examples=60, deadline=None)
    def test_random_shifted_laplacian(self, system):
        self.check(*system)
