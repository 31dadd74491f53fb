import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphcoarsen import (IndexSet, SingularSystemError, WeightedGraph,
                          apply_boundary, assemble_signed_laplacian,
                          eliminate_dirichlet, norm_A, subgraph)
from graphcoarsen.exceptions import IndefiniteOperatorError
from graphcoarsen import graph
from graphcoarsen.graph import dense_to_csr


def dense_laplacian_oracle(n, edges):
    """Independent dense assembly, entry by entry."""
    L = np.zeros((n, n))
    for i, j, w in edges:
        L[i, i] += abs(w)
        L[j, j] += abs(w)
        L[i, j] -= w
        L[j, i] -= w
    return L


@st.composite
def random_graphs(draw, positive=True):
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs),
                           unique=True))
    lo = 0.01 if positive else -10.0
    weights = draw(st.lists(st.floats(min_value=lo, max_value=10.0,
                                      allow_nan=False, allow_infinity=False),
                            min_size=len(picked), max_size=len(picked)))
    weights = [w if w != 0 else 1.0 for w in weights]
    edges = [(i, j, w) for (i, j), w in zip(picked, weights)]
    return WeightedGraph.build(n, edges)


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedGraph.build(2, [(0, 1, 1.0)])
        assert np.array_equal(assemble_signed_laplacian(g).toarray(),
                              [[1, -1], [-1, 1]])

    def test_signed_edge_uses_absolute_degree(self):
        g = WeightedGraph.build(2, [(0, 1, -2.0)])
        assert np.array_equal(assemble_signed_laplacian(g).toarray(),
                              [[2, 2], [2, 2]])

    def test_path_matches_dense_oracle(self):
        edges = [(0, 1, 3.0), (1, 2, 5.0)]
        g = WeightedGraph.build(3, edges)
        L = assemble_signed_laplacian(g).toarray()
        assert np.allclose(np.diag(L), [3, 8, 5])
        assert L[0, 1] == -3 and L[1, 2] == -5
        assert np.allclose(L, dense_laplacian_oracle(3, edges))

    @given(random_graphs(positive=True))
    @settings(max_examples=40, deadline=None)
    def test_positive_weights_rows_sum_to_zero(self, g):
        L = assemble_signed_laplacian(g)
        rowsum = np.abs(np.asarray(L.sum(axis=1)).ravel())
        assert rowsum.max() <= 1e-13 * max(L.diagonal().max(), 1.0)

    @given(random_graphs(positive=False))
    @settings(max_examples=40, deadline=None)
    def test_signed_laplacian_symmetric_psd(self, g):
        L = assemble_signed_laplacian(g).toarray()
        assert np.allclose(L, L.T)
        assert scipy.linalg.eigvalsh(L).min() >= -1e-10 * max(1.0, np.abs(L).max())


class TestBoundary:
    def test_robin_path_example(self, path3):
        g = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)],
                                robin=[(0, 1.0, 5.0)])
        L = assemble_signed_laplacian(g)
        A, f = apply_boundary(L, g)
        assert np.array_equal((A - L).toarray(), np.diag([1.0, 0, 0]))
        assert np.array_equal(f, [5.0, 0, 0])

    def test_no_boundary_is_singular(self, path3):
        L = assemble_signed_laplacian(path3)
        with pytest.raises(SingularSystemError, match="singular"):
            apply_boundary(L, path3)

    def test_two_robin_vertices_make_spd(self):
        g = WeightedGraph.build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                                robin=[(0, 10.0, 0.0), (3, 10.0, 0.0)])
        A, _ = apply_boundary(assemble_signed_laplacian(g), g)
        assert scipy.linalg.eigvalsh(A.toarray()).min() > 0

    @given(random_graphs(positive=True))
    @settings(max_examples=25, deadline=None)
    def test_robin_touches_only_diagonal(self, g):
        g2 = WeightedGraph(g.n_vertices, g.edge_index, g.edge_weight,
                           robin=[(0, 2.5, 1.0)])
        L = assemble_signed_laplacian(g2)
        A, _ = apply_boundary(L, g2)
        D = (A - L).tocoo()
        assert np.all(D.row[D.data != 0] == D.col[D.data != 0])
        assert np.abs((A - A.T).toarray()).max() == 0


class TestDirichlet:
    def test_eliminate_nothing(self, path3):
        A = assemble_signed_laplacian(path3)
        f = np.array([1.0, 2.0, 3.0])
        A2, f2, red = eliminate_dirichlet(A, f, [])
        assert np.array_equal(A2.toarray(), A.toarray())
        assert np.array_equal(f2, f)
        assert np.array_equal(red.expand(f2), f)

    def test_poisson_path_interior_solution(self):
        g = WeightedGraph.build(5, [(i, i + 1, 1.0) for i in range(4)])
        A = assemble_signed_laplacian(g)
        f = np.ones(5)
        A2, f2, red = eliminate_dirichlet(A, f, [(0, 0.0), (4, 0.0)])
        u_int = np.linalg.solve(A2.toarray(), f2)
        assert np.allclose(u_int, [1.5, 2.0, 1.5])
        full = red.expand(u_int)
        assert full[0] == 0 and full[4] == 0

    def test_inhomogeneous_values_fold_into_rhs(self):
        g = WeightedGraph.build(3, [(0, 1, 2.0), (1, 2, 1.0)])
        A = assemble_signed_laplacian(g)
        f = np.zeros(3)
        A2, f2, red = eliminate_dirichlet(A, f, [(0, 5.0)])
        # oracle: dense block elimination
        Ad = A.toarray()
        assert np.allclose(f2, -Ad[1:, 0] * 5.0)
        u = np.linalg.solve(A2.toarray(), f2)
        assert np.allclose(red.expand(u)[0], 5.0)

    def test_eliminate_everything(self, path3):
        A = assemble_signed_laplacian(path3)
        A2, f2, red = eliminate_dirichlet(A, np.zeros(3),
                                          [(0, 1.0), (1, 2.0), (2, 3.0)])
        assert A2.shape == (0, 0)
        assert np.array_equal(red.expand(np.array([])), [1.0, 2.0, 3.0])

    def test_out_of_range_rejected(self, path3):
        A = assemble_signed_laplacian(path3)
        with pytest.raises(ValueError, match="out of range"):
            eliminate_dirichlet(A, np.zeros(3), [(7, 0.0)])


class TestNorms:
    def test_zero_vector(self, path3):
        A = assemble_signed_laplacian(path3)
        z = np.zeros(3)
        assert norm_A(z, A) == 0.0

    def test_single_edge_values(self):
        g = WeightedGraph.build(2, [(0, 1, 1.0)])
        v = np.array([1.0, 0.0])
        L = assemble_signed_laplacian(g)
        assert norm_A(v, L) == 1.0

    @given(random_graphs(positive=True), st.integers(0, 2 ** 30))
    @settings(max_examples=40, deadline=None)
    def test_edge_form_equals_quadratic_form(self, g, seed):
        v = np.random.default_rng(seed).standard_normal(g.n_vertices)
        L = assemble_signed_laplacian(g)
        i, j = g.edge_index.T
        lhs = float(np.sum(g.edge_weight * (v[i] - v[j]) ** 2))
        rhs = norm_A(v, L) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_indefinite_rejected(self):
        A = (-sp.identity(3)).tocsr()
        with pytest.raises(IndefiniteOperatorError):
            norm_A(np.ones(3), A)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph.build(2, [(0, 0, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph.build(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph.build(2, [(0, 5, 1.0)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedGraph.build(2, [(0, 1, 1.0)], capacity=[-1.0, 1.0])

    @pytest.mark.parametrize("field, value, match", [
        ("edges", [(0, 1, np.nan)], "edge weights must be finite"),
        ("coords", [[0.0, 0.0], [np.inf, 0.0]], "coordinates must be finite"),
        ("capacity", [1.0, np.nan], "capacities must be finite"),
        ("robin", [(0, np.nan, 0.0)], "robin coefficient must be finite"),
        ("robin", [(0, np.inf, 0.0)], "robin coefficient must be finite"),
        ("robin", [(0, 1.0, np.nan)], "robin value must be finite"),
        ("dirichlet", [(1, -np.inf)], "dirichlet value must be finite"),
    ])
    def test_non_finite_data_rejected(self, field, value, match):
        data = {"edges": [(0, 1, 1.0)], field: value}
        with pytest.raises(ValueError, match=match):
            WeightedGraph.build(2, **data)

    def test_edges_normalized_sorted(self):
        g = WeightedGraph.build(3, [(2, 1, 5.0), (1, 0, 3.0)])
        assert np.array_equal(g.edge_index, [[0, 1], [1, 2]])
        assert np.array_equal(g.edge_weight, [3.0, 5.0])

    def test_degrees(self):
        g = WeightedGraph.build(3, [(0, 1, 3.0), (1, 2, -5.0)])
        assert np.array_equal(g.degrees, [3.0, 8.0, 5.0])


class TestIndexSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IndexSet(np.array([1, 1]), 3)

    @pytest.mark.parametrize("ids", [[0, 2, 3, 3, 5], [4, 1, 3, 1], [2, 0, 2]])
    def test_duplicates_rejected_sorted_or_not(self, ids):
        with pytest.raises(ValueError, match="duplicate"):
            IndexSet(np.array(ids), 6)

    @pytest.mark.parametrize("ids", [[-1, 2], [2, 6], [3, -1, 2], [6, 0]])
    def test_out_of_range_sorted_or_not(self, ids):
        with pytest.raises(ValueError, match="out of range"):
            IndexSet(np.array(ids), 6)

    def test_unsorted_distinct_keep_order(self):
        s = IndexSet(np.array([5, 0, 3, 1]), 6)
        assert np.array_equal(s.ids, [5, 0, 3, 1])

    def test_complement(self):
        s = IndexSet(np.array([0, 2]), 4)
        assert np.array_equal(s.complement().ids, [1, 3])


class TestSubgraph:
    def test_restriction_consistency(self):
        g = WeightedGraph.build(
            4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)],
            coords=np.arange(8, dtype=float).reshape(4, 2),
            capacity=[1.0, 2.0, 3.0, 4.0], robin=[(3, 1.0, 0.5)])
        sub, keep = subgraph(g, [1, 2, 3])
        assert sub.n_vertices == 3
        assert sub.n_edges == 2  # (1,2) and (2,3) survive
        assert np.array_equal(sub.capacity, [2.0, 3.0, 4.0])
        assert sub.robin == ((2, 1.0, 0.5),)
        assert np.array_equal(keep.ids, [1, 2, 3])

    def test_unsorted_keep_carries_boundary_data(self):
        g = WeightedGraph.build(
            6, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 3.0), (0, 4, -2.0), (4, 5, 5.0)],
            capacity=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            robin=[(1, 1.5, 0.5), (4, 2.0, -1.0)], dirichlet=[(2, 7.0), (5, 9.0)])
        sub, keep = subgraph(g, [4, 0, 2, 1])
        assert np.array_equal(keep.ids, [4, 0, 2, 1])
        assert np.array_equal(sub.capacity, [4.0, 0.0, 2.0, 1.0])
        assert sub.robin == ((0, 2.0, -1.0), (3, 1.5, 0.5))
        assert sub.dirichlet == ((2, 7.0),)
        # local edges (4,0), (0,1) and the zero-weight (1,2)
        assert np.array_equal(sub.edge_index, [[0, 1], [1, 3], [2, 3]])
        assert np.array_equal(sub.edge_weight, [-2.0, 1.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_position_map_oracle(self, data):
        n = data.draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        weights = data.draw(st.lists(st.sampled_from([0.0, -1.5, 2.0, 0.25]),
                                     min_size=len(picked), max_size=len(picked)))
        robin_v = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        diri_v = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        keep = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        g = WeightedGraph.build(n, [(i, j, w) for (i, j), w in zip(picked, weights)],
                                coords=np.arange(2 * n, dtype=float).reshape(n, 2),
                                robin=[(v, 1.0 + v, -v) for v in robin_v],
                                dirichlet=[(v, 10.0 * v) for v in diri_v])
        sub, _ = subgraph(g, keep)
        pos = {v: k for k, v in enumerate(keep)}
        edges = sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), w)
                       for (i, j), w in zip(picked, weights) if i in pos and j in pos)
        assert [(int(i), int(j), w) for (i, j), w in
                zip(sub.edge_index, sub.edge_weight)] == edges
        assert sub.robin == tuple(sorted((pos[v], 1.0 + v, -v)
                                         for v in robin_v if v in pos))
        assert sub.dirichlet == tuple(sorted((pos[v], 10.0 * v)
                                             for v in diri_v if v in pos))
        assert np.array_equal(sub.coords, g.coords[keep])


dense_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf]),
                          st.floats(allow_nan=True, allow_infinity=True))


class TestDenseToCsr:
    """The one-pass conversion stores exactly what ``sp.csr_matrix`` stores."""

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                   max_side=7), elements=dense_entries),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(np.zeros((4, 3)), False)
    @example(np.zeros((0, 5)), False)
    @example(np.zeros((5, 0)), False)
    @example(np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-0.0, np.nan, 3.0]]), False)
    @example(np.array([[1.0, -0.0], [np.nan, 0.0], [0.0, 0.0]]), True)
    def test_matches_csr_matrix(self, D, transposed):
        if transposed:  # a non-contiguous view
            D = D.T
        got, ref = dense_to_csr(D), sp.csr_matrix(D)
        assert got.shape == ref.shape
        assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))
        for name in ("indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert getattr(got, name).dtype == getattr(ref, name).dtype
        assert got.has_canonical_format and ref.has_canonical_format

    @pytest.mark.parametrize("entries", [1, 7, 15, 1 << 17])
    def test_row_blocks(self, monkeypatch, entries):
        # one row per block (also when a row alone exceeds the budget), two
        # rows, and the whole array in one block
        monkeypatch.setattr(graph, "_DENSE_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(0)
        D = np.where(rng.random((23, 7)) < 0.4, rng.standard_normal((23, 7)), 0.0)
        D[3] = 0.0
        D[5, 2], D[9, 0], D[22, 6] = -0.0, np.nan, np.inf
        got, ref = dense_to_csr(D), sp.csr_matrix(D)
        assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))
        for name in ("indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert getattr(got, name).dtype == getattr(ref, name).dtype
