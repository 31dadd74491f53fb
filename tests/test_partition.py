import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphcoarsen import (DisconnectedGraphError, RepairWarning, WeightedGraph, oversample,
                          partition_balanced)
from graphcoarsen import partition as partition_module
from graphcoarsen.partition import (Partition, _refine_bipartition, _repair_fragments,
                                   math_ceil_ratio)
from graphcoarsen.problems import PoreNetworkSpec, gen_pore_network, lattice_graph


def path_graph(n):
    return WeightedGraph.build(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def brute_force_oversample(graph, members, delta_h):
    """Oracle: scan every vertex-member pair."""
    out = set(members.tolist())
    for v in range(graph.n_vertices):
        d = np.linalg.norm(graph.coords[members] - graph.coords[v], axis=1)
        if d.min() <= delta_h:
            out.add(v)
    return out


def bfs_oversample(graph, members, hops):
    """Oracle: vertices within ``hops`` edges of a member, by BFS."""
    dist = {int(v): 0 for v in members}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        if dist[v] == hops:
            continue
        for u in graph.neighbors(v).tolist():
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return set(dist)


def closure_of(partition, region):
    """Oracle: every vertex of every subdomain that ``region`` touches."""
    return set(np.flatnonzero(np.isin(partition.assignment,
                                      partition.assignment[list(region)])).tolist())


def check_regions(part, part_os, oracle, mode):
    for k in range(part.n_subdomains):
        expected = oracle(part.subdomain(k).ids)
        if mode == "closure":
            expected = closure_of(part, expected)
        ids = part_os.oversampled[k].ids
        assert np.array_equal(ids, np.sort(ids))
        assert set(ids.tolist()) == expected


def scan_repair(graph, assign, N, balance_tol):
    """Oracle: fragment repair that rescans the assignment for each subdomain."""
    counts = np.bincount(assign, minlength=N)
    allowance = max(1.0 + balance_tol, math_ceil_ratio(graph.n_vertices, N))
    disconnected = []
    for k in range(N):
        ids = np.flatnonzero(assign == k)
        ncomp, labels = connected_components(graph.adjacency[ids][:, ids], directed=False)
        moved_all = True
        for c in range(ncomp):
            if c == int(np.argmax(np.bincount(labels))):
                continue
            frag = ids[labels == c]
            moved = False
            for q in sorted({int(assign[u]) for v in frag for u in graph.neighbors(v)} - {k}):
                new_counts = counts.copy()
                new_counts[k] -= frag.size
                new_counts[q] += frag.size
                if new_counts[k] > 0 and new_counts.max() / new_counts.min() <= allowance:
                    assign[frag], counts, moved = q, new_counts, True
                    break
            moved_all = moved_all and moved
        if not moved_all:
            disconnected.append(k)
    return tuple(disconnected)


def scan_refine(W, side, max_swaps):
    """Oracle: pair-swap refinement whose initial gains scan every vertex."""
    absW = W.copy()
    absW.data = np.abs(absW.data)
    ext = np.zeros(side.size)
    tot = np.asarray(absW.sum(axis=1)).ravel()
    for v in range(side.size):
        nbrs = absW.indices[absW.indptr[v]:absW.indptr[v + 1]]
        wts = absW.data[absW.indptr[v]:absW.indptr[v + 1]]
        ext[v] = wts[side[nbrs] != side[v]].sum()
    gain = 2 * ext - tot
    scale = max(absW.data.max() if absW.nnz else 1.0, 1e-300)

    def argmax_ties(mask):
        idx = np.flatnonzero(mask)
        return int(idx[gain[idx] == gain[idx].max()][0]) if idx.size else -1

    for _ in range(max_swaps):
        a, b = argmax_ties(side), argmax_ties(~side)
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
            for u in nbrs:
                un = absW.indices[absW.indptr[u]:absW.indptr[u + 1]]
                uw = absW.data[absW.indptr[u]:absW.indptr[u + 1]]
                ext[u] = uw[side[un] != side[u]].sum()
                gain[u] = 2 * ext[u] - tot[u]


@st.composite
def signed_graphs(draw, max_n):
    """Connected coordinate-free graph with signed integer weights, one of
    them an explicit zero; integer sums are exact in any order."""
    n = draw(st.integers(2, max_n))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    edges = sorted({(min(i, j), max(i, j)) for i, j in tree + extra if i != j})
    weights = draw(st.lists(st.integers(-9, 9), min_size=len(edges), max_size=len(edges)))
    weights[draw(st.integers(0, len(edges) - 1))] = 0
    return WeightedGraph.build(n, [(i, j, float(w)) for (i, j), w in zip(edges, weights)])


@st.composite
def random_bipartitions(draw):
    """A signed graph's weight matrix and a random bipartition."""
    g = draw(signed_graphs(max_n=16))
    n = g.n_vertices
    side = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g.weight_matrix, side, draw(st.integers(0, n))


@st.composite
def random_partitioned_graphs(draw):
    """Connected coordinate-free graph with a random subdomain assignment."""
    n = draw(st.integers(2, 14))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    edges = sorted({(min(i, j), max(i, j)) for i, j in tree + extra if i != j})
    g = WeightedGraph.build(n, [(i, j, 1.0) for i, j in edges])
    n_sub = draw(st.integers(1, n))
    slots = draw(st.permutations(list(range(n))))
    assignment = np.array(slots) % n_sub
    return g, Partition(n, n_sub, assignment, balance_tol=float(n))


class TestBalancedPartition:
    def test_single_subdomain(self):
        g = lattice_graph(4, 4)
        part = partition_balanced(g, 1, seed=0)
        assert len(part.subdomain(0)) == 16

    def test_singletons(self):
        g = lattice_graph(3, 3)
        part = partition_balanced(g, 9, seed=0)
        assert np.array_equal(np.sort(part.sizes), np.ones(9))

    def test_grid_sizes_balanced(self):
        g = lattice_graph(20, 20)
        part = partition_balanced(g, 4, seed=0)
        assert part.sizes.min() >= 90 and part.sizes.max() <= 110

    def test_cover_and_disjoint(self):
        g = lattice_graph(11, 7)
        part = partition_balanced(g, 5, seed=3)
        counted = np.zeros(g.n_vertices, dtype=int)
        for k in range(5):
            counted[part.subdomain(k).ids] += 1
        assert np.all(counted == 1)

    def test_subdomains_are_layout_slices(self):
        assignment = np.array([2, 0, 1, 2, 0, 1, 1, 0, 2, 0])
        part = Partition(10, 3, assignment, balance_tol=1.0)
        assert np.array_equal(part.offsets, [0, 4, 7, 10])
        for k in range(3):
            sub = part.subdomain(k).ids
            assert np.array_equal(sub, np.flatnonzero(assignment == k))
            assert np.array_equal(sub, part.order[part.offsets[k]:part.offsets[k + 1]])

    def test_deterministic_per_seed(self):
        g = lattice_graph(12, 12)
        a = partition_balanced(g, 6, seed=5).assignment
        b = partition_balanced(g, 6, seed=5).assignment
        assert np.array_equal(a, b)

    def test_disconnected_input_names_components(self):
        g = WeightedGraph.build(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError, match="2 connected components"):
            partition_balanced(g, 2)

    @pytest.mark.parametrize("graph, n_sub", [
        (lattice_graph(8, 8), 4),
        (path_graph(64), 4),
        (gen_pore_network(PoreNetworkSpec(nx=32, ny=32), seed=0), 9),
        (gen_pore_network(PoreNetworkSpec(nx=64, ny=64), seed=0), 16),
        (path_graph(2), 2),
    ], ids=["lattice8-N4", "path64-N4", "pore32-N9", "pore64-N16", "path2-N2"])
    def test_coordinate_free(self, graph, n_sub):
        bare = WeightedGraph(graph.n_vertices, graph.edge_index, graph.edge_weight)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            part = partition_balanced(bare, n_sub, seed=0)
            again = partition_balanced(bare, n_sub, seed=0)
        assert isinstance(part, Partition)
        assert (part.n_vertices, part.n_subdomains) == (graph.n_vertices, n_sub)
        assert np.array_equal(part.assignment, again.assignment)

    @given(signed_graphs(max_n=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_coordinate_free_graphs_partition(self, g, data):
        n_sub = data.draw(st.integers(2, g.n_vertices))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            part = partition_balanced(g, n_sub, seed=data.draw(st.integers(0, 2**32 - 1)))
        assert isinstance(part, Partition)
        assert part.n_subdomains == n_sub

    def test_coordinates_need_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigsh called on a graph with coordinates")

        monkeypatch.setattr(partition_module, "eigsh", refuse)
        part = partition_balanced(lattice_graph(8, 8), 4, seed=0)
        assert np.array_equal(np.sort(part.sizes), [16] * 4)

    def test_weighted_refinement_avoids_cutting_heavy_edges(self):
        # two cliques joined by one light edge: the natural bipartition
        # cuts only the bridge
        edges = []
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((i, j, 10.0))
                edges.append((4 + i, 4 + j, 10.0))
        edges.append((3, 4, 0.1))
        coords = np.array([[i % 4, i // 4] for i in range(8)], dtype=float)
        g = WeightedGraph.build(8, edges, coords=coords)
        part = partition_balanced(g, 2, seed=0)
        cut = sum(abs(w) for (i, j), w in zip(g.edge_index, g.edge_weight)
                  if part.assignment[i] != part.assignment[j])
        assert cut == pytest.approx(0.1)

    def test_fragment_moved_to_higher_id_joins_its_members(self):
        # path 0-...-11: vertex 5 is a fragment of subdomain 0 and moves to
        # subdomain 1, whose halves {3, 4} and {6, 7} it connects; with the
        # membership of 1 left stale, {6, 7} would move on to subdomain 2
        g = WeightedGraph.build(12, [(i, i + 1, 1.0) for i in range(11)])
        assign = np.array([0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 2, 2])
        disconnected = _repair_fragments(g, assign, 3, balance_tol=1.0)
        assert disconnected == ()
        assert np.array_equal(assign, [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2])

    @given(random_partitioned_graphs(), st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_fragment_repair_matches_rescanning_oracle(self, case, balance_tol):
        g, part = case
        fast, slow = part.assignment.copy(), part.assignment.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepairWarning)
            got = _repair_fragments(g, fast, part.n_subdomains, balance_tol)
            want = scan_repair(g, slow, part.n_subdomains, balance_tol)
        assert got == want
        assert np.array_equal(fast, slow)

    @given(random_bipartitions())
    @settings(max_examples=200, deadline=None)
    def test_refinement_matches_scanning_oracle(self, case):
        W, side, max_swaps = case
        assert np.any(W.data == 0)  # the zero weight is stored, not dropped
        fast, slow = side.copy(), side.copy()
        _refine_bipartition(W, fast, max_swaps)
        scan_refine(W, slow, max_swaps)
        assert np.array_equal(fast, slow)

    def test_validation_rejects_imbalance(self):
        with pytest.raises(ValueError, match="unbalanced"):
            Partition(10, 2, np.array([0] * 8 + [1] * 2))

    def test_validation_rejects_region_missing_a_subdomain_vertex(self):
        from graphcoarsen import IndexSet

        regions = (IndexSet(np.array([0, 1, 2]), 4), IndexSet(np.array([1, 3]), 4))
        with pytest.raises(ValueError, match="oversampled set 1 does not contain"):
            Partition(4, 2, np.array([0, 0, 1, 1]), oversampled=regions)


class TestOversample:
    def test_zero_radius_is_identity(self):
        g = lattice_graph(6, 6, spacing=0.2)
        part = partition_balanced(g, 4, seed=0)
        part = oversample(g, part, 0.0)
        for k in range(4):
            assert np.array_equal(part.oversampled[k].ids, part.subdomain(k).ids)

    def test_domain_diameter_covers_everything(self):
        g = lattice_graph(5, 5, spacing=0.25)
        part = partition_balanced(g, 3, seed=0)
        part = oversample(g, part, 10.0)
        for k in range(3):
            assert len(part.oversampled[k]) == g.n_vertices

    def test_matches_brute_force_scan(self):
        g = lattice_graph(10, 10, spacing=1.0 / 9.0)  # unit square
        part = partition_balanced(g, 4, seed=0)
        for delta in (0.1, 0.12, 0.25):
            part_os = oversample(g, part, delta)
            for k in range(4):
                expected = brute_force_oversample(g, part.subdomain(k).ids, delta)
                assert set(part_os.oversampled[k].ids.tolist()) == expected

    def test_monotone_in_radius(self):
        g = lattice_graph(9, 9, spacing=0.125)
        part = partition_balanced(g, 4, seed=0)
        prev = None
        for delta in (0.0, 0.13, 0.3, 0.6):
            cur = oversample(g, part, delta)
            if prev is not None:
                for k in range(4):
                    assert np.all(np.isin(prev.oversampled[k].ids,
                                          cur.oversampled[k].ids))
            prev = cur

    def test_closure_mode_contains_vertex_mode(self):
        g = lattice_graph(8, 8, spacing=0.15)
        part = partition_balanced(g, 4, seed=0)
        v = oversample(g, part, 0.2, mode="vertex")
        c = oversample(g, part, 0.2, mode="closure")
        for k in range(4):
            assert np.all(np.isin(v.oversampled[k].ids, c.oversampled[k].ids))
        # closure consists of whole subdomains
        for k in range(4):
            subs = np.unique(part.assignment[c.oversampled[k].ids])
            expect = np.flatnonzero(np.isin(part.assignment, subs))
            assert np.array_equal(c.oversampled[k].ids, expect)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), delta=st.floats(0.0, 0.6),
           mode=st.sampled_from(["vertex", "closure"]), seed=st.integers(0, 2**32 - 1))
    def test_random_points_match_brute_force(self, n, delta, mode, seed):
        rng = np.random.default_rng(seed)
        coords = rng.random((n, 2))
        g = WeightedGraph.build(n, [], coords=coords)
        n_sub = int(rng.integers(1, n + 1))
        part = Partition(n, n_sub, np.arange(n) % n_sub, balance_tol=float(n))
        check_regions(part, oversample(g, part, delta, mode=mode),
                      lambda ids: brute_force_oversample(g, ids, delta), mode)

    @pytest.mark.parametrize("mode", ["vertex", "closure"])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_exact_ties_on_lattice(self, mode, steps):
        # delta a multiple of the spacing: lattice neighbors sit exactly at delta
        g = lattice_graph(9, 7, spacing=0.25)
        part = partition_balanced(g, 6, seed=0)
        delta = 0.25 * steps
        check_regions(part, oversample(g, part, delta, mode=mode),
                      lambda ids: brute_force_oversample(g, ids, delta), mode)


class TestGraphDistanceOversample:
    def _path_partition(self):
        g = WeightedGraph.build(10, [(i, i + 1, 1.0) for i in range(9)])
        assignment = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 2])
        return g, Partition(10, 3, assignment, balance_tol=1.0)

    def test_zero_hops(self):
        g, part = self._path_partition()
        out = oversample(g, part, 0)
        assert np.array_equal(out.oversampled[1].ids, [4, 5])

    def test_two_hops_on_path(self):
        g, part = self._path_partition()
        out = oversample(g, part, 2)
        assert np.array_equal(out.oversampled[1].ids, [2, 3, 4, 5, 6, 7])

    def test_diameter_many_hops_covers_all(self):
        g, part = self._path_partition()
        out = oversample(g, part, 9)
        for k in range(3):
            assert len(out.oversampled[k]) == 10

    def test_closure_on_path(self):
        g, part = self._path_partition()
        out = oversample(g, part, 1, mode="closure")
        assert np.array_equal(out.oversampled[1].ids, np.arange(10))
        assert np.array_equal(out.oversampled[0].ids, np.arange(6))

    @pytest.mark.parametrize("delta_h", [2.5, 0.1])
    def test_fractional_hop_count_rejected(self, delta_h):
        g, part = self._path_partition()
        with pytest.raises(ValueError, match=f"delta_h = {delta_h} is not a hop count"):
            oversample(g, part, delta_h)

    def test_whole_float_hop_count_accepted(self):
        g, part = self._path_partition()
        assert np.array_equal(oversample(g, part, 2.0).oversampled[1].ids,
                              [2, 3, 4, 5, 6, 7])

    @settings(max_examples=60, deadline=None)
    @given(case=random_partitioned_graphs(), hops=st.integers(0, 4),
           mode=st.sampled_from(["vertex", "closure"]))
    def test_matches_bfs(self, case, hops, mode):
        g, part = case
        check_regions(part, oversample(g, part, hops, mode=mode),
                      lambda ids: bfs_oversample(g, ids, hops), mode)
