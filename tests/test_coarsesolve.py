import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from graphcoarsen import (SingularSystemError, TransientConfig, WeightedGraph,
                          apply_boundary, assemble_signed_laplacian, coarsesolve, errors, graph,
                          galerkin_coarse, galerkin_residual, oversample,
                          partition_balanced, solve_fine, solve_parabolic,
                          solve_steady)
from graphcoarsen.clustering import cluster_partition
from graphcoarsen.interpolation import (ColumnInfo, Prolongation, cf_ideal_global, cf_split,
                                        mc_global)
from graphcoarsen.experiments import build_prolongation
from oracles import centroid_clusters, stepped_states


def identity_prolongation(n):
    cols = tuple(ColumnInfo(0, r, None) for r in range(n))
    return Prolongation(sp.identity(n, format="csr"), "mc-glo", cols)


@pytest.fixture(scope="module")
def spd_system():
    g = WeightedGraph.build(5, [(i, i + 1, 1.0) for i in range(4)],
                            robin=[(0, 2.0, 1.0), (4, 2.0, 0.0)])
    A, f = apply_boundary(assemble_signed_laplacian(g), g)
    return g, A, f


@pytest.fixture(scope="module")
def channel_pipeline(request):
    from graphcoarsen.experiments import build_problem

    prob = build_problem({"family": "fem", "nx": "12", "ny": "12",
                          "contrast": "1e4", "holes": "0.3,0.3,0.1"})
    part = partition_balanced(prob.graph, 4, seed=0)
    part_os = oversample(prob.graph, part, 0.25)
    clusters = cluster_partition(prob.graph, part, 3, seed=0)
    return prob, part, part_os, clusters


class TestGalerkin:
    def test_identity_prolongation_keeps_operator(self, spd_system):
        _, A, f = spd_system
        model = galerkin_coarse(A, f, identity_prolongation(5))
        assert np.array_equal(model.operator.toarray(), A.toarray())
        assert np.array_equal(model.rhs, f)

    def test_single_constant_column(self, spd_system):
        _, A, f = spd_system
        ones = Prolongation(sp.csr_matrix(np.ones((5, 1))), "mc-glo",
                            (ColumnInfo(0, 0, None),))
        model = galerkin_coarse(A, f, ones)
        assert model.operator.toarray()[0, 0] == pytest.approx(A.toarray().sum())
        assert model.rhs[0] == pytest.approx(f.sum())

    def test_cf_global_matches_dense_schur(self, channel_pipeline):
        prob, part, _, clusters = channel_pipeline
        A = prob.operator
        C, F = cf_split(clusters, prob.graph.n_vertices)
        P = cf_ideal_global(A, clusters)
        model = galerkin_coarse(A, prob.rhs, P)
        Ad = A.toarray()
        S = Ad[np.ix_(C.ids, C.ids)] - Ad[np.ix_(C.ids, F.ids)] @ np.linalg.solve(
            Ad[np.ix_(F.ids, F.ids)], Ad[np.ix_(F.ids, C.ids)])
        assert np.linalg.norm(model.operator.toarray() - S) <= 1e-10 * np.linalg.norm(S)

    @staticmethod
    def carrying(channel_pipeline, method):
        prob, part, part_os, clusters = channel_pipeline
        return prob, build_prolongation(method, prob, clusters,
                                        part_os if method.endswith("-loc") else part)

    @pytest.mark.parametrize("method", ["cf-glo", "mc-glo", "cf-loc", "mc-loc"])
    def test_carried_operator_of_another_matrix_rejected(self, channel_pipeline, method):
        prob, P = self.carrying(channel_pipeline, method)
        with pytest.raises(ValueError, match="carried coarse operator"):
            galerkin_coarse(2 * prob.operator, prob.rhs, P)

    @pytest.mark.parametrize("method", ["cf-glo", "mc-glo", "cf-loc", "mc-loc"])
    def test_perturbed_carried_operator_rejected(self, channel_pipeline, method):
        prob, P = self.carrying(channel_pipeline, method)
        bad = P.operator * (1 + 1e-6)
        with pytest.raises(ValueError, match="carried coarse operator"):
            galerkin_coarse(prob.operator, prob.rhs, replace(P, operator=bad))

    def test_skewed_sparse_operator(self, channel_pipeline):
        """A sparse carried operator is checked for asymmetry as a dense one
        is, and symmetrized into a new operator only when it is skewed."""
        prob, P = self.carrying(channel_pipeline, "cf-loc")
        A, f = prob.operator, prob.rhs
        scale = np.abs(P.operator.data).max()
        for delta, raises in ((1e-10 * scale, True), (1e-11 * scale, False)):
            # small enough to pass the probe
            E = sp.csr_matrix(([delta, -delta], ([0, 1], [1, 0])), shape=P.operator.shape)
            skewed = replace(P, operator=(P.operator + E).tocsr())
            if raises:
                with pytest.raises(ValueError, match="symmetry"):
                    galerkin_coarse(A, f, skewed)
            else:
                A_c = galerkin_coarse(A, f, skewed).operator
                assert A_c is not skewed.operator and (A_c != A_c.T).nnz == 0
                assert abs(A_c - P.operator).max() <= 1e-14 * scale

    def test_triple_product_transposed_once(self, channel_pipeline, monkeypatch):
        """For a P that carries no operator, the triple product is transposed
        once for its asymmetry check and its symmetrization, into the same
        matrix, bit for bit, as a symmetrization with a transpose of its own."""
        prob, P = self.carrying(channel_pipeline, "mc-loc")
        A, bare = prob.operator, replace(P, operator=None)
        product = (bare.matrix.T @ (A @ bare.matrix)).tocsr()
        want = graph._symmetric_part(product.copy())
        assert not np.array_equal(want.data, product.data)  # it was skewed
        calls = []

        def counted(B):
            calls.append(B.nnz)
            return transpose(B)

        transpose = graph._transpose
        monkeypatch.setattr(graph, "_transpose", counted)
        monkeypatch.setattr(coarsesolve, "_transpose", counted)
        got = galerkin_coarse(A, prob.rhs, bare).operator
        assert len(calls) == 1
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_operator_of_wrong_shape_rejected(self):
        cols = tuple(ColumnInfo(0, r, None) for r in range(3))
        with pytest.raises(ValueError, match="n_coarse x n_coarse"):
            Prolongation(sp.identity(3, format="csr"), "mc-glo", cols, operator=np.eye(2))


class TestSteady:
    def test_identity_reproduces_fine_solution(self, spd_system):
        _, A, f = spd_system
        u = solve_fine(A, f)
        model = galerkin_coarse(A, f, identity_prolongation(5))
        _, u_ms = solve_steady(model)
        assert np.allclose(u_ms, u, rtol=1e-14)

    def test_zero_rhs_zero_solution(self, spd_system):
        _, A, _ = spd_system
        model = galerkin_coarse(A, np.zeros(5), identity_prolongation(5))
        _, u_ms = solve_steady(model)
        assert np.array_equal(u_ms, np.zeros(5))

    def test_cf_exact_at_coarse_points(self, channel_pipeline):
        prob, part, _, clusters = channel_pipeline
        A, f = prob.operator, prob.rhs
        C, _ = cf_split(clusters, prob.graph.n_vertices)
        P = cf_ideal_global(A, clusters)
        model = galerkin_coarse(A, f, P)
        _, u_ms = solve_steady(model)
        u = solve_fine(A, f)
        num = np.linalg.norm(u_ms[C.ids] - u[C.ids])
        assert num <= 1e-9 * np.linalg.norm(u[C.ids])


class TestFineSolve:
    def test_diagonal(self):
        assert solve_fine(sp.diags([2.0]).tocsr(), np.array([4.0])) == pytest.approx([2.0])

    def test_identity(self):
        f = np.array([1.0, -2.0, 3.0])
        assert np.allclose(solve_fine(sp.identity(3, format="csr"), f), f)

    def test_poisson_path(self):
        g = WeightedGraph.build(5, [(i, i + 1, 1.0) for i in range(4)])
        from graphcoarsen import eliminate_dirichlet

        A, f, _ = eliminate_dirichlet(assemble_signed_laplacian(g), np.ones(5),
                                      [(0, 0.0), (4, 0.0)])
        assert np.allclose(solve_fine(A, f), [1.5, 2.0, 1.5])


class TestParabolic:
    def test_pure_mass_is_constant(self):
        # C u' = f from zero: each step adds tau f / c, so u_k = k tau f / c
        c, tau = np.array([1.0, 2.0, 4.0]), 0.5
        f = np.array([1.0, -2.0, 3.0])
        res = solve_parabolic(c, sp.csr_matrix((3, 3)), f, TransientConfig(tau=tau, n_steps=4))
        expected = np.arange(5)[:, None] * tau * f / c
        assert np.allclose(res.states, expected, rtol=1e-13, atol=0)

    def test_scalar_decay_closed_form(self):
        # c u' + a u = f from zero: u_k = (f/a) (1 - (1 + a tau/c)^-k)
        c, a, f, tau = 2.0, 3.0, 1.5, 0.25
        A = sp.csr_matrix(np.array([[a]]))
        res = solve_parabolic(np.array([c]), A, np.array([f]),
                              TransientConfig(tau=tau, n_steps=6))
        expected = (f / a) * (1.0 - (1.0 + a * tau / c) ** (-np.arange(7)))
        assert np.allclose(res.states.ravel(), expected, rtol=1e-13, atol=0)

    def test_identity_coarse_matches_fine(self, spd_system):
        _, A, f = spd_system
        cap = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        cfg = TransientConfig(tau=0.3, n_steps=5)
        fine = solve_parabolic(cap, A, f, cfg)
        coarse = solve_parabolic(cap, A, f, cfg, P=identity_prolongation(5))
        scale = np.abs(fine.states).max()
        assert np.abs(coarse.states - fine.states).max() <= 1e-12 * scale

    def test_nonpositive_capacity_rejected(self, spd_system):
        _, A, f = spd_system
        with pytest.raises(ValueError, match="positive"):
            solve_parabolic(np.zeros(5), A, f, TransientConfig(tau=1.0, n_steps=1))

    @pytest.mark.parametrize("capacity", [
        np.diag([0.5, 1.0, 1.5, 2.0, 2.5]), sp.diags([0.5, 1.0, 1.5, 2.0, 2.5]).tocsr(),
        np.ones(4), np.ones(6), np.ones((5, 1))],
        ids=["dense-matrix", "sparse-matrix", "short", "long", "column"])
    def test_capacity_not_one_per_vertex_rejected(self, spd_system, capacity):
        """A capacity is one value per vertex: a matrix, even a diagonal one,
        or a vector of another shape is rejected by the fine run, the coarse
        run and the Galerkin model, in a message that names the capacity."""
        _, A, f = spd_system
        cfg, P = TransientConfig(tau=0.5, n_steps=3), identity_prolongation(5)
        message = "capacity must be a vector of 5 values, one per vertex, got shape " \
            + re.escape(str(capacity.shape))
        for call in (lambda: solve_parabolic(capacity, A, f, cfg),
                     lambda: solve_parabolic(capacity, A, f, cfg, P=P),
                     lambda: galerkin_coarse(A, f, P, capacity=capacity)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_config_validation(self):
        for tau in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                TransientConfig(tau=tau, n_steps=2)
        with pytest.raises(ValueError):
            TransientConfig(tau=1.0, n_steps=0)
        cfg = TransientConfig(tau=5.0, n_steps=20)
        assert cfg.total_time == pytest.approx(100.0)


class TestSparseCapacityGuard:
    """A sparse P, with a sparse carried operator or none, keeps the sparse
    path: a sparse
    ``P^T C P`` and no dense n x n_c copy of P, even at the size of C08."""

    @pytest.fixture(scope="class")
    def pore(self):
        from graphcoarsen.experiments import build_problem

        prob = build_problem({"family": "pore", "nx": "64", "ny": "64"})
        part = partition_balanced(prob.graph, 25, seed=0)
        clusters = cluster_partition(prob.graph, part, 16, seed=0)
        return prob, part, clusters

    @pytest.mark.parametrize("kind", ["mc-loc", "identity"])
    def test_stays_sparse(self, pore, kind):
        prob, part, clusters = pore
        n = prob.graph.n_vertices
        if kind == "identity":
            P = identity_prolongation(n)
        else:
            P = build_prolongation(kind, prob, clusters, oversample(prob.graph, part, 4.0))
        cfg = TransientConfig(tau=5.0, n_steps=2)
        tracemalloc.start()
        try:
            model = galerkin_coarse(prob.operator, prob.rhs, P, capacity=prob.capacity)
            solve_parabolic(prob.capacity, prob.operator, prob.rhs, cfg, P=P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.issparse(model.capacity)
        assert peak < 8 * n * P.n_coarse  # bytes of one dense float64 copy of P


class TestTrajectory:
    """A coarse run's fine states are rebuilt when they are read, through
    P's own product: one matvec per index and per step of an iteration,
    the bulk product ``u_c P^T`` for slices and ``np.asarray``."""

    @pytest.fixture(scope="class", params=["cf-loc", "mc-glo", "identity"])
    def states(self, request, channel_pipeline):
        prob, part, part_os, clusters = channel_pipeline
        n = prob.graph.n_vertices
        if request.param == "identity":
            P = identity_prolongation(n)
        else:
            P = build_prolongation(request.param, prob, clusters,
                                   part_os if request.param.endswith("-loc") else part)
        res = solve_parabolic(np.ones(n), prob.operator, prob.rhs, TransientConfig(0.1, 12),
                              P=P)
        assert isinstance(res.states, coarsesolve.Trajectory)
        return res.states

    def test_index_matches_materialized(self, states):
        """Bit for bit, for every kind of P: the matvec and the bulk product
        sum each row of P in the same order."""
        full = np.asarray(states)
        assert len(states) == full.shape[0] == 13
        for k in [*range(len(states)), -1, -len(states)]:
            assert states[k].shape == full[k].shape
            assert np.array_equal(states[k], full[k])
        assert np.array_equal(states[3:11:2], full[3:11:2])

    def test_index_past_end_raises(self, states):
        for k in (len(states), -len(states) - 1):
            with pytest.raises(IndexError):
                states[k]
        with pytest.raises(TypeError):
            states[1.0]

    def test_iteration_matches_rows(self, states):
        full = np.asarray(states)
        rows = list(states)
        assert len(rows) == len(full)
        assert all(np.array_equal(row, ref) for row, ref in zip(rows, full))

    def test_array_protocol(self, states):
        full = np.asarray(states, dtype=np.float64)
        assert full.dtype == np.float64 and full.shape == (13, states.prolongation.matrix.shape[0])
        assert np.array_equal(full, np.asarray(states))
        with pytest.raises(ValueError, match="rebuilt on every read"):
            states.__array__(copy=False)

    @pytest.mark.parametrize("kind", ["cf-loc", "mc-glo"])
    def test_last_state_holds_no_trajectory(self, kind):
        """Reading the last state of 2000 steps on a pore 32^2 lattice stays
        below the bytes of one full fine trajectory."""
        from graphcoarsen.experiments import build_problem

        prob = build_problem({"family": "pore", "nx": "32", "ny": "32"})
        part = partition_balanced(prob.graph, 4, seed=0)
        clusters = cluster_partition(prob.graph, part, 16, seed=0)
        P = build_prolongation(kind, prob, clusters,
                               oversample(prob.graph, part, 4.0) if kind == "cf-loc" else part)
        cfg = TransientConfig(0.05, 2000)
        tracemalloc.start()
        try:
            last = solve_parabolic(prob.capacity, prob.operator, prob.rhs, cfg, P=P).states[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = prob.graph.n_vertices
        assert last.shape == (n,) and P.n_coarse == 64
        assert peak < 8 * n * (cfg.n_steps + 1)

    @pytest.mark.parametrize("kind", ["cf-loc", "mc-glo"])
    def test_export_holds_one_state(self, tmp_path, kind):
        """Writing the trajectory of a coarse run rebuilds one fine state per
        step: its traced peak stays below the bytes of the whole trajectory."""
        from graphcoarsen import fileio
        from graphcoarsen.experiments import build_problem

        prob = build_problem({"family": "pore", "nx": "16", "ny": "16"})
        part = partition_balanced(prob.graph, 4, seed=0)
        clusters = cluster_partition(prob.graph, part, 4, seed=0)
        P = build_prolongation(kind, prob, clusters,
                               oversample(prob.graph, part, 4.0) if kind == "cf-loc" else part)
        cfg = TransientConfig(0.05, 300)
        res = solve_parabolic(prob.capacity, prob.operator, prob.rhs, cfg, P=P)
        tracemalloc.start()
        try:
            fileio.write_trajectory(res.times, res.states, tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = prob.graph.n_vertices
        assert peak < 8 * n * (cfg.n_steps + 1)
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert len(lines) == 1 + n * (cfg.n_steps + 1)
        last = np.array([float(ln.split(",")[3]) for ln in lines[-n:]])
        assert np.array_equal(last, res.states[-1])  # %.17g round-trips


class TestModalClosedForm:
    """A coarse model with n_c^3 <= _MODAL_COST n_steps nnz(A_c) takes
    backward Euler in modal closed form: the same scheme as stepping it,
    without a factorization."""

    @staticmethod
    def both_paths(c, A, f, P, cfg):
        """The solver's states and the stepping oracle on the same coarse model."""
        states = solve_parabolic(c, A, f, cfg, P=P).states
        return states, stepped_states(galerkin_coarse(A, f, P, capacity=c), cfg)

    @staticmethod
    def closed_form_steps(A, f, P):
        """The least n_steps with n_c^3 <= _MODAL_COST n_steps nnz(A_c)."""
        model = galerkin_coarse(A, f, P)
        steps = -(-model.n_coarse**3 // (coarsesolve._MODAL_COST * model.operator.nnz))
        assert steps >= 2  # so that one step fewer is below the boundary
        return int(steps)

    @pytest.mark.parametrize("kind", ["cf-glo", "mc-glo", "cf-loc", "mc-loc"])
    def test_long_horizon_matches_stepping(self, channel_pipeline, kind):
        prob, part, part_os, clusters = channel_pipeline
        A, n = prob.operator, prob.graph.n_vertices
        P = build_prolongation(kind, prob, clusters,
                               part_os if kind.endswith("-loc") else part)
        assert P.dense == kind.endswith("-glo")
        c = np.random.default_rng(3).uniform(0.1, 1.0, n)
        states, ref = self.both_paths(c, A, prob.rhs, P, TransientConfig(0.05, 2000))
        assert np.linalg.norm(states - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_pure_neumann_schur_complement(self):
        # unshifted connected Laplacian: A_c is singular, A_FF is not
        g = WeightedGraph.build(
            16, [(i, i + 1, 1.0 + i % 3) for i in range(15) if i % 4 != 3]
            + [(i, i + 4, 2.0) for i in range(12)])
        A = assemble_signed_laplacian(g).tocsr()
        P = cf_ideal_global(A, centroid_clusters(16, [0, 6, 9, 15]))
        assert np.linalg.eigvalsh(P.operator)[0] < 1e-12
        rng = np.random.default_rng(4)
        c, f = rng.uniform(0.1, 1.0, 16), rng.uniform(0.0, 1.0, 16)
        states, ref = self.both_paths(c, A, f, P, TransientConfig(0.1, 300))
        assert np.all(np.isfinite(states))
        assert np.linalg.norm(states - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_exact_zero_mode_grows_linearly(self):
        # a unit-weight path Laplacian maps constants to exactly zero, so the
        # single coarse mode has lam = 0 and u = k tau f_c / C_c
        g = WeightedGraph.build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        A = assemble_signed_laplacian(g).tocsr()
        ones = Prolongation(sp.csr_matrix(np.ones((4, 1))), "mc-glo",
                            (ColumnInfo(0, 0, None),), operator=np.zeros((1, 1)))
        c, f = np.array([1.0, 2.0, 0.5, 0.5]), np.array([1.0, 0.0, 2.0, 0.0])
        cfg = TransientConfig(0.25, 8)
        res = solve_parabolic(c, A, f, cfg, P=ones)
        # A_c = 0 stores no entry, so solve_parabolic steps: call the closed form too
        modal = coarsesolve._modal_backward_euler(galerkin_coarse(A, f, ones, capacity=c),
                                                  cfg)
        expected = cfg.times * f.sum() / c.sum()
        assert np.allclose(res.states, expected[:, None], rtol=1e-14, atol=0)
        assert np.allclose(modal, expected[:, None], rtol=1e-14, atol=0)

    def test_dependent_columns_rejected(self, spd_system):
        _, A, f = spd_system
        D = np.random.default_rng(5).uniform(0.0, 1.0, (5, 2))[:, [0, 0, 1]]
        cols = tuple(ColumnInfo(0, r, None) for r in range(3))
        P = Prolongation(sp.csr_matrix(D), "mc-glo", cols, operator=D.T @ (A @ D))
        with pytest.raises(SingularSystemError, match="coarse capacity"):
            solve_parabolic(np.ones(5), A, f, TransientConfig(0.1, 3), P=P)

    def test_capacity_pivot_below_threshold_rejected(self):
        # C_c = diag(1, 1e-17) has a Cholesky factor, but its second pivot
        # is below n_c eps max c_ii, the relative test RefinedLU applies
        A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        cols = tuple(ColumnInfo(0, r, None) for r in range(2))
        P = Prolongation(sp.identity(2, format="csr"), "mc-glo", cols, operator=A.toarray())
        with pytest.raises(SingularSystemError, match="coarse capacity"):
            solve_parabolic(np.array([1.0, 1e-17]), A, np.ones(2), TransientConfig(0.1, 3),
                            P=P)

    @staticmethod
    def near_copy_of_column(P, delta):
        """P with one more column, a copy of column 0 perturbed by ``delta``
        relative on that column's support."""
        M = P.matrix.tocsc()
        col = M[:, 0].toarray().ravel()
        pert = np.zeros_like(col)
        support = np.flatnonzero(col)
        pert[support] = np.random.default_rng(1).uniform(-1.0, 1.0, support.size)
        D = sp.hstack([M, sp.csc_matrix((col + delta * pert)[:, None])]).tocsr()
        return Prolongation(D, P.kind, P.columns + (P.columns[0],))

    def test_nearly_dependent_columns_pass_the_check(self, channel_pipeline):
        # C_c has condition ~1e14, below the n_c eps positive-definiteness
        # test: the closed form still has the backward error of a step
        prob, _, part_os, clusters = channel_pipeline
        P = self.near_copy_of_column(build_prolongation("cf-loc", prob, clusters, part_os),
                                     1e-7)
        c = np.random.default_rng(3).uniform(0.1, 1.0, prob.graph.n_vertices)
        cap_eigs = np.linalg.eigvalsh(
            galerkin_coarse(prob.operator, prob.rhs, P, capacity=c).capacity.toarray())
        assert cap_eigs[-1] / cap_eigs[0] > 1e13
        states, ref = self.both_paths(c, prob.operator, prob.rhs, P, TransientConfig(0.05, 50))
        assert np.linalg.norm(states - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_inaccurate_closed_form_raises(self, channel_pipeline, monkeypatch):
        prob, _, part_os, clusters = channel_pipeline
        P = build_prolongation("cf-loc", prob, clusters, part_os)
        real_eigh = coarsesolve.sla.eigh

        def perturbed_eigh(*args, **kwargs):
            lam, V = real_eigh(*args, **kwargs)
            return lam, V * (1 + 1e-6 * np.random.default_rng(0).standard_normal(V.shape))

        monkeypatch.setattr(coarsesolve.sla, "eigh", perturbed_eigh)
        with pytest.raises(SingularSystemError, match="backward error"):
            solve_parabolic(np.ones(prob.graph.n_vertices), prob.operator, prob.rhs,
                            TransientConfig(0.05, 50), P=P)

    @staticmethod
    def factorizations(monkeypatch):
        made, real_lu = [], coarsesolve.RefinedLU

        def counting_lu(*args, **kwargs):
            made.append(kwargs.get("context"))
            return real_lu(*args, **kwargs)

        monkeypatch.setattr(coarsesolve, "RefinedLU", counting_lu)
        return made

    def test_no_factorization(self, channel_pipeline, monkeypatch):
        prob, part, _, clusters = channel_pipeline
        A, f, cap = prob.operator, prob.rhs, np.ones(prob.graph.n_vertices)
        P = mc_global(A, clusters)
        made = self.factorizations(monkeypatch)
        solve_parabolic(cap, A, f, TransientConfig(0.1, self.closed_form_steps(A, f, P)), P=P)
        assert made == []
        # without its carried operator, one step below the boundary
        P = replace(P, operator=None)
        solve_parabolic(cap, A, f, TransientConfig(0.1, self.closed_form_steps(A, f, P) - 1),
                        P=P)
        assert made == ["coarse time-step operator"]

    def test_sparse_p_modal_from_boundary_steps(self, channel_pipeline, monkeypatch):
        prob, _, part_os, clusters = channel_pipeline
        A, f, cap = prob.operator, prob.rhs, np.ones(prob.graph.n_vertices)
        P = build_prolongation("cf-loc", prob, clusters, part_os)
        assert not P.dense
        made = self.factorizations(monkeypatch)
        steps = self.closed_form_steps(A, f, P)
        solve_parabolic(cap, A, f, TransientConfig(0.1, steps), P=P)
        assert made == []
        solve_parabolic(cap, A, f, TransientConfig(0.1, steps - 1), P=P)
        assert made == ["coarse time-step operator"]

    def test_sparse_model_steps(self, monkeypatch):
        from graphcoarsen.experiments import build_problem

        prob = build_problem({"family": "pore", "nx": "16", "ny": "16"})
        n = prob.graph.n_vertices
        assert n**3 > coarsesolve._MODAL_COST * (2 * n) * prob.operator.nnz
        made = self.factorizations(monkeypatch)
        solve_parabolic(prob.capacity, prob.operator, prob.rhs,
                        TransientConfig(5.0, 2 * n), P=identity_prolongation(n))
        assert made == ["coarse time-step operator"]

    @pytest.mark.parametrize("kind", ["mc-glo", "cf-loc", "identity"])
    def test_rule_boundary(self, channel_pipeline, monkeypatch, kind):
        """The closed form runs from n_c^3 = _MODAL_COST n_steps nnz(A_c) up,
        for a carried, a localized and an identity P, and either side gives
        the stepping oracle's states."""
        if kind == "identity":
            from graphcoarsen.experiments import build_problem

            prob = build_problem({"family": "pore", "nx": "16", "ny": "16"})
            P, c, tau = identity_prolongation(prob.graph.n_vertices), prob.capacity, 5.0
        else:
            prob, part, part_os, clusters = channel_pipeline
            P = build_prolongation(kind, prob, clusters, part_os if kind == "cf-loc" else part)
            c, tau = np.random.default_rng(3).uniform(0.1, 1.0, prob.graph.n_vertices), 0.05
        assert P.dense == (kind == "mc-glo")
        A, f = prob.operator, prob.rhs
        steps = self.closed_form_steps(A, f, P)
        made = self.factorizations(monkeypatch)
        for n_steps, contexts in ((steps, []), (steps - 1, ["coarse time-step operator"])):
            made.clear()
            states, ref = self.both_paths(c, A, f, P, TransientConfig(tau, n_steps))
            assert made == contexts
            assert np.linalg.norm(states - ref) <= 1e-12 * np.linalg.norm(ref)


class TestErrors:
    def test_exact_reproduction(self, spd_system):
        _, A, _ = spd_system
        u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert errors(u, u, A) == (0.0, 0.0)

    def test_total_loss(self, spd_system):
        _, A, _ = spd_system
        u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        e1, e2 = errors(u, np.zeros(5), A)
        assert e1 == pytest.approx(100.0) and e2 == pytest.approx(100.0)

    def test_unit_case(self):
        A = sp.identity(2, format="csr")
        e1, e2 = errors(np.array([1.0, 0.0]), np.array([0.0, 0.0]), A)
        assert e1 == pytest.approx(100.0) and e2 == pytest.approx(100.0)

    def test_zero_reference_rejected(self, spd_system):
        _, A, _ = spd_system
        with pytest.raises(ValueError, match="nonzero"):
            errors(np.zeros(5), np.ones(5), A)


class TestGalerkinOrthogonality:
    def test_all_methods(self, channel_pipeline):
        prob, part, part_os, clusters = channel_pipeline
        A, f = prob.operator, prob.rhs
        for method in ("cf-glo", "cf-loc", "mc-glo", "mc-loc"):
            P = build_prolongation(method, prob, clusters, part_os)
            model = galerkin_coarse(A, f, P)
            _, u_ms = solve_steady(model)
            res = galerkin_residual(P, A, f, u_ms)
            assert res <= 1e-9 * np.abs(f).max(), method

    def test_double_restriction_matches_extended(self, channel_pipeline):
        """Once r is formed in extended precision, restricting it in double
        through P's own product loses nothing that the check can see."""
        prob, part, part_os, clusters = channel_pipeline
        A, f = prob.operator, prob.rhs
        u = np.random.default_rng(6).standard_normal(prob.graph.n_vertices)
        ld = np.longdouble
        r = f.astype(ld) - A.astype(ld) @ u.astype(ld)
        for method in ("mc-glo", "mc-loc"):
            P = build_prolongation(method, prob, clusters, part_os)
            extended = float(np.abs(P.matrix.T.astype(ld) @ r).max())
            assert galerkin_residual(P, A, f, u) == pytest.approx(extended, rel=1e-12)

    @pytest.mark.parametrize("entries", [1, 7, 500])
    def test_blocked_residual_matches_one_shot(self, channel_pipeline, entries):
        """A state 1e-9 off the fine solution on a leading block of
        ``entries`` vertices (the whole graph for 500): f and A u cancel to
        many digits, so r formed in double would miss the extended-precision
        P^T r by far more than the tolerance; no absolute slack hides it."""
        prob, part, part_os, clusters = channel_pipeline
        A, f = prob.operator, prob.rhs
        u = solve_fine(A, f)
        block = min(entries, len(u))
        u[:block] += 1e-9 * np.random.default_rng(entries).standard_normal(block)
        ld = np.longdouble
        r = f.astype(ld) - A.astype(ld) @ u.astype(ld)
        for method in ("mc-glo", "mc-loc"):
            P = build_prolongation(method, prob, clusters, part_os)
            one_shot = float(np.abs(P.matrix.T.astype(ld) @ r).max())
            assert galerkin_residual(P, A, f, u) == pytest.approx(one_shot, rel=1e-12, abs=0)

    def test_energy_optimality_random_coarse_perturbations(self, channel_pipeline):
        prob, part, part_os, clusters = channel_pipeline
        A, f = prob.operator, prob.rhs
        P = build_prolongation("mc-glo", prob, clusters, part_os)
        model = galerkin_coarse(A, f, P)
        u_c, u_ms = solve_steady(model)
        u = solve_fine(A, f)
        base = (u - u_ms) @ (A @ (u - u_ms))
        rng = np.random.default_rng(1)
        for _ in range(5):
            trial = u - P.matrix @ (u_c + 0.1 * rng.standard_normal(len(u_c)))
            assert trial @ (A @ trial) >= base - 1e-10

    def test_energy_error_shrinks_on_nested_range(self, channel_pipeline):
        prob, part, part_os, clusters = channel_pipeline
        A, f = prob.operator, prob.rhs
        u = solve_fine(A, f)
        P2 = build_prolongation("mc-glo", prob, clusters, part_os)
        keep = np.arange(0, P2.n_coarse, 2)
        P1 = Prolongation(P2.matrix[:, keep].tocsr(), "mc-glo",
                          tuple(P2.columns[int(c)] for c in keep))
        e2_small = errors(u, solve_steady(galerkin_coarse(A, f, P1))[1], A)[1]
        e2_big = errors(u, solve_steady(galerkin_coarse(A, f, P2))[1], A)[1]
        assert e2_big <= e2_small + 1e-8
