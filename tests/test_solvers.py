import inspect
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoarsen import (SingularSystemError, TransientConfig, coarsesolve,
                          galerkin_coarse, interpolation, oversample, partition_balanced,
                          solve_fine, solve_parabolic, solve_steady)
from graphcoarsen import _solvers
from graphcoarsen._solvers import BACKWARD_ERROR_BOUND, RefinedLU
from graphcoarsen.clustering import cluster_partition
from graphcoarsen.experiments import build_prolongation
from graphcoarsen.interpolation import cf_ideal_global
from oracles import centroid_clusters


def bridged_path(n=40, bridge=1e-17):
    """Path Laplacian anchored at vertex 0 whose far half hangs on one
    ``bridge``-weight edge: SPD in exact arithmetic, singular in floating
    point."""
    w = np.ones(n - 1)
    w[n // 2 - 1] = bridge
    deg = np.r_[w, 0.0] + np.r_[0.0, w]
    deg[0] += 1.0
    return sp.diags([deg, -w, -w], [0, 1, -1], format="csc")


@st.composite
def shifted_laplacians(draw):
    """Random connected weighted graph Laplacian plus a positive diagonal."""
    n = draw(st.integers(2, 12))
    weights = st.floats(0.1, 10.0)
    edges = {(draw(st.integers(0, i - 1)), i): draw(weights) for i in range(1, n)}
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)):
        edges[pair] = draw(weights)
    i, j = np.array(list(edges)).T
    w = np.array(list(edges.values()))
    W = sp.coo_matrix((w, (i, j)), shape=(n, n))
    W = W + W.T
    shift = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    A = sp.diags(np.asarray(W.sum(axis=1)).ravel() + shift) - W
    k = draw(st.integers(1, 4))
    b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * k, max_size=n * k)))
    return A.tocsc(), b.reshape(n, k)


class TestPivotGuard:
    @pytest.mark.parametrize("reverse", [True, False])
    def test_bridged_path_raises(self, monkeypatch, reverse):
        # the guard must not depend on which end of the path is numbered
        # first, nor on the sparse backend
        A = bridged_path()
        if reverse:
            A = A[::-1, ::-1].tocsc()
        for _ in each_backend(monkeypatch):
            with pytest.raises(SingularSystemError, match="bridge"):
                RefinedLU(A, context="bridge")

    def test_bridged_fine_block_raises(self, monkeypatch):
        # vertex 0 is the only coarse vertex; A_FF is the bridged path
        n = 41
        A = sp.lil_matrix((n, n))
        A[1:, 1:] = bridged_path()
        A[0, 0], A[0, 1], A[1, 0] = 1.0, -1.0, -1.0
        for _ in each_backend(monkeypatch):
            with pytest.raises(SingularSystemError, match="A_FF"):
                cf_ideal_global(A.tocsr(), centroid_clusters(n, [0]))

    def test_well_conditioned_factors(self):
        lu = RefinedLU(bridged_path(bridge=1e-3))
        assert lu.backward_error is None
        assert lu.fill > 0
        lu.solve(np.ones(40))
        assert lu.backward_error <= BACKWARD_ERROR_BOUND


class TestCheckedSolve:
    @pytest.mark.parametrize("block", [True, False])
    def test_non_finite_rhs_raises(self, block):
        lu = RefinedLU(sp.identity(3, format="csc") * 2.0, context="toy system")
        b = np.array([1.0, np.inf, 0.0])
        if block:
            b = np.column_stack([np.ones(3), b])
        with pytest.raises(SingularSystemError, match="toy system"):
            lu.solve(b)

    def test_zero_rhs(self):
        lu = RefinedLU(bridged_path(bridge=1.0))
        x = lu.solve(np.zeros((40, 2)))
        assert np.array_equal(x, np.zeros((40, 2)))
        assert lu.backward_error == 0.0

    def test_refinement_per_column(self, monkeypatch):
        # factor a nearby matrix so that refinement has work to do: an error
        # in coordinate 0 flips sign each step, so column 0 stalls and keeps
        # its first solve; one in coordinate 2 falls 1e4-fold per step, so
        # column 1 converges; column 2 is exact and never refined
        for _ in each_backend(monkeypatch):
            lu, widths = perturbed_lu(monkeypatch)
            B = np.array([[1e-12, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
            X = lu.solve(B)
            assert widths == [3, 2, 1, 1]
            assert X[:, 0] == pytest.approx([1e-12, 1.0, 0.0], rel=1e-12, abs=0)
            assert X[:, 1] == pytest.approx([0.0, 0.0, 1.0], rel=1e-15, abs=0)
            assert np.array_equal(X[:, 2], [0.0, 1.0, 0.0])
            assert 1e-13 < lu.backward_error < 1e-12  # the stalled column

    @given(shifted_laplacians())
    @settings(max_examples=60, deadline=None)
    def test_policies_agree_and_check(self, system):
        A, B = system
        x = RefinedLU(A).solve(B)
        x_dense = np.linalg.solve(A.toarray(), B)
        scale = max(np.abs(x_dense).max(), 1e-300)
        assert np.abs(x - x_dense).max() <= 1e-12 * scale

        lu = RefinedLU(A)
        columns = [lu.solve(B[:, j]) for j in range(B.shape[1])]
        assert lu.backward_error <= BACKWARD_ERROR_BOUND
        assert np.abs(np.column_stack(columns) - x).max() <= 1e-12 * scale
        lu.solve(B)
        assert lu.backward_error <= BACKWARD_ERROR_BOUND

    @given(shifted_laplacians())
    @settings(max_examples=60, deadline=None)
    def test_norm_is_largest_absolute_row_sum(self, system):
        # the row sums taken from the CSC arrays, with no copy of |A|, are
        # those of the sparse |A|.sum(axis=1), bit for bit
        lu = RefinedLU(system[0])
        assert lu._norm == float(abs(lu._A).sum(axis=1).max())


def shifted_path(n):
    """Path Laplacian plus the identity: SPD and well conditioned."""
    return sp.diags([np.full(n, 3.0), -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1],
                    format="csc")


# _BAND_COST values that send every sparse matrix to one backend
BACKENDS = {"band Cholesky": np.inf, "SuperLU": 0}
SPARSE_FACTOR = _solvers._sparse_factor


def each_backend(monkeypatch):
    """Yield once per sparse backend, with every sparse matrix sent to that
    backend until the next one."""
    for cost in BACKENDS.values():
        monkeypatch.setattr(_solvers, "_BAND_COST", cost)
        yield


class Recording:
    """Factor stand-in that records the width of every solve it is given."""

    def __init__(self, lu, widths):
        self.lu, self.nnz, self.widths = lu, lu.nnz, widths

    def solve(self, b):
        self.widths.append(b.shape[1])
        return self.lu.solve(b)


def recorded_factors(monkeypatch, E=None):
    """Make every sparse factor of ``RefinedLU`` record its solve widths and,
    with ``E``, factor ``A + E`` in place of ``A``, whichever backend the
    cost rule picks.  Returns the list of recorded widths."""
    widths = []

    def factor(A, context):
        return Recording(SPARSE_FACTOR(A if E is None else (A + E).tocsc(), context), widths)

    monkeypatch.setattr(_solvers, "_sparse_factor", factor)
    return widths


def perturbed_lu(monkeypatch):
    """``RefinedLU`` of ``diag(2, 1, 1)`` whose factors are those of the
    nearby ``diag(1, 1, 1/(1 - 1e-4))``, exact in either backend (see
    ``test_refinement_per_column``): a column with an entry in coordinate 0
    stalls, one in coordinate 2 converges, ``e_1`` is exact.  Returns the
    LU and the list of recorded solve widths."""
    E = sp.diags([-1.0, 0.0, 1e-4 / (1 - 1e-4)], format="csc")
    widths = recorded_factors(monkeypatch, E)
    return RefinedLU(sp.diags([2.0, 1.0, 1.0], format="csc")), widths


STALLS, CONVERGES, EXACT = [1e-12, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]


class TestBlockedSolve:
    """A right-hand side wider than one block is solved block by block,
    each block checked on its own."""

    def test_blocks_match_column_solves(self):
        n = 2000
        width = _solvers._BLOCK_ENTRIES // n
        k = 2 * width + 7  # two full blocks and a partial one
        B = np.random.default_rng(0).standard_normal((n, k))
        lu = RefinedLU(shifted_path(n))
        X = lu.solve(B)
        assert X.shape == (n, k)
        columns = np.column_stack([lu.solve(B[:, j]) for j in range(k)])
        assert np.abs(X - columns).max() <= 1e-14 * np.abs(columns).max()

    @pytest.mark.parametrize("position, expected", [(0, [2, 1, 2, 2]), (5, [2, 2, 2, 1])])
    def test_backward_error_is_worst_over_blocks(self, monkeypatch, position, expected):
        # width 2: blocks {0, 1}, {2, 3}, {4, 5}; the stalled column is the
        # worst wherever it sits, in the first block or in the last
        monkeypatch.setattr(_solvers, "_BLOCK_ENTRIES", 6)
        for _ in each_backend(monkeypatch):
            lu, widths = perturbed_lu(monkeypatch)
            lu.solve(np.array(STALLS)[:, None])
            stalled = lu.backward_error
            assert stalled > 1e-13
            B = np.tile(np.array(EXACT)[:, None], (1, 6))
            B[:, position] = STALLS
            widths.clear()
            lu.solve(B)
            assert widths == expected  # the stalled column is tried once more, alone
            assert lu.backward_error == stalled

    def test_non_finite_in_last_block_raises(self, monkeypatch):
        monkeypatch.setattr(_solvers, "_BLOCK_ENTRIES", 6)
        lu = RefinedLU(sp.identity(3, format="csc") * 2.0, context="toy system")
        B = np.ones((3, 5))
        B[1, 4] = np.nan
        with pytest.raises(SingularSystemError, match="toy system"):
            lu.solve(B)
        assert np.isnan(lu.backward_error)

    def test_refinement_stays_in_its_block(self, monkeypatch):
        # width 2: the converging column is column 2, in the second block
        monkeypatch.setattr(_solvers, "_BLOCK_ENTRIES", 6)
        for _ in each_backend(monkeypatch):
            lu, widths = perturbed_lu(monkeypatch)
            B = np.column_stack([EXACT, EXACT, CONVERGES, EXACT, EXACT])
            X = lu.solve(B)
            # block 1 exact, block 2 refined three times on one column,
            # block 3 a single exact column
            assert widths == [2, 2, 1, 1, 1, 1]
            assert X[:, 2] == pytest.approx(CONVERGES, rel=1e-15, abs=0)
            for j in (0, 1, 3, 4):
                assert np.array_equal(X[:, j], EXACT)
            assert lu.backward_error <= _solvers._EPS

    @pytest.mark.parametrize("shape", [(40,), (40, 1), (40, 9), (40, 0)])
    def test_shapes_kept(self, monkeypatch, shape):
        monkeypatch.setattr(_solvers, "_BLOCK_ENTRIES", 80)  # width 2
        A = shifted_path(40)
        b = np.random.default_rng(1).standard_normal(shape)
        x = RefinedLU(A).solve(b)
        assert x.shape == shape
        assert np.abs(A @ x - b).max(initial=0.0) <= 1e-13


def solve_in_every_context(prob):
    """Make every kind of solve the package makes on ``prob``, yielding the
    name of each method before its coarse solve."""
    part = partition_balanced(prob.graph, 4, seed=0)
    part_os = oversample(prob.graph, part, 0.25)
    clusters = cluster_partition(prob.graph, part, 3, seed=0)
    A, f = prob.operator, prob.rhs
    solve_fine(A, f)
    for method in ("cf-loc", "mc-loc", "cf-glo", "mc-glo"):
        P = build_prolongation(method, prob, clusters,
                               part_os if method.endswith("-loc") else part)
        yield method
        solve_steady(galerkin_coarse(A, f, P))
    cap = np.ones(prob.graph.n_vertices)
    solve_parabolic(cap, A, f, TransientConfig(0.1, 3))
    # one step stays below the closed form's boundary: n_c^3 > _MODAL_COST nnz(A_c)
    P = build_prolongation("cf-loc", prob, clusters, part_os)
    assert P.n_coarse**3 > coarsesolve._MODAL_COST * galerkin_coarse(A, f, P).operator.nnz
    solve_parabolic(cap, A, f, TransientConfig(0.1, 1), P=P)


class TestCallSites:
    def test_one_policy_per_context(self, channel_problem, monkeypatch):
        assert list(inspect.signature(RefinedLU).parameters) == ["A", "context"]
        made, dense, banded, factored = [], [], [], []
        real_lu, real_band, real_splu = RefinedLU, _solvers._BandedCholesky, _solvers.spla.splu
        method = None

        def recording_lu(A, **kwargs):
            made.append(kwargs["context"])
            if isinstance(A, np.ndarray):
                dense.append((kwargs["context"], method))
            return real_lu(A, **kwargs)

        def recording_band(*args):
            banded.append(args[-1])
            return real_band(*args)

        def recording_splu(A, **kwargs):
            factored.append(kwargs)
            return real_splu(A, **kwargs)

        monkeypatch.setattr(coarsesolve, "RefinedLU", recording_lu)
        monkeypatch.setattr(interpolation, "RefinedLU", recording_lu)
        monkeypatch.setattr(_solvers, "_BandedCholesky", recording_band)
        monkeypatch.setattr(_solvers, "spla", SimpleNamespace(splu=recording_splu))
        for method in solve_in_every_context(channel_problem):
            pass

        kinds = {ctx.split(" of subdomain")[0] for ctx in made}
        assert kinds == {"fine operator", "local FF block", "local constrained system",
                         "A_FF (is A positive definite?)", "global constrained system",
                         "coarse operator", "time-step operator",
                         "coarse time-step operator"}
        # dense Cholesky for the carried coarse operators of the global
        # kinds; on this small problem every sparse system has a narrow band
        assert dense == [("coarse operator", "cf-glo"), ("coarse operator", "mc-glo")]
        assert {ctx.split(" of subdomain")[0] for ctx in banded} == kinds
        assert len(banded) + len(dense) == len(made)
        assert factored == []

        # past the band rule every sparse system gets the one SuperLU policy
        monkeypatch.setattr(_solvers, "_BAND_COST", 0)
        for log in (made, dense, banded):
            log.clear()
        for method in solve_in_every_context(channel_problem):
            pass
        assert dense == [("coarse operator", "cf-glo"), ("coarse operator", "mc-glo")]
        assert banded == []
        assert len(factored) + len(dense) == len(made)
        assert all(kw == factored[0] for kw in factored)
        assert factored[0] == dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                   options=dict(SymmetricMode=True))


class TestSparseRhs:
    """A sparse right-hand side is densified one block at a time and gives
    the bits a dense one gives."""

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_same_bits_as_dense(self, fmt):
        n = 2000
        width = _solvers._BLOCK_ENTRIES // n
        B = sp.random(n, 2 * width + 7, density=0.01, format=fmt, random_state=0)
        lu = RefinedLU(shifted_path(n))
        dense = lu.solve(B.toarray())
        dense_error = lu.backward_error
        X = lu.solve(B)
        assert X.shape == dense.shape and X.flags.f_contiguous
        assert np.array_equal(X.view(np.int64), dense.view(np.int64))
        assert lu.backward_error == dense_error

    def test_empty_and_single_column(self):
        lu = RefinedLU(shifted_path(5))
        assert lu.solve(sp.csr_matrix((5, 0))).shape == (5, 0)
        b = sp.csc_matrix(np.arange(5.0)[:, None])
        assert np.array_equal(lu.solve(b), lu.solve(np.arange(5.0)[:, None]))

    def test_raises_at_the_failing_block(self, monkeypatch):
        # width 2: the NaN in column 3 fails the second of three blocks, and
        # the factor never sees more than one block's columns
        monkeypatch.setattr(_solvers, "_BLOCK_ENTRIES", 6)
        for _ in each_backend(monkeypatch):
            widths = recorded_factors(monkeypatch)
            lu = RefinedLU(sp.identity(3, format="csc") * 2.0, context="toy system")
            B = sp.lil_matrix((3, 6))
            B[:, :] = 1.0
            B[1, 3] = np.nan
            with pytest.raises(SingularSystemError, match="toy system"):
                lu.solve(B.tocsr())
            assert widths == [2, 2]
            assert np.isnan(lu.backward_error)


class TestDenseBackend:
    """An ndarray is factored by dense Cholesky, with the pivot test, the
    backward-error check and the context of the SuperLU backend."""

    def test_matches_sparse_backend(self):
        A = shifted_path(30)
        B = np.random.default_rng(2).standard_normal((30, 4))
        lu = RefinedLU(A.toarray(), context="dense system")
        assert lu.backward_error is None
        assert lu.fill == 30 * 31 // 2
        X = lu.solve(B)
        assert lu.backward_error <= _solvers._EPS
        ref = RefinedLU(A).solve(B)
        assert np.abs(X - ref).max() <= 1e-14 * np.abs(ref).max()
        assert lu.solve(B[:, 0]).shape == (30,)

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite: Cholesky fails
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
        bridged_path().toarray(),  # SPD in exact arithmetic, pivot below n eps
    ])
    def test_rejects_singular_or_indefinite(self, A):
        with pytest.raises(SingularSystemError, match="bridge"):
            RefinedLU(A, context="bridge")

    def test_pivot_test_is_shared(self, monkeypatch):
        # diag(1, 1e-17) factors, but its second pivot is below n eps max|a_ii|
        # in every backend
        for _ in each_backend(monkeypatch):
            for A in (sp.diags([1.0, 1e-17], format="csc"), np.diag([1.0, 1e-17])):
                with pytest.raises(SingularSystemError, match="pivot"):
                    RefinedLU(A, context="bridge")

    def test_non_finite_rhs_raises(self):
        lu = RefinedLU(np.eye(3) * 2.0, context="toy system")
        with pytest.raises(SingularSystemError, match="toy system"):
            lu.solve(np.array([1.0, np.nan, 0.0]))
        assert np.isnan(lu.backward_error)


def arrow(n):
    """Shifted star Laplacian: vertex 0 joined to every other vertex.  Any
    ordering leaves a half-bandwidth of at least ``(n - 1) / 2``."""
    A = sp.lil_matrix((n, n))
    A[0, 1:] = A[1:, 0] = -1.0
    A.setdiag(np.r_[n - 1.0, np.ones(n - 1)] + 1.0)
    return A.tocsc()


class TestBandBackend:
    """A sparse matrix with a narrow band after reverse Cuthill-McKee is
    factored in band storage, with the checks of the other backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(system=shifted_laplacians())
    @settings(max_examples=60, deadline=None)
    def test_each_backend_agrees_with_dense_solve(self, backend, system):
        A, B = system
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_solvers, "_BAND_COST", BACKENDS[backend])
            lu = RefinedLU(A)
        assert isinstance(lu._lu, _solvers._BandedCholesky) == (backend == "band Cholesky")
        x = lu.solve(B)
        x_dense = np.linalg.solve(A.toarray(), B)
        assert np.abs(x - x_dense).max() <= 1e-12 * max(np.abs(x_dense).max(), 1e-300)
        assert lu.backward_error <= BACKWARD_ERROR_BOUND

    @pytest.mark.parametrize("reverse", [True, False])
    def test_path_takes_band_path(self, reverse):
        # the rule sends the path to the band backend, numbered either way;
        # TestPivotGuard raises on it there and on SuperLU
        order = slice(None, None, -1 if reverse else 1)
        lu = RefinedLU(bridged_path(bridge=1.0)[order, order].tocsc())
        assert isinstance(lu._lu, _solvers._BandedCholesky)
        assert lu.fill == 2 * 40  # half-bandwidth 1

    def test_indefinite_raises(self):
        # a negative diagonal entry halfway: dpbtrf stops with info > 0
        A = shifted_path(20).tolil()
        A[10, 10] = -3.0
        with pytest.raises(SingularSystemError, match="toy system.*dpbtrf info"):
            RefinedLU(A.tocsc(), context="toy system")

    def test_duplicate_entries_summed(self, monkeypatch):
        # [[2, -1], [-1, 3]] with its (0, 0) entry stored as 1 + 1
        A = sp.csc_matrix((np.array([1.0, 1.0, -1.0, -1.0, 3.0]), np.array([0, 0, 1, 0, 1]),
                           np.array([0, 3, 5])), shape=(2, 2))
        for _ in each_backend(monkeypatch):
            x = RefinedLU(A.copy()).solve(np.array([1.0, 2.0]))
            assert np.abs(x - 1.0).max() <= 1e-15

    def test_wide_band_goes_to_superlu(self):
        A = arrow(100)
        perm = _solvers.reverse_cuthill_mckee(A.T, symmetric_mode=True)
        position = np.argsort(perm)
        band = np.abs(np.subtract.outer(position, position))[A.toarray() != 0].max()
        assert (band + 1) * 100 > _solvers._BAND_COST * A.nnz
        lu = RefinedLU(A)
        assert isinstance(lu._lu, SuperLU)
        b = np.arange(100.0)
        x = lu.solve(b)
        assert np.abs(x - np.linalg.solve(A.toarray(), b)).max() <= 1e-12 * np.abs(x).max()
