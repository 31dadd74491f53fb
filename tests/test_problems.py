import numpy as np
import pytest
import scipy.linalg

from graphcoarsen.problems import (PoreNetworkSpec, TensorField, box_boundary_vertices,
                                   channel_endpoints, channel_field, gen_aniso_heat,
                                   gen_fem_grid, gen_pore_network, hagen_poiseuille,
                                   lattice_graph, p1_triangle_stiffness)


def quadrature_stiffness_oracle(pts, K):
    """Independent element integration: hat functions from a barycentric
    solve, gradients by central differences, one-point quadrature (the
    integrand is constant for linear elements)."""
    pts = np.asarray(pts, dtype=float)
    M = np.vstack([np.ones(3), pts.T])

    def hats(x):
        return np.linalg.solve(M, np.array([1.0, x[0], x[1]]))

    x0 = pts.mean(axis=0)
    h = 1e-6
    grads = np.zeros((3, 2))
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        grads[:, d] = (hats(x0 + e) - hats(x0 - e)) / (2 * h)
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    return area * grads @ K @ grads.T


class TestElementStiffness:
    def test_unit_right_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Ke = p1_triangle_stiffness(pts, np.eye(2))[0]
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(Ke, expected, atol=1e-15)
        assert np.allclose(Ke, quadrature_stiffness_oracle(pts, np.eye(2)), atol=1e-6)

    def test_generic_triangle_against_quadrature(self):
        pts = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.1]])
        K = np.array([[2.0, 0.3], [0.3, 0.5]])
        Ke = p1_triangle_stiffness(pts, K)[0]
        assert np.allclose(Ke, quadrature_stiffness_oracle(pts, K), atol=1e-6)
        assert np.allclose(Ke.sum(axis=1), 0.0, atol=1e-14)  # constants in kernel


class TestFemGrid:
    def test_constants_in_kernel(self):
        _, A, _ = gen_fem_grid(2, 2, TensorField.isotropic(1.0))
        assert np.abs(A @ np.ones(A.shape[0])).max() <= 1e-13

    def test_rotation_of_identity_matches_isotropic(self):
        _, A_iso, _ = gen_fem_grid(4, 4, TensorField.isotropic(1.0))
        _, A_rot, _ = gen_fem_grid(4, 4, TensorField.rotated(1.0, 1.0, np.pi / 3))
        assert np.allclose(A_rot.toarray(), A_iso.toarray(), atol=1e-14)

    def test_scaling_is_exact_for_power_of_two(self):
        _, A1, f1 = gen_fem_grid(5, 4, TensorField.isotropic(1.0))
        _, A4, f4 = gen_fem_grid(5, 4, TensorField.isotropic(4.0))
        assert np.array_equal(A4.toarray(), 4.0 * A1.toarray())
        assert np.array_equal(f4, f1)  # load does not see the tensor

    def test_psd_and_nullspace(self):
        _, A, _ = gen_fem_grid(6, 6, channel_field(1.0, 1e4))
        Ad = A.toarray()
        assert np.linalg.norm(Ad @ np.ones(len(Ad))) <= 1e-10 * np.linalg.norm(Ad)
        assert scipy.linalg.eigvalsh(Ad).min() >= -1e-10 * np.abs(Ad).max()

    def test_graph_weights_negate_offdiagonal(self):
        g, A, _ = gen_fem_grid(3, 3, TensorField.isotropic(1.0))
        Ad = A.toarray()
        for (i, j), w in zip(g.edge_index, g.edge_weight):
            assert w == -Ad[i, j]

    def test_lumped_load(self):
        _, _, f = gen_fem_grid(4, 4, TensorField.isotropic(1.0), source=2.0)
        assert abs(f.sum() - 2.0) <= 1e-14  # total load = source * |domain|

    def test_holes_remove_vertices_keep_kernel(self):
        g0, A0, _ = gen_fem_grid(10, 10, TensorField.isotropic(1.0))
        g, A, f = gen_fem_grid(10, 10, TensorField.isotropic(1.0),
                               holes=[(0.5, 0.5, 0.15)])
        assert g.n_vertices < g0.n_vertices
        assert A.shape[0] == g.n_vertices == f.shape[0]
        assert np.abs(A @ np.ones(A.shape[0])).max() <= 1e-13

    def test_nonpositive_tensor_rejected(self):
        with pytest.raises(ValueError):
            gen_fem_grid(3, 3, lambda pts: np.tile(-np.eye(2), (pts.shape[0], 1, 1)))

    def test_boundary_vertices(self):
        g, _, _ = gen_fem_grid(4, 4, TensorField.isotropic(1.0))
        b = box_boundary_vertices(g.coords)
        assert len(b) == 16  # 4*(4+1) - 4 corners counted once


class TestAnisoHeat:
    def test_equal_conductivities_match_isotropic(self):
        _, A_iso, f_iso = gen_fem_grid(3, 3, TensorField.isotropic(1.0))
        _, A, f = gen_aniso_heat(3, 3, 1.0, 1.0, (1.0, 0.0))
        assert np.array_equal(A.toarray(), A_iso.toarray())
        assert np.array_equal(f, f_iso)

    def test_rows_decouple_in_strong_direction_limit(self):
        g, A, _ = gen_aniso_heat(3, 3, 1.0, 1e-12, (1.0, 0.0))
        Ad = np.abs(A.toarray())
        y = g.coords[:, 1]
        cross = Ad[np.abs(y[:, None] - y[None, :]) > 1e-12]
        assert cross.max() <= 1e-10 * Ad.max()

    def test_strong_anisotropy_worsens_conditioning(self):
        # With full Dirichlet walls both spectrum ends scale with k_par and
        # the 2-norm condition number barely moves; the conditioning damage
        # shows in the free-flux spectrum, where weakly coupled along-field
        # modes sink towards the k_perp scale.
        def semicond(gen):
            _, A, _ = gen
            ev = scipy.linalg.eigvalsh(A.toarray())
            return ev[-1] / ev[ev > 1e-10 * ev[-1]][0]

        c_iso = semicond(gen_fem_grid(10, 10, TensorField.isotropic(1.0)))
        theta = np.pi / 6
        c_aniso = semicond(gen_aniso_heat(10, 10, 1.0, 1e-3,
                                          (np.cos(theta), np.sin(theta))))
        assert c_aniso > 10 * c_iso

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            gen_aniso_heat(3, 3, 1.0, 0.5, (1.0, 1.0))

    def test_ordering_constraint(self):
        with pytest.raises(ValueError):
            gen_aniso_heat(3, 3, 0.5, 1.0, (1.0, 0.0))


class TestTensorField:
    def test_strong_direction_is_d1_eigenvector(self):
        field = TensorField.rotated(1.0, 1e-4, np.pi / 3)
        K = field(np.zeros((1, 2)))[0]
        b = field.strong_direction
        assert np.allclose(K @ b, 1.0 * b, atol=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TensorField.rotated(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            TensorField.piecewise(lambda p: np.zeros(len(p), dtype=int), (0.0,))


class TestPoreNetwork:
    def test_conductance_formula_cancellation(self):
        assert hagen_poiseuille(1.0, 1.0, np.pi / 8.0) == pytest.approx(1.0)

    def test_quartic_radius_law(self):
        w1 = hagen_poiseuille(1.0, 2.0, 3.0)
        w2 = hagen_poiseuille(2.0, 2.0, 3.0)
        assert w2 == pytest.approx(16.0 * w1)

    def test_default_contrast_range(self):
        g = gen_pore_network(PoreNetworkSpec(), seed=0)
        ratio = g.edge_weight.max() / g.edge_weight.min()
        assert 1e3 <= ratio <= 1e6

    def test_bit_reproducible_per_seed(self):
        spec = PoreNetworkSpec(nx=16, ny=16)
        g1 = gen_pore_network(spec, seed=7)
        g2 = gen_pore_network(spec, seed=7)
        assert np.array_equal(g1.edge_weight, g2.edge_weight)
        assert np.array_equal(g1.capacity, g2.capacity)
        g3 = gen_pore_network(spec, seed=8)
        assert not np.array_equal(g1.edge_weight, g3.edge_weight)

    def test_capacities_in_range(self):
        spec = PoreNetworkSpec(nx=12, ny=12, capacity_range=(0.1, 0.82))
        g = gen_pore_network(spec, seed=1)
        assert g.capacity.min() >= 0.1 and g.capacity.max() <= 0.82

    def test_channel_rows_carry_large_weights(self):
        spec = PoreNetworkSpec(nx=20, ny=20)
        g = gen_pore_network(spec, seed=0)
        w_min_channel = hagen_poiseuille(spec.r_channel[0], spec.throat_length,
                                         spec.viscosity)
        rows = g.edge_index // spec.nx
        for row in spec.channel_rows:
            on = (rows[:, 0] == row) & (rows[:, 1] == row)
            assert np.all(g.edge_weight[on] >= w_min_channel)

    def test_robin_at_channel_endpoints(self):
        spec = PoreNetworkSpec(nx=10, ny=10)
        g = gen_pore_network(spec, seed=0)
        left, right = channel_endpoints(spec)
        robin_vertices = {v for v, _, _ in g.robin}
        assert robin_vertices == set(left.tolist()) | set(right.tolist())


def test_lattice_graph():
    g = lattice_graph(3, 2, weight=2.0)
    assert g.n_vertices == 6
    assert g.n_edges == 2 * 2 + 3 * 1  # horizontal per row + vertical per column
    assert np.all(g.edge_weight == 2.0)
