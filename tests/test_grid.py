"""Structured grid geometry, its sides, and the TPFA Laplacian on it."""

import numpy as np
import pytest

from mdtube.grid import (BulkGrid, bulk_l2_error, observed_orders,
                         source_l2_error)
from mdtube.poisson import laplacian, transmissibilities


def make_grid(dim="2d"):
    if dim == "radial":
        return BulkGrid("radial", [0.0], [1.0], (8,))
    if dim == "2d":
        return BulkGrid("2d", [-1.0, -1.0], [2.0, 2.0], (6, 4))
    return BulkGrid("3d", [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], (3, 4, 5))


class TestGeometry:
    @pytest.mark.parametrize("dim", ["2d", "3d"])
    def test_volumes_fill_domain(self, dim):
        g = make_grid(dim)
        assert np.sum(g.volumes) == pytest.approx(np.prod(g.extents))

    def test_radial_volumes_are_annuli(self):
        g = make_grid("radial")
        edges = np.linspace(0.0, 1.0, 9)
        annuli = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
        assert np.allclose(g.volumes, annuli)

    def test_radial_face_area_grows_with_radius(self):
        g = make_grid("radial")
        # interior face at r = i/8 has circumference 2 pi r, the outer one
        # at r = 1 and the inner one at r = 0; face area over distance
        h = g.spacing[0]
        interior, low, high = transmissibilities(g, 0)
        assert np.allclose(interior * h, 2.0 * np.pi * np.arange(1, 8) / 8.0)
        assert low == 0.0
        assert high * 0.5 * h == pytest.approx(2.0 * np.pi)

    def test_boundary_side_ids(self):
        g = make_grid("2d")
        cells = np.arange(g.n_cells).reshape(g.shape)
        # side id = 2*axis + (0 low, 1 high); cells in C order over the
        # other axis, face centers on the side
        for side, expect in ((0, cells[0]), (1, cells[-1]),
                             (2, cells[:, 0]), (3, cells[:, -1])):
            np.testing.assert_array_equal(g.side_cells(side), expect)
            axis, other = side // 2, 1 - side // 2
            centers = g.side_centers(side)
            assert np.all(centers[:, axis] == (1.0 if side % 2 else -1.0))
            np.testing.assert_array_equal(centers[:, other],
                                          g.cell_centers[expect, other])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4,))
        with pytest.raises(ValueError):
            BulkGrid("2d", [0.0, 0.0], [1.0, -1.0], (4, 4))


class TestCellsContaining:
    """``stencils``: the cells whose closure contains a point."""

    def test_interior_point_single_cell(self):
        g = make_grid("2d")
        cells = g.stencils([-0.9, -0.9])[1]
        assert len(cells) == 1

    def test_point_on_face_two_cells(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cells = g.stencils([0.25, 0.1])[1]
        assert len(cells) == 2

    def test_point_on_corner_four_cells(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cells = g.stencils([0.5, 0.5])[1]
        assert len(cells) == 4

    def test_point_on_edge_lists_cells_in_ascending_order(self):
        # x and y on faces, z inside the first layer: cells (1|2, 1|2, 0)
        g = BulkGrid("3d", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], (4, 4, 4))
        assert g.stencils([0.5, 0.5, 0.1])[1].tolist() == [20, 24, 36, 40]

    def test_domain_corner_single_cell(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        assert list(g.stencils([0.0, 0.0])[1]) == [0]

    def test_outside_point_has_no_cells(self):
        g = make_grid("2d")
        owner, cells = g.stencils([5.0, 0.0])
        assert owner.size == 0 and cells.size == 0


class TestAssembly:
    def test_flux_antisymmetry_via_zero_row_sums(self):
        # without boundary terms each interior flux enters two cells with
        # opposite signs: L is symmetric, its rows sum to zero and so does
        # the residual
        g = make_grid("2d")
        lap, rhs = laplacian(g, {})
        assert np.all(rhs == 0.0)
        assert (lap != lap.T).nnz == 0
        row_sums = np.asarray(lap.sum(axis=1)).ravel()
        assert np.all(np.abs(row_sums) <= 4 * np.finfo(float).eps
                      * np.asarray(abs(lap).sum(axis=1)).ravel())
        u = np.random.default_rng(3).uniform(-1.0, 1.0, g.n_cells)
        res = lap @ u
        assert abs(np.sum(res)) < 1e-14 * np.sum(np.abs(res))

    def test_constant_field_zero_residual(self):
        g = make_grid("3d")
        u = np.full(g.n_cells, 0.37)
        dirichlet = {s: np.full(len(g.side_cells(s)), 0.37)
                     for s in range(6)}
        lap, rhs = laplacian(g, dirichlet)
        scale = np.max(abs(lap) @ np.abs(u) + np.abs(rhs))
        assert np.max(np.abs(lap @ u - rhs)) <= 4 * np.finfo(float).eps * scale

    def test_linear_solution_constant_law(self):
        # u = x is in the TPFA kernel on a uniform grid
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (8, 8))
        u = g.cell_centers[:, 0]
        dirichlet = {side: g.side_centers(side)[:, 0] for side in range(4)}
        lap, rhs = laplacian(g, dirichlet)
        assert np.max(np.abs(lap @ u - rhs)) < 1e-14


class TestErrorsAndOrders:
    def test_bulk_l2_error_homogeneous(self):
        g = make_grid("2d")
        rng = np.random.default_rng(5)
        u = rng.standard_normal(g.n_cells)
        ref = rng.standard_normal(g.n_cells)
        e1 = bulk_l2_error(g, u, ref)
        e3 = bulk_l2_error(g, ref + 3.0 * (u - ref), ref)
        assert e3 == pytest.approx(3.0 * e1, rel=1e-12)

    def test_bulk_l2_error_of_exact_field_is_zero(self):
        g = make_grid("radial")
        u = np.linspace(0.0, 1.0, g.n_cells)
        assert bulk_l2_error(g, u, u) == 0.0

    def test_source_l2_error_default_reference(self):
        q = np.array([1.0, -2.0, 0.5])
        assert source_l2_error(q, q) == 0.0
        e = source_l2_error(q + 0.2, q)
        assert e == pytest.approx(0.2 / 2.0, rel=1e-12)

    def test_source_l2_error_zero_reference_raises(self):
        with pytest.raises(ZeroDivisionError):
            source_l2_error(np.ones(3), np.zeros(3))

    def test_observed_orders_recovers_power_law(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        orders = observed_orders(h, 3.0 * h ** 2)
        assert np.allclose(orders, 2.0)

