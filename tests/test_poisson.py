"""Direct solvers of the psi-form Laplacian against sparse LU of L."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from mdtube import poisson
from mdtube.grid import BulkGrid, assemble_flux_jacobian
from mdtube.laws import ConstantLaw
from mdtube.poisson import (BandedCholesky, SpectralSolver,
                            capacitance_matrix, laplacian, laplacian_solver)


def random_dirichlet(grid, sides, rng):
    return {s: rng.standard_normal(int(np.sum(grid.bface_side == s)))
            for s in sides}


# (dimension, origin, extents, shape, Dirichlet sides)
PATTERNS = {
    "2d_all_dirichlet": ("2d", [0.0, 0.0], [1.0, 1.0], (7, 9),
                         (0, 1, 2, 3)),
    # the root column: lateral and bottom faces Dirichlet, zero-flux top
    "3d_root_column": ("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                       (6, 5, 8), (0, 1, 2, 3, 4)),
    # x: Dirichlet at the high end only; y: zero-flux at both ends
    "2d_high_end_only": ("2d", [0.0, 0.0], [1.0, 2.0], (7, 9), (1,)),
    "2d_zero_flux_axis": ("2d", [0.0, 0.0], [1.0, 2.0], (7, 9), (2, 3)),
    "3d_anisotropic": ("3d", [0.0, 0.0, 0.0], [0.3, 0.5, 0.7], (5, 6, 7),
                       (0, 3, 5)),
    "radial": ("radial", [0.0], [1.0], (20,), (1,)),
    "radial_annulus": ("radial", [0.01], [1.0], (20,), (0, 1)),
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_solver_matches_sparse_lu(name):
    dim, origin, extents, shape, sides = PATTERNS[name]
    grid = BulkGrid(dim, origin, extents, shape)
    if name == "3d_anisotropic":
        assert len(set(grid.spacing)) == 3
    rng = np.random.default_rng(len(name))
    lap, _ = laplacian(grid, random_dirichlet(grid, sides, rng))
    solve = laplacian_solver(grid, sides)
    assert isinstance(solve, BandedCholesky if dim == "radial"
                      else SpectralSolver)
    rhs = rng.standard_normal((grid.n_cells, 3))
    ref = np.column_stack([spsolve(lap.tocsc(), b) for b in rhs.T])
    for x, r in ((solve(rhs), ref), (solve(rhs[:, 0]), ref[:, 0])):
        assert np.max(np.abs(x - r)) <= 1e-12 * np.max(np.abs(r))


@pytest.mark.parametrize("dim,shape", [("2d", (4, 5)), ("3d", (3, 4, 5)),
                                       ("radial", (6,))])
def test_all_zero_flux_grid_raises(dim, shape):
    ndim = len(shape)
    grid = BulkGrid(dim, np.full(ndim, 0.1), np.ones(ndim), shape)
    with pytest.raises(ValueError, match="Dirichlet"):
        laplacian_solver(grid, ())


@pytest.mark.parametrize("name", ["radial", "2d_all_dirichlet",
                                  "3d_root_column"])
def test_laplacian_matches_unit_law_assembly(name):
    dim, origin, extents, shape, sides = PATTERNS[name]
    grid = BulkGrid(dim, origin, extents, shape)
    rng = np.random.default_rng(3)
    dirichlet = random_dirichlet(grid, sides, rng)
    u = rng.standard_normal(grid.n_cells)
    res, rows, cols, vals = assemble_flux_jacobian(grid, ConstantLaw(1.0), u,
                                                   dirichlet)
    jac = sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_cells,) * 2)
    lap, g = laplacian(grid, dirichlet)
    assert (np.max(np.abs((lap - jac).toarray()))
            <= 1e-14 * np.max(np.abs(jac.toarray())))
    assert np.max(np.abs(lap @ u - g - res)) <= 1e-14 * np.max(np.abs(res))


def test_capacitance_matrix_in_batches(monkeypatch):
    dim, origin, extents, shape, sides = PATTERNS["3d_root_column"]
    grid = BulkGrid(dim, origin, extents, shape)
    rng = np.random.default_rng(5)
    deposit = sp.random(grid.n_cells, 7, density=0.05, random_state=rng,
                        format="csr")
    sample = sp.random(7, grid.n_cells, density=0.05, random_state=rng,
                       format="csr")
    solve = laplacian_solver(grid, sides)
    ref = sample @ solve(deposit.toarray())
    # a batch size that leaves a short last batch
    monkeypatch.setattr(poisson, "_CAPACITANCE_BATCH", 3)
    cap = capacitance_matrix(solve, sample, deposit)
    np.testing.assert_allclose(cap, ref, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(ref)))
