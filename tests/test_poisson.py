"""Direct solvers of the psi-form Laplacian against sparse LU of L."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from mdtube import poisson, solver
from mdtube.coupling import build_coupling
from mdtube.grid import BulkGrid
from mdtube.laws import ConstantLaw
from mdtube.network import discretize_network
from mdtube.poisson import (BandedCholesky, SpectralSolver, laplacian,
                            laplacian_solver)
from mdtube.scenarios import synthetic_root_network
from mdtube.solver import CoupledProblem


def random_dirichlet(grid, sides, rng):
    return {s: rng.standard_normal(len(grid.side_cells(s)))
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
    # one cell across y, whose cells share the stride of z; Dirichlet
    # sides out of order
    "3d_one_cell_axis": ("3d", [0.0, 0.0, 0.0], [0.3, 0.1, 0.7], (5, 1, 6),
                         (5, 2, 0, 3)),
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


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_absolute_laplacian_from_its_diagonal(name):
    # no entry of L off its diagonal is positive, so |L| = 2 diag(L) - L:
    # the Newton stopping test's |L| |u| without a copy of L
    dim, origin, extents, shape, sides = PATTERNS[name]
    grid = BulkGrid(dim, origin, extents, shape)
    rng = np.random.default_rng(len(name))
    lap, _ = laplacian(grid, random_dirichlet(grid, sides, rng))
    u = rng.standard_normal(grid.n_cells)
    expect = abs(lap) @ np.abs(u)
    got = solver._abs_product(lap, lap.diagonal(), u)
    assert np.all(np.abs(got - expect)
                  <= 4.0 * np.finfo(float).eps * expect)


@pytest.mark.parametrize("dim,shape", [("2d", (4, 5)), ("3d", (3, 4, 5)),
                                       ("radial", (6,))])
def test_all_zero_flux_grid_raises(dim, shape):
    ndim = len(shape)
    grid = BulkGrid(dim, np.full(ndim, 0.1), np.ones(ndim), shape)
    with pytest.raises(ValueError, match="Dirichlet"):
        laplacian_solver(grid, ())


def face_area(grid, axis, r):
    """Area of a face normal to ``axis`` at radius ``r``: 2 pi r per unit
    length on a radial grid, the product of the other spacings
    elsewhere."""
    if grid.dimension == "radial":
        return 2.0 * np.pi * r
    return math.prod(h for a, h in enumerate(grid.spacing) if a != axis)


def unit_law_assembly(grid, dirichlet):
    """L and g of the unit-diffusivity TPFA fluxes, assembled one face at a
    time. A diagonal entry sums, in this order, the faces where its cell is
    the low cell, those where it is the high cell, each over the axes in
    order, and its Dirichlet faces side by side."""
    n = grid.n_cells
    index = np.arange(n).reshape(grid.shape)
    lap, g = np.zeros((n, n)), np.zeros(n)
    faces = []                  # (low cell, high cell, transmissibility)
    for axis, h in enumerate(grid.spacing):
        for low in np.ndindex(grid.shape):
            if low[axis] + 1 == grid.shape[axis]:
                continue
            high = low[:axis] + (low[axis] + 1,) + low[axis + 1:]
            i, m = index[low], index[high]
            r = 0.5 * (grid.cell_centers[i, 0] + grid.cell_centers[m, 0])
            faces.append((i, m, face_area(grid, axis, r) / h))
    for i, m, t in faces:
        lap[i, i] += t
        lap[i, m] -= t
        lap[m, i] -= t
    for _, m, t in faces:
        lap[m, m] += t
    for side, values in dirichlet.items():
        axis, end = divmod(side, 2)
        # the side's faces in C order over the other axes
        cells = [index[c] for c in np.ndindex(grid.shape)
                 if c[axis] == end * (grid.shape[axis] - 1)]
        r = grid.origin[0] + (grid.extents[0] if end else 0.0)
        t = face_area(grid, axis, r) / (0.5 * grid.spacing[axis])
        for c, value in zip(cells, values, strict=True):
            lap[c, c] += t
            g[c] += t * value
    return lap, g


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_laplacian_matches_unit_law_assembly(name):
    dim, origin, extents, shape, sides = PATTERNS[name]
    grid = BulkGrid(dim, origin, extents, shape)
    dirichlet = random_dirichlet(grid, sides, np.random.default_rng(3))
    lap, g = unit_law_assembly(grid, dirichlet)
    out, out_g = laplacian(grid, dirichlet)
    np.testing.assert_array_equal(out.toarray(), lap)
    np.testing.assert_array_equal(out_g, g)


def test_laplacian_memory_peak_is_a_few_matrices():
    # one allocation per band and the CSR conversion: the traced peak
    # stays within 3x the bytes of the matrix it returns
    dim, origin, extents, _, sides = PATTERNS["3d_root_column"]
    grid = BulkGrid(dim, origin, extents, (32, 32, 60))
    dirichlet = {s: np.zeros(len(grid.side_cells(s))) for s in sides}
    tracemalloc.start()
    try:
        lap, _ = laplacian(grid, dirichlet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (lap.data.nbytes + lap.indices.nbytes
                        + lap.indptr.nbytes)


@pytest.mark.parametrize("dim,shape,dirichlet", [
    ("2d", (4, 4), {7: np.zeros(4)}),
    ("2d", (4, 4), {0: np.full(1, 0.3)}),
    ("2d", (4, 4), {0: 0.3}),
    ("3d", (2, 3, 4), {6: np.zeros(12)}),
    ("3d", (2, 3, 4), {1: np.zeros(13)}),
    ("radial", (5,), {-1: np.zeros(1)}),
], ids=["2d_side_7", "2d_one_value", "2d_scalar", "3d_side_6",
        "3d_extra_value", "radial_side_-1"])
def test_dirichlet_input_out_of_range_raises(dim, shape, dirichlet):
    ndim = len(shape)
    grid = BulkGrid(dim, np.full(ndim, 0.1), np.ones(ndim), shape)
    with pytest.raises(ValueError, match="Dirichlet side"):
        laplacian(grid, dirichlet)
    if any(side not in range(2 * ndim) for side in dirichlet):
        with pytest.raises(ValueError, match="Dirichlet side"):
            laplacian_solver(grid, dirichlet)


def capacitance_supports(shape, rng):
    """Cell supports of S rows and W columns: scattered cells, kernel-like
    boxes, boxes at the low and the high end of the last axis, and a line
    of cells through every layer of the last axis."""
    cells = np.arange(int(np.prod(shape))).reshape(shape)
    supports = [rng.choice(cells.size, size=k, replace=False)
                for k in (1, 2, 5, 9)]
    for _ in range(4):
        low = [rng.integers(0, n) for n in shape]
        supports.append(cells[tuple(
            slice(a, min(a + rng.integers(1, 4), n))
            for a, n in zip(low, shape))].ravel())
    lead = tuple(slice(n // 3, n // 3 + 2) for n in shape[:-1])
    supports += [cells[lead + (slice(0, 2),)].ravel(),
                 cells[lead + (slice(shape[-1] - 2, None),)].ravel(),
                 cells[tuple(n // 2 for n in shape[:-1]) + (slice(None),)]]
    return supports


def by_support(supports, n_cells, rng):
    """Supports-by-cells matrix with random values on each support."""
    return sp.csr_matrix((rng.uniform(-1.0, 2.0, sum(map(len, supports))),
                          np.concatenate(supports),
                          np.cumsum([0] + [len(c) for c in supports])),
                         shape=(len(supports), n_cells))


def assert_capacitance_matches_dense_solve(grid, sides, seed):
    rng = np.random.default_rng(seed)
    sample = by_support(capacitance_supports(grid.shape, rng), grid.n_cells,
                        rng)
    deposit = by_support(capacitance_supports(grid.shape, rng)[::-1],
                         grid.n_cells, rng).T.tocsr()
    solve = laplacian_solver(grid, sides)
    ref = sample @ solve(deposit.toarray())
    cap = solve.capacitance(sample, deposit)
    assert cap.shape == (sample.shape[0], deposit.shape[1])
    assert np.max(np.abs(cap - ref)) <= 1e-13 * np.max(np.abs(ref))
    return solve


@pytest.mark.parametrize("one_layer_chunks", [False, True],
                         ids=["default_chunks", "one_layer_chunks"])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_capacitance_matches_dense_solve(name, one_layer_chunks,
                                         monkeypatch):
    if one_layer_chunks:
        # the smallest pieces of the build: a window of one layer, a chunk
        # of one lead mode and a block of one S entry
        monkeypatch.setattr(poisson, "_WINDOW_GROWTH", 1.0)
        monkeypatch.setattr(poisson, "_CHUNK_VALUES", 1)
        monkeypatch.setattr(poisson, "_BLOCK_ENTRIES", 1)
    dim, origin, extents, shape, sides = PATTERNS[name]
    grid = BulkGrid(dim, origin, extents, shape)
    solve = assert_capacitance_matches_dense_solve(grid, sides,
                                                   len(name) + 11)
    if one_layer_chunks and dim != "radial":
        assert len(solve._windows()) == shape[-1]


# grids whose last-axis recurrence solutions outgrow the floats along the
# axis, by e^(kappa n) with cosh kappa = 1 + mu / 2 at the largest lead
# eigenvalue mu over the last axis's scale, and a last axis of one cell:
# (origin, extents, shape, Dirichlet sides, windows of the build)
LONG_AXES = {
    # cubic cells: kappa n = 917
    "cubic_4x4x400": ([0.0, 0.0, 0.0], [0.04, 0.04, 4.0], (4, 4, 400),
                      (0, 1, 2, 3, 4), 2),
    # cells 4 times as long in the last axis as across it: kappa n = 1554,
    # past twice the largest float's log, so that even relative to the
    # axis's centre they overflow; zero flux at the low end of the last
    # axis and of x
    "flat_cells_5x6x320": ([0.0, 0.0, 0.0], [0.05, 0.06, 12.8],
                           (5, 6, 320), (1, 2, 3, 5), 3),
    "one_cell_axis_6x5x1": ([0.0, 0.0, 0.0], [0.06, 0.05, 0.01], (6, 5, 1),
                            (0, 2, 3, 4), 1),
}


@pytest.mark.parametrize("name", sorted(LONG_AXES))
def test_capacitance_on_long_last_axes(name):
    origin, extents, shape, sides, windows = LONG_AXES[name]
    grid = BulkGrid("3d", origin, extents, shape)
    solve = assert_capacitance_matches_dense_solve(grid, sides, len(name))
    assert len(solve._windows()) == windows


def test_capacitance_of_root_coupling():
    # the kernel deposition and stencil sampling of a root network on the
    # root column, as the coupled problem builds and uses them
    dim, origin, extents, shape, sides = PATTERNS["3d_root_column"]
    grid = BulkGrid(dim, origin, extents, shape)
    net = synthetic_root_network(seed=2024)
    mesh = discretize_network(net, 0.005)
    mesh.joint_dirichlet = {net.collar_node(): 0.0}
    problem = CoupledProblem(
        grid=grid, law=ConstantLaw(1.0),
        dirichlet={s: np.zeros(len(grid.side_cells(s))) for s in sides},
        seg_cells=mesh.cells,
        couplings=build_coupling(grid, mesh.cells, delta_correction=True),
        network=mesh)
    # kernel shares times cell lengths: W is its own magnitude
    assert problem.deposit.data.min() > 0
    ref = problem.sample @ problem.solve_bulk(problem.deposit.toarray())
    assert np.max(np.abs(problem.capacitance - ref)) <= 1e-13 * np.max(
        np.abs(ref))
    # in column order: the Newton steps' LU factors I - diag(a) C in place
    assert problem.capacitance.flags.f_contiguous
