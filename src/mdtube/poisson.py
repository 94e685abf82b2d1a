"""The constant bulk operator of the psi form and direct solvers for it.

In the Kirchhoff variable psi the bulk flux operator is the TPFA Laplacian
L of the grid: constant and symmetric, with each Dirichlet side entering
through a boundary value half a cell away. ``laplacian`` builds L and its
Dirichlet vector g once, so the bulk residual is ``L psi - g``.

On 2D and 3D grids the cells are uniform per axis and every side is either
all Dirichlet or all zero-flux, so L is a sum over the axes of one constant
tridiagonal matrix per axis (2 on the diagonal and -1 beside it; an end row
holds 3 at a Dirichlet end and 1 at a zero-flux end), each scaled by face
area over spacing. A real trigonometric transform diagonalises each of
them exactly, and ``SpectralSolver`` inverts L with one forward and one
inverse transform per axis (the staggered-grid fast Poisson solver of
Schumann & Sweet, J. Comput. Phys. 20, 1976):

=========================  =========  ====================================
Dirichlet ends of an axis  transform  eigenvalues, k = 0 .. n-1
=========================  =========  ====================================
low and high               DST-II     4 sin^2(pi (k + 1) / (2 n))
low only                   DST-IV     4 sin^2(pi (2 k + 1) / (4 n))
high only                  DCT-IV     4 sin^2(pi (2 k + 1) / (4 n))
neither                    DCT-II     4 sin^2(pi k / (2 n))
=========================  =========  ====================================

On a radial grid L is a tridiagonal matrix with variable coefficients; it
is factored once (``BandedCholesky``). Without a Dirichlet side L is
singular, and both solvers raise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy import fft
from scipy.linalg import cho_solve_banded, cholesky_banded

from .grid import BulkGrid

#: (Dirichlet at the low end, Dirichlet at the high end) -> transform pair
#: and type diagonalising the axis matrix
_TRANSFORMS = {
    (True, True): (fft.dst, fft.idst, 2),
    (True, False): (fft.dst, fft.idst, 4),
    (False, True): (fft.dct, fft.idct, 4),
    (False, False): (fft.dct, fft.idct, 2),
}

#: columns of W per bulk solve while the capacitance matrix is built: 32
#: columns of a 32x32x60 grid are 16 MB, all of L^-1 W for 262 segment
#: cells would be 129 MB
_CAPACITANCE_BATCH = 32


def laplacian(grid: BulkGrid, dirichlet: dict[int, np.ndarray]):
    """The TPFA Laplacian L (CSR) and Dirichlet vector g of ``grid``, so that
    ``L @ u - g`` is the sum of outward fluxes of ``u`` per cell for unit
    diffusivity. ``dirichlet`` maps side ids ``2*axis + (0 low | 1 high)``
    to the values at that side's boundary face centers, one per face;
    absent sides are zero-flux."""
    _checked_sides(grid, dirichlet)
    il, ir = grid.face_left, grid.face_right
    t = grid.face_area / grid.face_dist
    rows, cols, vals = [il, il, ir, ir], [il, ir, il, ir], [t, -t, -t, t]
    g = np.zeros(grid.n_cells)
    for side, values in dirichlet.items():
        mask = grid.bface_side == side
        values = np.asarray(values, float)
        if values.shape != (np.sum(mask),):
            raise ValueError(f"Dirichlet side {side} has {np.sum(mask)} "
                             f"faces, not values of shape {values.shape}")
        c = grid.bface_cell[mask]
        tb = grid.bface_area[mask] / grid.bface_dist[mask]
        np.add.at(g, c, tb * values)
        rows.append(c)
        cols.append(c)
        vals.append(tb)
    lap = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(grid.n_cells,) * 2)
    return lap, g


def laplacian_solver(grid: BulkGrid, dirichlet_sides):
    """Direct solver for the Laplacian of ``grid`` with the given Dirichlet
    side ids: a callable taking right-hand sides of shape (n_cells,) or
    (n_cells, m)."""
    if grid.dimension == "radial":
        return BandedCholesky(grid, dirichlet_sides)
    return SpectralSolver(grid, dirichlet_sides)


def _checked_sides(grid: BulkGrid, sides) -> set:
    """``sides`` as a set of side ids, each one of the sides of ``grid``."""
    sides = set(sides)
    n_sides = 2 * len(grid.shape)
    if not sides <= set(range(n_sides)):
        raise ValueError(f"Dirichlet side ids {sorted(sides)} outside "
                         f"0..{n_sides - 1} of a {grid.dimension} grid")
    return sides


def _require_dirichlet(grid: BulkGrid, sides) -> set:
    sides = _checked_sides(grid, sides)
    if not sides:
        raise ValueError("the Laplacian is singular without a Dirichlet side")
    return sides


class SpectralSolver:
    """L^-1 by one real trigonometric transform per axis, a division by the
    eigenvalues and the inverse transforms (see the module docstring)."""

    def __init__(self, grid: BulkGrid, dirichlet_sides):
        sides = _require_dirichlet(grid, dirichlet_sides)
        self.shape = grid.shape
        self.axes = []
        eigenvalues = np.zeros(grid.shape)
        volume = float(np.prod(grid.spacing))
        for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
            ends = (2 * axis in sides, 2 * axis + 1 in sides)
            self.axes.append(_TRANSFORMS[ends])
            k = np.arange(n) + 0.5 * sum(ends)
            lam = volume / h ** 2 * 4.0 * np.sin(0.5 * np.pi * k / n) ** 2
            eigenvalues = eigenvalues + lam.reshape(
                [n if a == axis else 1 for a in range(len(grid.shape))])
        self.eigenvalues = eigenvalues

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, float)
        batch = rhs.shape[1:]
        x = rhs.reshape(self.shape + batch)
        for axis, (forward, _, kind) in enumerate(self.axes):
            x = forward(x, type=kind, axis=axis, norm="ortho")
        x /= self.eigenvalues.reshape(self.shape + (1,) * len(batch))
        for axis, (_, inverse, kind) in enumerate(self.axes):
            x = inverse(x, type=kind, axis=axis, norm="ortho")
        return x.reshape(rhs.shape)


class BandedCholesky:
    """L^-1 on a radial grid from the Cholesky factor of the symmetric
    tridiagonal L, computed once."""

    def __init__(self, grid: BulkGrid, dirichlet_sides):
        sides = _require_dirichlet(grid, dirichlet_sides)
        lap, _ = laplacian(grid, {s: np.zeros(1) for s in sides})
        bands = np.zeros((2, grid.n_cells))
        bands[0, 1:] = lap.diagonal(1)
        bands[1] = lap.diagonal()
        self.factor = cholesky_banded(bands)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self.factor, False), np.asarray(rhs, float))


def capacitance_matrix(solve, sample: sp.spmatrix,
                       deposit: sp.spmatrix) -> np.ndarray:
    """C = S L^-1 W (segment cells by segment cells) for the bulk solver
    ``solve``, a batch of columns of W at a time, so that L^-1 W is never
    stored whole."""
    deposit = deposit.tocsc()
    n_seg = deposit.shape[1]
    cap = np.empty((sample.shape[0], n_seg))
    for start in range(0, n_seg, _CAPACITANCE_BATCH):
        batch = slice(start, start + _CAPACITANCE_BATCH)
        cap[:, batch] = sample @ solve(deposit[:, batch].toarray())
    return cap
