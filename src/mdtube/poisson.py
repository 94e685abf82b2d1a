"""The constant bulk operator of the psi form and direct solvers for it.

In the Kirchhoff variable psi the bulk flux operator is the TPFA Laplacian
L of the grid: constant and symmetric, with each Dirichlet side entering
through a boundary value half a cell away. ``laplacian`` builds L and its
Dirichlet vector g once, so the bulk residual is ``L psi - g``. The grid
is uniform per axis, so L is banded: the transmissibilities of the faces
normal to an axis (face area over center distance; ``transmissibilities``
is the only place the flux geometry is stated) sit at offsets of plus and
minus the axis's stride in the C-order cell numbering, and their sums,
with those of the Dirichlet faces, on the diagonal.

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

Each solver also builds the capacitance matrix C = S L^-1 W of a coupled
problem (``capacitance``), S sampling and W depositing on a few cells per
segment cell. On a radial grid that is one banded solve of the columns of
W. On 2D and 3D grids no bulk field is solved for. Write the axes as the
lead axes (all but the last) and the last axis, let m run over the modes
of the lead axes and k over those of the last axis, with eigenvalues
lambda(m, k), and let F be the last axis's orthonormal transform matrix.
A row s of S and a column t of W each touch a few layers of the last
axis; s_hat(m, z) is the lead-axis transform of row s on layer z and
w_hat(m, w) that of column t on layer w. Then, exactly,

    C[s, t] = sum_m sum_z sum_w s_hat(m, z) G_m(z, w) w_hat(m, w),
    G_m(z, w) = sum_k F[k, z] F[k, w] / lambda(m, k),

with G_m the Green's function of the last axis at lead mode m, needed only
at (S layer, W layer) pairs. With M lead modes, n last-axis cells, Z_S
and Z_W the layers S and W touch and E_S and E_W their (segment cell,
layer) entries, the build costs (E_S + E_W) M log M for the transforms,
2 M n |Z_S| |Z_W| for G and 2 M E_S E_W for the sums, against
n_seg M n log(M n) for a full solve per column of W. G is formed for a
chunk of W layers at a time, so that it and its product with the S
entries stay small; within a chunk, the W layers with equally many
entries share one stack of matrix products.
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

#: values (8 bytes each) in the largest temporaries of the capacitance
#: build: the Green's functions of a chunk of last-axis layers, and their
#: products with the entries of S. 2 MB fit the L2 cache of a core of the
#: Xeon measured; chunks of 16 MB made the build 1.3x slower on 32x32x60
_CHUNK_VALUES = 1 << 18


def transmissibilities(grid: BulkGrid, axis: int):
    """Face area over the distance between the centers a face joins, for
    the faces normal to ``axis``: of the interior faces, in order along
    the axis (an array on a radial grid, where the face at radius r has
    area 2 pi r per unit length; one value elsewhere, the product of the
    other spacings), and of the low and of the high boundary face, half a
    cell from their cell's center."""
    h = grid.spacing[axis]
    if grid.dimension == "radial":
        r = grid.cell_centers[:, 0]
        interior = 2.0 * np.pi * (0.5 * (r[:-1] + r[1:]))
        low = 2.0 * np.pi * grid.origin[0]
        high = 2.0 * np.pi * (grid.origin[0] + grid.extents[0])
    else:
        interior = low = high = np.prod(np.delete(grid.spacing, axis))
    return interior / h, low / (0.5 * h), high / (0.5 * h)


def laplacian(grid: BulkGrid, dirichlet: dict[int, np.ndarray]):
    """The TPFA Laplacian L (CSR) and Dirichlet vector g of ``grid``, so that
    ``L @ u - g`` is the sum of outward fluxes of ``u`` per cell for unit
    diffusivity. ``dirichlet`` maps side ids ``2*axis + (0 low | 1 high)``
    to the values at that side's boundary face centers, one per cell of
    ``grid.side_cells``; absent sides are zero-flux.

    A diagonal entry sums its cell's faces as the low cell of every axis,
    then as the high cell, then its Dirichlet faces in the order of
    ``dirichlet``."""
    g = dirichlet_vector(grid, dirichlet)
    ndim = len(grid.shape)
    # each axis's interior transmissibilities, shaped to broadcast over the
    # grid with that axis moved to the front
    interior = [np.reshape(transmissibilities(grid, a)[0],
                           (-1,) + (1,) * (ndim - 1)) for a in range(ndim)]
    diag = np.zeros(grid.shape)
    bands, offsets = [], []
    for axis, t in enumerate(interior):
        np.moveaxis(diag, axis, 0)[:-1] += t
        if grid.shape[axis] == 1:
            continue        # no interior face; its stride is the next axis's
        band = np.zeros(grid.shape)
        np.moveaxis(band, axis, 0)[:-1] = -t
        stride = int(np.prod(grid.shape[axis + 1:]))
        bands += 2 * [band.ravel()[:grid.n_cells - stride]]
        offsets += [stride, -stride]
    for axis, t in enumerate(interior):
        np.moveaxis(diag, axis, 0)[1:] += t
    for side in dirichlet:
        axis, high = divmod(side, 2)
        np.moveaxis(diag, axis, 0)[-high] += transmissibilities(
            grid, axis)[1 + high]
    lap = sp.diags([diag.ravel()] + bands, [0] + offsets,
                   shape=(grid.n_cells,) * 2, format="csr")
    return lap, g


def dirichlet_vector(grid: BulkGrid, dirichlet: dict[int, np.ndarray]):
    """The Dirichlet vector g of ``laplacian``: the boundary transmissibility
    times the value of each Dirichlet face, summed per cell."""
    _checked_sides(grid, dirichlet)
    g = np.zeros(grid.n_cells)
    for side, values in dirichlet.items():
        cells = grid.side_cells(side)
        values = np.asarray(values, float)
        if values.shape != cells.shape:
            raise ValueError(f"Dirichlet side {side} has {len(cells)} "
                             f"faces, not values of shape {values.shape}")
        g[cells] += transmissibilities(grid, side // 2)[1 + side % 2] * values
    return g


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

    def capacitance(self, sample: sp.spmatrix,
                    deposit: sp.spmatrix) -> np.ndarray:
        """C = S L^-1 W (rows of ``sample`` by columns of ``deposit``) from
        the lead-axis transforms of the last-axis layers each row and
        column touches and the last axis's Green's function (see the
        module docstring)."""
        n = self.shape[-1]
        n_rows, n_cols = sample.shape[0], deposit.shape[1]
        forward, _, kind = self.axes[-1]
        f = forward(np.eye(n), type=kind, axis=0, norm="ortho")     # F[k, z]
        inverse = (1.0 / self.eigenvalues).reshape(-1, n).T         # (k, m)
        (s_row, s_layer, s_hat), (w_layer, w_col, w_hat) = self._entries(
            sample, deposit)
        s_layers, s_at = _distinct(s_layer, n)
        w_layers, starts, counts = np.unique(w_layer, return_index=True,
                                             return_counts=True)
        by_count = np.argsort(counts, kind="stable")
        f_s = f[:, s_layers].T
        # C between single entries, W entries by S entries, over chunks of
        # W layers in the order of their entry counts. G_m(z, w) for the S
        # layers z and the chunk's layers w, and its product with the S
        # entries, are each at most _CHUNK_VALUES values
        step = max(1, _CHUNK_VALUES // max(s_hat.size, 1))
        pairs = np.empty((len(w_layer), len(s_row)))
        for first in range(0, len(w_layers), step):
            chunk = by_count[first:first + step]
            f_w = f[:, w_layers[chunk]].T
            green = ((f_w[:, None, :] * f_s).reshape(-1, n) @ inverse
                     ).reshape(len(f_w), len(f_s), inverse.shape[1])
            weighted = green[:, s_at]
            weighted *= s_hat
            # the chunk's layers with k W entries each: one stack of
            # products
            ks, lows = np.unique(counts[chunk], return_index=True)
            for k, low, high in zip(ks, lows, np.append(lows[1:], len(chunk))):
                rows = (starts[chunk[low:high], None] + np.arange(k)).ravel()
                pairs[rows] = (w_hat[rows].reshape(high - low, k, -1)
                               @ weighted[low:high].transpose(0, 2, 1)
                               ).reshape(len(rows), len(s_row))
        return np.bincount((w_col[:, None] * n_rows + s_row).ravel(),
                           pairs.ravel(), n_cols * n_rows
                           ).reshape(n_cols, n_rows).T

    def _entries(self, sample: sp.spmatrix, deposit: sp.spmatrix):
        """The entries of S, one per (row, layer) it touches, in row order,
        and of W, one per (layer, column), in layer order: their rows and
        layers, or layers and columns, and the lead-axis transforms of the
        row or column on the layer, one row of lead modes each. One set of
        transforms serves both."""
        n, lead_shape = self.shape[-1], self.shape[:-1]
        n_rows, n_cols = sample.shape[0], deposit.shape[1]
        n_lead = int(np.prod(lead_shape))
        s_row, s_cell, s_value = _stored(sample)
        w_cell, w_col, w_value = _stored(deposit)
        s_lead, s_layer = np.divmod(s_cell, n)
        w_lead, w_layer = np.divmod(w_cell, n)
        offset = n_rows * n
        keys, entry = _distinct(np.concatenate(
            [s_row * n + s_layer, offset + w_layer * n_cols + w_col]),
            offset + n * n_cols)
        x = np.bincount(entry * n_lead + np.concatenate([s_lead, w_lead]),
                        np.concatenate([s_value, w_value]),
                        len(keys) * n_lead).reshape((len(keys),) + lead_shape)
        for axis, (forward, _, kind) in enumerate(self.axes[:-1]):
            x = forward(x, type=kind, axis=axis + 1, norm="ortho",
                        overwrite_x=True)
        hat = x.reshape(len(keys), n_lead)
        n_s = np.searchsorted(keys, offset)
        return ((*np.divmod(keys[:n_s], n), hat[:n_s]),
                (*np.divmod(keys[n_s:] - offset, n_cols), hat[n_s:]))


def _stored(matrix: sp.spmatrix):
    """Row, column and value of each stored entry of ``matrix``."""
    matrix = matrix.tocsr()
    return (np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)),
            matrix.indices, matrix.data)


def _distinct(keys: np.ndarray, size: int):
    """The distinct values of ``keys`` (integers below ``size``), ascending,
    and the index of each key among them: ``np.unique`` with the inverse,
    without a sort."""
    seen = np.zeros(size, bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


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

    def capacitance(self, sample: sp.spmatrix,
                    deposit: sp.spmatrix) -> np.ndarray:
        """C = S L^-1 W: the columns of W solved all at once, O(n) each."""
        return sample @ self(deposit.toarray())
