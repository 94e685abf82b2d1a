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
lead axes (all but the last) and the last axis, and let m run over the
modes of the lead axes, with eigenvalues lambda(m). A row s of S and a
column t of W each touch a few layers of the last axis; s_hat(m, z) is the
lead-axis transform of row s on layer z and w_hat(m, w) that of column t
on layer w. Then, exactly,

    C[s, t] = sum_m sum_z sum_w s_hat(m, z) G_m(z, w) w_hat(m, w),

with G_m = (lambda(m) I + c T)^-1 the Green's function of the last axis at
lead mode m, T the last axis's tridiagonal matrix and c = volume / h^2 its
scale (h its spacing). G_m has a product form (Meurant, SIAM J. Matrix
Anal. Appl. 13, 1992):

    G_m(z, w) = u_m(min(z, w)) v_m(max(z, w)) / (c theta_m),

with u_m and v_m the solutions of the three-term recurrence of
mu_m I + T, mu_m = lambda(m) / c, that meet the end row of T at the low
and at the high end (3 at a Dirichlet end, 1 at a zero-flux one), and
theta_m their Wronskian. So C takes two dense products of (S entries by
modes) and (modes by W entries): u on the S side and v on the W side for
the pairs of entries with z <= w, and v and u for those with z > w.

u and v grow like e^(kappa z), cosh kappa = 1 + mu / 2: kappa is at most
2.29 on cubic cells and more on cells long in the last axis, and the
solutions overflow a float on a 4x4x400 cubic grid. So they are formed
from the ratios of neighbouring values, rho(z + 1) = mu + 2 - 1 / rho(z),
kept less one so that the Wronskian loses no digits at small mu, and
multiplied out relative to the centre of a window of layers across which
they grow by at most ``_WINDOW_GROWTH``. Each is cut at the window's edge
on its growing side, which only the pairs on the discarded side of the
select meet. One window covers every grid of the root runs.

With M lead modes, n last-axis cells and E_S and E_W the (segment cell,
layer) entries of S and W, the build costs (E_S + E_W) M log M for the
transforms, 2 M n for the recurrences and at most 4 M E_S E_W for the
products, against n_seg M n log(M n) for a full solve per column of W; no
Green's function is formed. The products go by blocks of S entries in
layer order, and only the W entries within a block's span of layers meet
both products, which brings their cost near 2 M E_S E_W. The modes go in
chunks, so that each factor matrix holds at most ``_CHUNK_VALUES``.
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

#: values (8 bytes each) in the two factor matrices of the W entries of a
#: chunk of lead modes, the largest temporaries of the capacitance build
#: but the entries' transforms and their products. 2 MB fit the L2 cache
#: of a core of the Xeon measured
_CHUNK_VALUES = 1 << 18

#: the largest growth of the last axis's recurrence solutions across one
#: window of layers of the capacitance build; with the sum over modes and
#: the entries' values it stays far below the largest float
_WINDOW_GROWTH = 1e250

#: S entries per block of the capacitance products
_BLOCK_ENTRIES = 64


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
        eigenvalues = np.zeros(())
        volume = float(np.prod(grid.spacing))
        for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
            ends = (2 * axis in sides, 2 * axis + 1 in sides)
            self.axes.append(_TRANSFORMS[ends])
            k = np.arange(n) + 0.5 * sum(ends)
            lam = volume / h ** 2 * 4.0 * np.sin(0.5 * np.pi * k / n) ** 2
            if axis == len(grid.shape) - 1:
                # the sums over the lead axes, one per lead mode
                self.lead_eigenvalues = eigenvalues.ravel()
            eigenvalues = eigenvalues[..., None] + lam
        self.eigenvalues = eigenvalues
        # the last axis's scale c, face area over spacing, and which of its
        # ends are Dirichlet
        self.last_scale = volume / grid.spacing[-1] ** 2
        self.last_ends = ends

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
        column touches and the product form of the last axis's Green's
        function (see the module docstring)."""
        n = self.shape[-1]
        n_rows, n_cols = sample.shape[0], deposit.shape[1]
        (s_layer, s_row, s_hat), (w_layer, w_col, w_hat) = self._entries(
            sample, deposit)
        # C between single entries, S entries by W entries, summed over
        # chunks of lead modes
        pairs = np.zeros((len(s_row), len(w_col)))
        step = max(1, _CHUNK_VALUES // (2 * max(len(w_col), n + 1)))
        windows = self._windows()
        for first in range(0, s_hat.shape[1], step):
            modes = slice(first, first + step)
            ratios = self._ratios(modes)
            for lo, hi in windows:
                rows = slice(*np.searchsorted(s_layer, [lo, hi]))
                _add_pairs(pairs[rows], s_layer[rows], s_hat[rows, modes],
                           w_layer, w_hat[:, modes],
                           *_window_factors(*ratios, lo, hi))
        cap = np.bincount((w_col * n_rows + s_row[:, None]).ravel(),
                          pairs.ravel(), n_cols * n_rows)
        cap /= self.last_scale
        # in column order, which the Newton steps' LU factors in place
        return cap.reshape(n_cols, n_rows).T

    def _windows(self):
        """Layer ranges [lo, hi) of the last axis over which the recurrence
        solutions, taken relative to the range's centre, grow by at most
        ``_WINDOW_GROWTH``: each ratio of neighbouring values is below
        mu + 3, mu the largest lead eigenvalue over the last axis's scale."""
        n = self.shape[-1]
        mu = np.max(self.lead_eigenvalues) / self.last_scale
        width = max(1, int(np.log(_WINDOW_GROWTH) / np.log(mu + 3.0)))
        count = -(-n // width)
        edges = np.linspace(0, n, count + 1).round().astype(int)
        return list(zip(edges[:-1], edges[1:]))

    def _ratios(self, modes: slice):
        """The last axis's recurrence at the lead modes ``modes``, as ratios
        less one: r[z] = u(z) / u(z - 1) - 1 for z = 0 .. n and q[z] =
        v(z) / v(z + 1) - 1 for z = 0 .. n - 1, with r[0] and q[n - 1] the
        ghost values of the ends (-2 at a Dirichlet end, 0 at a zero-flux
        one). Both follow t' = mu + t / (1 + t) from their end, so one
        loop serves both."""
        n = self.shape[-1]
        mu = self.lead_eigenvalues[modes] / self.last_scale
        t = np.empty((n + 1, 2, len(mu)))
        t[0] = np.where(self.last_ends, -2.0, 0.0)[:, None]
        for z in range(n):
            t[z + 1] = mu + t[z] / (1.0 + t[z])
        return t[:, 0], t[n - 1::-1, 1]

    def _entries(self, sample: sp.spmatrix, deposit: sp.spmatrix):
        """The entries of S, one per (row, layer) it touches, and of W, one
        per (layer, column), each in layer order: their layers and rows, or
        layers and columns, and the lead-axis transforms of the row or
        column on the layer, one row of lead modes each. One set of
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
            [s_layer * n_rows + s_row, offset + w_layer * n_cols + w_col]),
            offset + n * n_cols)
        x = np.bincount(entry * n_lead + np.concatenate([s_lead, w_lead]),
                        np.concatenate([s_value, w_value]),
                        len(keys) * n_lead).reshape((len(keys),) + lead_shape)
        for axis, (forward, _, kind) in enumerate(self.axes[:-1]):
            x = forward(x, type=kind, axis=axis + 1, norm="ortho",
                        overwrite_x=True)
        hat = x.reshape(len(keys), n_lead)
        n_s = np.searchsorted(keys, offset)
        return ((*np.divmod(keys[:n_s], n_rows), hat[:n_s]),
                (*np.divmod(keys[n_s:] - offset, n_cols), hat[n_s:]))


def _window_factors(r: np.ndarray, q: np.ndarray, lo: int, hi: int):
    """The recurrence solutions of ``_ratios`` relative to their values at
    the centre layer e of the window [lo, hi), u(z) / u(e) and v(z) / v(e),
    one row per layer, and g = u(e) v(e) / theta, so that the Green's
    function times the scale c is u(z) v(w) g where z <= w and v(z) u(w) g
    where z > w. The growing side of each is cut at the window, where it is
    0: u beyond hi and v below lo, which only the discarded side of the
    select would meet. The decaying sides are products of inverse ratios,
    which underflow to 0 and never overflow. Products, not sums of
    logarithms: a running sum near kappa n = 900 rounds by about 1e-13,
    which its exponential keeps as a relative error, where a product of
    k ratios errs by about sqrt(k) eps."""
    n = len(q)
    e = (lo + hi - 1) // 2
    u = np.zeros((n, r.shape[1]))
    v = np.zeros_like(u)
    u[e] = v[e] = 1.0
    u[:e] = np.cumprod(1.0 / (1.0 + r[e:0:-1]), axis=0)[::-1]
    u[e + 1:hi] = np.cumprod(1.0 + r[e + 1:hi], axis=0)
    v[lo:e] = np.cumprod(1.0 + q[lo:e][::-1], axis=0)[::-1]
    v[e + 1:] = np.cumprod(1.0 / (1.0 + q[e:n - 1]), axis=0)
    # theta / (u(e) v(e)) = u(e + 1) / u(e) - v(e + 1) / v(e), without
    # cancellation
    g = 1.0 / (r[e + 1] + q[e] / (1.0 + q[e]))
    return u, v, g


def _add_pairs(pairs, s_layer, s_hat, w_layer, w_hat, u, v, g):
    """Add the Green's function between the S entries on layers
    ``s_layer`` and the W entries on ``w_layer``, weighted by their lead
    transforms, to ``pairs``: u(z) v(w) g where z <= w and v(z) u(w) g
    where z > w (``_window_factors``). Both entry lists are in layer order,
    so in a block of S entries the W entries below the block's lowest
    layer meet v(z) u(w) only, and those from its highest layer up u(z)
    v(w) only."""
    w_u, w_v = u[w_layer], v[w_layer]
    for w in (w_u, w_v):
        w *= w_hat
        w *= g
    for a in range(0, len(s_layer), _BLOCK_ENTRIES):
        b = a + _BLOCK_ENTRIES
        z = s_layer[a:b]
        j, k = np.searchsorted(w_layer, [z[0], z[-1]])
        s_u, s_v = u[z], v[z]
        s_u *= s_hat[a:b]
        s_v *= s_hat[a:b]
        pairs[a:b, :j] += s_v @ w_u[:j].T
        pairs[a:b, j:k] += np.where(z[:, None] > w_layer[j:k],
                                    s_v @ w_u[j:k].T, s_u @ w_v[j:k].T)
        pairs[a:b, k:] += s_u @ w_v[k:].T


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
