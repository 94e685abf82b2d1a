"""Structured axis-aligned grids and their discrete error norms.

Supports three modes: ``radial`` (1D in the cylinder radius, annular cell
measures per unit length), ``2d`` (unit depth) and ``3d``. Cells are
uniform per axis and numbered in C order. A side of the grid has the id
``2*axis + (0 low | 1 high)``; ``side_cells`` and ``side_centers`` give
its boundary cells and face centers, in C order over the other axes, the
order of a Dirichlet side's values. The two-point flux operator on the
grid is ``poisson.laplacian``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BulkGrid:
    dimension: str                  # "radial" | "2d" | "3d"
    origin: np.ndarray
    extents: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        ndim = {"radial": 1, "2d": 2, "3d": 3}[self.dimension]
        self.origin = np.asarray(self.origin, float).reshape(ndim)
        self.extents = np.asarray(self.extents, float).reshape(ndim)
        self.shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if len(self.shape) != ndim or any(n < 1 for n in self.shape):
            raise ValueError("grid shape does not match dimension")
        if np.any(self.extents <= 0.0):
            raise ValueError("extents must be positive")
        self.spacing = self.extents / np.array(self.shape)
        self.n_cells = int(np.prod(self.shape))
        self._build_geometry()

    # -- geometry ----------------------------------------------------------

    def _axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.origin[axis] + h * (np.arange(self.shape[axis]) + 0.5)

    def _build_geometry(self):
        ndim = len(self.shape)
        axes = [self._axis_centers(a) for a in range(ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.cell_centers = np.stack([m.ravel() for m in mesh], axis=-1)

        if self.dimension == "radial":
            r = self.cell_centers[:, 0]
            self.volumes = 2.0 * np.pi * r * self.spacing[0]
        else:
            self.volumes = np.full(self.n_cells, float(np.prod(self.spacing)))

    def side_cells(self, side: int) -> np.ndarray:
        """The cells on side ``side``, in C order over the other axes."""
        axis, high = divmod(side, 2)
        cells = np.arange(self.n_cells).reshape(self.shape)
        return np.moveaxis(cells, axis, 0)[-high].ravel()

    def side_centers(self, side: int) -> np.ndarray:
        """The centers of the boundary faces of side ``side``, one row per
        cell of ``side_cells``."""
        axis, high = divmod(side, 2)
        centers = self.cell_centers[self.side_cells(side)]
        centers[:, axis] = (self.origin[axis]
                            + (self.extents[axis] if high else 0.0))
        return centers

    # -- lookup ------------------------------------------------------------

    def stencils(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells whose closure contains each of ``points`` (n, dim):
        ``(owner, cells)``, the cells of one point after another, each
        point's in ascending order, with the point of each. A point on a
        face or corner belongs to every adjacent cell, so that the
        reconstruction's sampling treats points on cell boundaries
        symmetrically. A point outside the grid owns no cell."""
        points = np.atleast_2d(np.asarray(points, float))
        t = (points - self.origin) / self.spacing
        i = np.floor(t + 1e-12)
        nearest = np.rint(t)
        # on a face: the cells on both sides of it
        on = np.abs(t - nearest) < 1e-9 * np.maximum(1.0, np.abs(t)) + 1e-12
        lo = np.where(on, np.minimum(i, nearest - 1.0), i)
        hi = np.where(on, np.maximum(i, nearest), i) + 1.0
        owner, multi = index_boxes(np.maximum(lo, 0.0).astype(int),
                                   np.minimum(hi, self.shape).astype(int))
        return owner, np.ravel_multi_index(multi.T, self.shape)


def index_boxes(lo: np.ndarray, hi: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-indices of the index boxes [lo, hi) (n, dim), a box where
    ``hi <= lo`` on some axis being empty: ``(owner, multi)``, the indices
    of one box after another, each box's in C order, with the box of
    each."""
    extent = np.maximum(hi - lo, 0)
    size = np.prod(extent, axis=1)
    owner = np.repeat(np.arange(len(size)), size)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    multi = np.empty((owner.size, extent.shape[1]), int)
    for a in reversed(range(extent.shape[1])):
        rank, multi[:, a] = np.divmod(rank, extent[owner, a])
    return owner, multi + lo[owner]


def bulk_l2_error(grid: BulkGrid, u_h: np.ndarray, reference: np.ndarray,
                  ref_value: float = 1.0) -> float:
    """Relative volume-weighted discrete L2 error against cell-center data."""
    dev = np.asarray(u_h, float) - np.asarray(reference, float)
    mean_sq = np.sum(grid.volumes * dev ** 2) / np.sum(grid.volumes)
    return float(np.sqrt(mean_sq) / ref_value)


def source_l2_error(q_h: np.ndarray, q_exact: np.ndarray,
                    ref_value: float | None = None) -> float:
    """Relative segment-mean L2 error of integrated sources."""
    q_h = np.asarray(q_h, float)
    q_exact = np.asarray(q_exact, float)
    if ref_value is None:
        ref_value = float(np.max(np.abs(q_exact)))
    if ref_value == 0.0:
        raise ZeroDivisionError("source reference value is zero")
    return float(np.sqrt(np.mean((q_h - q_exact) ** 2)) / ref_value)


def observed_orders(h: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """log2 convergence orders between consecutive refinement levels."""
    h = np.asarray(h, float)
    errors = np.asarray(errors, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.log(errors[:-1] / errors[1:])
                / np.log(h[:-1] / h[1:]))
