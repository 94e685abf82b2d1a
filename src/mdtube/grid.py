"""Structured axis-aligned grids and their discrete error norms.

Supports three modes: ``radial`` (1D in the cylinder radius, annular cell
measures per unit length), ``2d`` (unit depth) and ``3d``. Cells are
uniform per axis. The grid lists its interior faces (the two cells, area
and center distance of each) and its boundary faces (cell, area, distance
to the cell center, side id ``2*axis + (0 low | 1 high)`` and center),
from which ``poisson.laplacian`` builds the two-point flux operator.
"""

from __future__ import annotations

import math
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

        self._build_faces()

    def _face_area(self, axis: int, coords: np.ndarray) -> np.ndarray:
        """Area of a face normal to ``axis`` located at the given centers.

        ``coords`` holds the face center coordinates, one row per face.
        """
        if self.dimension == "radial":
            return 2.0 * np.pi * coords[:, 0]
        if self.dimension == "2d":
            other = 1 - axis
            return np.full(len(coords), self.spacing[other])
        others = [a for a in range(3) if a != axis]
        return np.full(len(coords),
                       self.spacing[others[0]] * self.spacing[others[1]])

    def _build_faces(self):
        ndim = len(self.shape)
        left, right, areas, dists = [], [], [], []
        b_cell, b_area, b_dist, b_side, b_center = [], [], [], [], []

        idx = np.arange(self.n_cells).reshape(self.shape)
        for axis in range(ndim):
            h = self.spacing[axis]
            # interior faces
            lo = np.moveaxis(idx, axis, 0)[:-1].ravel()
            hi = np.moveaxis(idx, axis, 0)[1:].ravel()
            centers = 0.5 * (self.cell_centers[lo] + self.cell_centers[hi])
            left.append(lo)
            right.append(hi)
            areas.append(self._face_area(axis, centers))
            dists.append(np.full(lo.shape, h))
            # boundary faces
            for side, sl in ((0, 0), (1, -1)):
                cells = np.moveaxis(idx, axis, 0)[sl].ravel()
                centers = self.cell_centers[cells].copy()
                centers[:, axis] = (self.origin[axis]
                                    + (self.extents[axis] if side else 0.0))
                b_cell.append(cells)
                b_area.append(self._face_area(axis, centers))
                b_dist.append(np.full(cells.shape, 0.5 * h))
                b_side.append(np.full(cells.shape, 2 * axis + side))
                b_center.append(centers)

        self.face_left = np.concatenate(left)
        self.face_right = np.concatenate(right)
        self.face_area = np.concatenate(areas)
        self.face_dist = np.concatenate(dists)
        self.bface_cell = np.concatenate(b_cell)
        self.bface_area = np.concatenate(b_area)
        self.bface_dist = np.concatenate(b_dist)
        self.bface_side = np.concatenate(b_side)
        self.bface_center = np.concatenate(b_center)

    # -- lookup ------------------------------------------------------------

    def cells_containing(self, point: np.ndarray) -> np.ndarray:
        """Indices of all cells whose closure contains ``point``.

        A point on a face or corner belongs to every adjacent cell; the
        reconstruction sampling averages over this stencil so that points
        on cell boundaries are treated symmetrically.
        """
        point = np.asarray(point, float)
        cells = np.zeros(1, int)
        for a, (x, x0, h) in enumerate(zip(point.tolist(),
                                           self.origin.tolist(),
                                           self.spacing.tolist())):
            t = (x - x0) / h
            i = math.floor(t + 1e-12)
            cand = {i}
            if abs(t - round(t)) < 1e-9 * max(1.0, abs(t)) + 1e-12:
                cand.update({round(t) - 1, round(t)})
            cand = sorted(c for c in cand if 0 <= c < self.shape[a])
            if not cand:
                raise ValueError(f"point {point} outside grid along axis {a}")
            # C-order flat index over the per-axis candidates
            cells = (cells[:, None] * self.shape[a] + cand).ravel()
        return cells

    def cell_bounds(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        multi = np.unravel_index(cell, self.shape)
        lo = self.origin + np.array(multi) * self.spacing
        return lo, lo + self.spacing


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
