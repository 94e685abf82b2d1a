"""Legacy ASCII VTK writers for bulk fields and tube networks.

Bulk fields go out as STRUCTURED_POINTS with cell data; networks as
POLYDATA line sets with one line per segment cell. Both formats open
directly in ParaView.
"""

from __future__ import annotations

import numpy as np

from .grid import BulkGrid
from .network import NetworkMesh


#: lines formatted and written at once by ``_write_lines``
_LINES_PER_WRITE = 1024


def _write_lines(fh, values: np.ndarray, per_line: int = 1):
    """Write ``values`` in 10 significant digits, ``per_line`` to a line,
    separated by spaces. One write per block of lines, each formatted by
    one ``%`` of the block's repeated line format: as fast as one write of
    all, without holding all their text, and about 1.5 times as fast as
    one format per value."""
    line = " ".join(["%.10g"] * per_line) + "\n"
    flat = np.asarray(values, float).ravel()
    step = _LINES_PER_WRITE * per_line
    for s in range(0, flat.size, step):
        block = flat[s:s + step].tolist()
        fh.write(line * (len(block) // per_line) % tuple(block))


def _vtk_shape(grid: BulkGrid) -> tuple[int, int, int]:
    if grid.dimension == "3d":
        return grid.shape
    if grid.dimension == "2d":
        return (*grid.shape, 1)
    raise ValueError("structured-points output requires a 2d or 3d grid")


def write_structured_points(path, grid: BulkGrid,
                            cell_fields: dict[str, np.ndarray]):
    """Write cell-centered scalar fields on a uniform grid."""
    nx, ny, nz = _vtk_shape(grid)
    origin = np.zeros(3)
    spacing = np.ones(3)
    origin[:len(grid.origin)] = grid.origin
    spacing[:len(grid.spacing)] = grid.spacing

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("mdtube bulk field\nASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {nx + 1} {ny + 1} {nz + 1}\n")
        fh.write(f"ORIGIN {origin[0]:.10g} {origin[1]:.10g} {origin[2]:.10g}\n")
        fh.write(f"SPACING {spacing[0]:.10g} {spacing[1]:.10g} "
                 f"{spacing[2]:.10g}\n")
        fh.write(f"CELL_DATA {grid.n_cells}\n")
        for name, values in cell_fields.items():
            values = np.asarray(values, float).reshape((nx, ny, nz))
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            # VTK expects x varying fastest
            _write_lines(fh, values.transpose(2, 1, 0))


def write_network_polydata(path, mesh: NetworkMesh,
                           cell_fields: dict[str, np.ndarray] | None = None):
    """Write segment cells as polyline data with per-cell scalars."""
    cell_fields = cell_fields or {}
    n = mesh.n_cells
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("mdtube network\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {2 * n} double\n")
        points = np.zeros((2 * n, 3))
        for i, cell in enumerate(mesh.cells):
            points[2 * i, :len(cell.p0)] = cell.p0
            points[2 * i + 1, :len(cell.p1)] = cell.p1
        _write_lines(fh, points, per_line=3)
        fh.write(f"LINES {n} {3 * n}\n")
        for i in range(n):
            fh.write(f"2 {2 * i} {2 * i + 1}\n")
        if cell_fields:
            fh.write(f"CELL_DATA {n}\n")
            for name, values in cell_fields.items():
                values = np.asarray(values, float).reshape(n)
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_lines(fh, values)
