"""Time the capacitance build of the root-soil problem, and check it.

Builds C = S L^-1 W of the synthetic root network (seed 2024, 5 mm
segment cells) on the root column, as a root run does, once per grid, and
checks C against S L^-1 W solved column by column for a sample of W's
columns. Prints, per grid, the cells, the time of the build and the
largest deviation relative to max |C|.

    PYTHONPATH=src python demos/capacitance_build.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python demos/capacitance_build.py \\
        --grids 96x96x180,128x128x240

The default grid, 22x22x42, takes under 2 s. Exits 1 if a deviation
exceeds 1e-13. Writes no file.
"""

import argparse
import sys
import time

import numpy as np

from mdtube.coupling import build_coupling
from mdtube.grid import BulkGrid
from mdtube.network import discretize_network
from mdtube.poisson import laplacian_solver
from mdtube.scenarios import (ROOT_DOMAIN_EXTENTS, ROOT_DOMAIN_ORIGIN,
                              synthetic_root_network)
from mdtube.solver import coupling_operators

#: all sides of the root column but its top are Dirichlet
DIRICHLET_SIDES = (0, 1, 2, 3, 4)
MAX_DEVIATION = 1e-13


def parse_grids(text: str):
    return [tuple(int(n) for n in grid.split("x")) for grid in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--grids", type=parse_grids, default="22x22x42",
                    help="comma-separated grids, e.g. 96x96x180,128x128x240")
    ap.add_argument("--columns", type=int, default=8,
                    help="columns of W solved to check C (default 8)")
    args = ap.parse_args()

    mesh = discretize_network(synthetic_root_network(seed=2024), 0.005)
    print(f"{'grid':>12} {'cells':>9} {'build s':>8} {'deviation':>9}")
    failed = False
    for shape in args.grids:
        grid = BulkGrid("3d", ROOT_DOMAIN_ORIGIN, ROOT_DOMAIN_EXTENTS, shape)
        couplings = build_coupling(grid, mesh.cells, delta_correction=True)
        deposit, sample = coupling_operators(mesh.cells, couplings,
                                             grid.n_cells)
        solve = laplacian_solver(grid, DIRICHLET_SIDES)
        start = time.perf_counter()
        cap = solve.capacitance(sample, deposit)
        seconds = time.perf_counter() - start
        columns = np.linspace(0, cap.shape[1] - 1, args.columns).astype(int)
        ref = sample @ solve(deposit[:, columns].toarray())
        deviation = np.max(np.abs(cap[:, columns] - ref)) / np.max(np.abs(cap))
        print(f"{'x'.join(map(str, shape)):>12} {grid.n_cells:>9} "
              f"{seconds:8.3f} {deviation:9.1e}")
        failed |= not deviation <= MAX_DEVIATION
    if failed:
        print(f"FAILED: a deviation exceeds {MAX_DEVIATION:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
