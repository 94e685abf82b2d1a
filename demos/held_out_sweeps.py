"""Held-out root networks: the convergence gate of the coupled solver.

Runs the root-soil scenario's five-collar sweep on the 16x16x30 grid for
the synthetic networks of seeds 1-24, with and without the delta
correction: networks other than the benchmark's seed 2024. Prints the
Newton steps of each sweep, their total, the total of the solver's
restarts (see ``newton_solve``) and the worst relative collar balance
defect, |r_T + collar flux| / max(|r_T|, |collar flux|).

Exits 1 if a solve raises NonconvergenceError or a defect exceeds 1e-10.
Takes about 10 s and writes no file.
"""

import sys

from mdtube.scenarios import ScenarioConfig, run_root_soil
from mdtube.solver import NonconvergenceError

SEEDS = range(1, 25)
GRID = (16, 16, 30)
MAX_DEFECT = 1e-10


def main() -> int:
    total, restarts, worst, failures = 0, 0, 0.0, []
    print(f"{'seed':>4} {'delta':>5} {'Newton steps':>14} {'defect':>9}")
    for delta in (True, False):
        for seed in SEEDS:
            label = f"seed {seed}, delta {'on' if delta else 'off'}"
            config = ScenarioConfig(kind="root_soil", seed=seed,
                                    grids=(GRID,), delta_correction=delta)
            try:
                rows = run_root_soil(config).transpiration
            except NonconvergenceError as exc:
                failures.append(f"{label}: {exc}")
                continue
            steps = [row["iterations"] for row in rows]
            defect = max(abs(row["r_t"] + row["collar_flux"])
                         / max(abs(row["r_t"]), abs(row["collar_flux"]))
                         for row in rows)
            if not defect <= MAX_DEFECT:
                failures.append(f"{label}: collar defect {defect:.2e}")
            total += sum(steps)
            restarts += sum(row["restarts"] for row in rows)
            worst = max(worst, defect)
            print(f"{seed:>4} {'on' if delta else 'off':>5} "
                  f"{' '.join(map(str, steps)):>14} {defect:9.2e}")
    print(f"total Newton steps {total}; restarts {restarts}; worst relative "
          f"collar defect {worst:.2e} (bound {MAX_DEFECT:g})")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
