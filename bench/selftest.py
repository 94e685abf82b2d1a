"""Show that every output check of the benchmark fails on corrupted output.

Keep the artifacts of one passing round of each workload, then corrupt
copies of them one way at a time:

    python3 bench/run.py --workload tubes --keep-outputs .bench-runs/keep-tubes
    python3 bench/run.py --workload root_sweep --keep-outputs .bench-runs/keep-root_sweep
    python3 bench/run.py --workload root_fine --keep-outputs .bench-runs/keep-root_fine
    python3 bench/selftest.py .bench-runs

Each corruption must make its check fail the Newton solve it names, and the
kept outputs themselves must pass. Exits 1 otherwise.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import tubes_solve  # noqa: E402
from run import (DEFAULT_NETWORK_SEED, FINE_COLLAR, ROOT_COLLARS,  # noqa: E402
                 boundary_pressure, workload_config)

SWEEP_COLLARS = list(ROOT_COLLARS)
FINE_COLLARS = [FINE_COLLAR]
GOOD_RESIDUALS = {(k, v): 1e-14 for k in checks.TUBES_K
                  for v in checks.TUBES_VARIANTS}


def _edit_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fieldnames = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _scale(row, names, factor):
    for name in names:
        row[name] = repr(float(row[name]) * factor)


def _tubes_row(label, level):
    return lambda rows: [r for r in rows if r["label"] == label][level]


def _set(getter, name, value):
    def edit(rows):
        getter(rows)[name] = value
        return rows
    return edit


def _tubes_cases():
    k1, k5 = "k=1_rmax=0.2", "k=5_rmax=0.2"
    last = checks.TUBES_LEVELS - 1
    return [
        ("reference not certified",
         {**GOOD_RESIDUALS, (5.0, "psi"): 1e-6}, None,
         tubes_solve(1, 0, "psi")),
        ("et_q order below 1.8 at the finest level",
         GOOD_RESIDUALS, _set(_tubes_row(k1, last), "et_q", "3e-4"),
         tubes_solve(0, last, "psi")),
        ("et_ub order below 1.8 at the finest level",
         GOOD_RESIDUALS, _set(_tubes_row(k5, last - 1), "et_ub", "1e-6"),
         tubes_solve(1, last, "psi")),
        ("k=1 finest e_q above 1e-3",
         GOOD_RESIDUALS, _set(_tubes_row(k1, last), "e_q", "2e-3"),
         tubes_solve(0, last, "u")),
        ("k=5 finest e_q below 3e-3",
         GOOD_RESIDUALS, _set(_tubes_row(k5, last), "e_q", "1e-3"),
         tubes_solve(1, last, "u")),
        ("non-finite error",
         GOOD_RESIDUALS, _set(_tubes_row(k1, 2), "e_psi", "nan"),
         tubes_solve(0, 2, "u")),
        ("missing level",
         GOOD_RESIDUALS, lambda rows: rows[:-1], tubes_solve(1, 0, "u")),
    ]


def _row_at(collar):
    return lambda rows: next(r for r in rows
                             if float(r["collar_pressure"]) == collar)


def _scale_row(collar, names, factor):
    def edit(rows):
        _scale(_row_at(collar)(rows), names, factor)
        return rows
    return edit


def _pin_u_hat(rows):
    rows[0]["u_hat"] = rows[0]["u_e"]
    return rows


def _root_cases(sweep: bool):
    collars = SWEEP_COLLARS if sweep else FINE_COLLARS
    last = len(collars) - 1
    cases = [
        ("collar flux off balance by 1e-8", "transpiration.csv",
         _scale_row(collars[last], ["collar_flux"], 1.0 + 1e-8), last),
        ("interface value equal to u_e", "segments.csv", _pin_u_hat, 0),
        ("missing root.vtk", "root.vtk", None, last),
    ]
    if sweep:
        def swap(rows):
            a, b = rows[2], rows[3]
            for name in ("r_t", "collar_flux"):
                a[name], b[name] = b[name], a[name]
            return rows
        cases += [
            ("r_T not decreasing", "transpiration.csv", swap, 3),
            ("r_T not positive at 0 Pa", "transpiration.csv",
             _scale_row(0.0, ["r_t", "collar_flux"], -1.0), 0),
        ]
    else:
        cases.append(("r_T 20 % off the coarse grid", "transpiration.csv",
                      _scale_row(FINE_COLLAR, ["r_t", "collar_flux"], 1.2),
                      0))
    return cases


def _run_root(out_dir, sweep: bool, reference, p_s):
    collars = SWEEP_COLLARS if sweep else FINE_COLLARS
    return checks.check_root(out_dir, collars, p_s, sweep=sweep,
                             reference_r_t=reference)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    kept = Path(argv[0])
    p_s = boundary_pressure(workload_config("root_sweep",
                                            DEFAULT_NETWORK_SEED))
    bad = 0

    def report(name, failures, solve):
        nonlocal bad
        if solve is None:
            ok = not failures
            what = "passes" if ok else f"FAILS: {failures}"
        else:
            ok = solve in failures
            what = (f"fails solve {solve}: {failures[solve][0]}" if ok
                    else f"NOT DETECTED (failures {failures})")
        bad += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}: {what}")

    with tempfile.TemporaryDirectory(dir=kept) as tmp:
        source = kept / "keep-tubes"
        report("tubes kept outputs", checks.check_tubes(source, GOOD_RESIDUALS),
               None)
        for n, (name, residuals, edit, solve) in enumerate(_tubes_cases()):
            work = Path(tmp) / f"tubes-{n}"
            shutil.copytree(source, work)
            if edit is not None:
                _edit_csv(work / "errors.csv", edit)
            report(f"tubes: {name}", checks.check_tubes(work, residuals),
                   solve)

        sweep_csv = kept / "keep-root_sweep" / "transpiration.csv"
        with open(sweep_csv, newline="") as fh:
            reference = next(float(r["r_t"]) for r in csv.DictReader(fh)
                             if float(r["collar_pressure"]) == FINE_COLLAR)
        for workload, sweep in (("root_sweep", True), ("root_fine", False)):
            source = kept / f"keep-{workload}"
            ref = None if sweep else reference
            report(f"{workload} kept outputs",
                   _run_root(source, sweep, ref, p_s), None)
            for n, (name, target, edit, solve) in enumerate(
                    _root_cases(sweep)):
                work = Path(tmp) / f"{workload}-{n}"
                shutil.copytree(source, work)
                if edit is None:
                    os.remove(work / target)
                else:
                    _edit_csv(work / target, edit)
                report(f"{workload}: {name}",
                       _run_root(work, sweep, ref, p_s), solve)
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
