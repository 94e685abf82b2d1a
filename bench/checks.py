"""Output checks of the benchmark workloads.

Each check reads the artifacts a scenario wrote and returns the failures
it found as ``{solve index: [message, ...]}``. A solve is one Newton solve
of the scenario, numbered in the order the scenario runs them, so that a
failed check is counted against the solve whose output it rejects.
"""

from __future__ import annotations

import csv
import math
import os

#: stiffness values and reference variants of the ``tubes`` workload, in
#: the order ``run_parallel_tubes`` solves them (k outer, then level, then
#: variant); the plain variant writes e_*, the psi variant et_*
TUBES_K = (1.0, 5.0)
TUBES_VARIANTS = ("u", "psi")
TUBES_LEVELS = 6

#: second order is what the method reaches on the psi-averaged reference
MIN_FINAL_ORDER = 1.8
#: e_q at the finest level against the plain reference, per stiffness
E_Q_RANGE = {1.0: (0.0, 1e-3), 5.0: (3e-3, 3e-2)}
#: a semi-analytical reference is certified by its own residual
REFERENCE_RESIDUAL = 1e-10
#: bulk/network mass balance, relative to the larger of the two fluxes
BALANCE_REL = 1e-10
#: grid stability: fine-grid r_T against the coarse one at the same collar
GRID_STABILITY_REL = 0.10


def tubes_solve(k_index: int, level: int, variant: str) -> int:
    return ((k_index * TUBES_LEVELS + level) * len(TUBES_VARIANTS)
            + TUBES_VARIANTS.index(variant))


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def observed_order(coarse: dict, fine: dict, name: str) -> float:
    """Order between two levels, from the written errors themselves."""
    try:
        return (math.log(float(coarse[name]) / float(fine[name]))
                / math.log(float(coarse["h"]) / float(fine["h"])))
    except (ValueError, ZeroDivisionError):
        return math.nan


def _fail(failures: dict, solve: int, message: str) -> None:
    failures.setdefault(solve, []).append(message)


def check_tubes(out_dir, reference_residuals) -> dict[int, list[str]]:
    """Convergence of the three-tube study against its references.

    ``reference_residuals`` maps ``(k, variant)`` to the largest residual of
    the semi-analytical reference re-evaluated on its perimeter points.
    """
    failures: dict[int, list[str]] = {}
    for (k, variant), residual in reference_residuals.items():
        if not residual <= REFERENCE_RESIDUAL:
            for level in range(TUBES_LEVELS):
                _fail(failures, tubes_solve(TUBES_K.index(k), level, variant),
                      f"k={k:g} {variant} reference residual {residual:.3e}")
    rows = read_csv(os.path.join(out_dir, "errors.csv"))
    for ki, k in enumerate(TUBES_K):
        label = f"k={k:g}_rmax=0.2"
        levels = [r for r in rows if r["label"] == label]
        if len(levels) != TUBES_LEVELS:
            for level in range(TUBES_LEVELS):
                for variant in TUBES_VARIANTS:
                    _fail(failures, tubes_solve(ki, level, variant),
                          f"{label}: {len(levels)} levels in errors.csv")
            continue
        for level, row in enumerate(levels):
            for variant, prefix in (("u", "e_"), ("psi", "et_")):
                for name in ("ub", "psi", "q"):
                    value = float(row[prefix + name])
                    if not (math.isfinite(value) and value > 0.0):
                        _fail(failures, tubes_solve(ki, level, variant),
                              f"{label} level {level}: {prefix}{name}={value}")
        final, previous = levels[-1], levels[-2]
        for name in ("et_ub", "et_psi", "et_q"):
            order = observed_order(previous, final, name)
            if not order >= MIN_FINAL_ORDER:
                _fail(failures, tubes_solve(ki, TUBES_LEVELS - 1, "psi"),
                      f"{label}: final order of {name} {order:.3f} "
                      f"< {MIN_FINAL_ORDER}")
        lo, hi = E_Q_RANGE[k]
        e_q = float(final["e_q"])
        if not lo < e_q < hi:
            _fail(failures, tubes_solve(ki, TUBES_LEVELS - 1, "u"),
                  f"{label}: finest e_q {e_q:.3e} outside ({lo:g}, {hi:g})")
    return failures


def check_root(out_dir, collar_pressures, boundary_pressure,
               sweep: bool, reference_r_t: float | None = None
               ) -> dict[int, list[str]]:
    """Mass balance and bracketed interface values per collar pressure.

    ``sweep`` adds the monotone-uptake check; ``reference_r_t`` adds the
    grid-stability check of the single collar pressure -1e5 Pa.
    """
    failures: dict[int, list[str]] = {}
    trans = read_csv(os.path.join(out_dir, "transpiration.csv"))
    segments = read_csv(os.path.join(out_dir, "segments.csv"))
    for name in ("soil.vtk", "root.vtk"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            _fail(failures, len(collar_pressures) - 1, f"{name} missing")
    if len(trans) != len(collar_pressures):
        for i in range(len(collar_pressures)):
            _fail(failures, i, f"{len(trans)} rows in transpiration.csv")
        return failures

    r_t = []
    for i, (row, p_rc) in enumerate(zip(trans, collar_pressures)):
        if float(row["collar_pressure"]) != p_rc:
            _fail(failures, i, f"row {i} is collar pressure "
                               f"{row['collar_pressure']}, not {p_rc:g}")
        rt, flux = float(row["r_t"]), float(row["collar_flux"])
        r_t.append(rt)
        scale = max(abs(rt), abs(flux))
        if not (math.isfinite(rt) and abs(rt + flux) <= BALANCE_REL * scale):
            _fail(failures, i, f"p={p_rc:g}: r_T {rt:.12g} does not balance "
                               f"collar flux {flux:.12g}")

    by_pressure: dict[float, list[dict]] = {}
    for row in segments:
        by_pressure.setdefault(float(row["collar_pressure"]), []).append(row)
    for i, p_rc in enumerate(collar_pressures):
        rows = by_pressure.get(p_rc, [])
        if not rows:
            _fail(failures, i, f"p={p_rc:g}: no rows in segments.csv")
        outside = 0
        for row in rows:
            u_e, u_hat = float(row["u_e"]), float(row["u_hat"])
            if float(row["q"]) == 0.0:
                continue                # not exchanging
            if not (min(u_e, boundary_pressure) < u_hat
                    < max(u_e, boundary_pressure)):
                outside += 1
        if outside:
            _fail(failures, i, f"p={p_rc:g}: {outside} interface values not "
                               f"strictly between u_e and the soil pressure")

    if sweep:
        if not r_t[0] > 0.0:
            _fail(failures, 0, f"r_T at p={collar_pressures[0]:g} is "
                               f"{r_t[0]:.6g}, not positive")
        for i in range(1, len(r_t)):
            if not r_t[i] < r_t[i - 1]:
                _fail(failures, i, f"r_T does not decrease from "
                                   f"p={collar_pressures[i - 1]:g} "
                                   f"to p={collar_pressures[i]:g}")
    if reference_r_t is not None:
        i = collar_pressures.index(-1.0e5)
        rel = abs(r_t[i] - reference_r_t) / abs(reference_r_t)
        if not rel <= GRID_STABILITY_REL:
            _fail(failures, i, f"r_T {r_t[i]:.6g} differs from the coarse "
                               f"grid's {reference_r_t:.6g} by {rel:.1%}")
    return failures
