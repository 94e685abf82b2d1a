"""mdtube benchmark: three scenario workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload tubes --seed 1 --seconds 30 --trace 0

Each round runs one scenario through ``mdtube.scenarios.run_scenario``, the
path ``mdtube run`` takes, writes its artifacts to a scratch directory under
``.bench-runs/`` and checks them. An operation is one Newton solve of the
scenario. Whole rounds repeat while another round still fits in
``--seconds``; at least one round always runs.

``--trace 0`` prints the end-to-end metrics; only the few set-up and solve
calls are timed. ``--trace 1`` wraps every layer's public functions, prints
the per-layer metrics and writes the spans to ``.bench-runs/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

WORKLOADS = ("tubes", "root_sweep", "root_fine")
ROOT_COLLARS = (0.0, -0.5e5, -1.0e5, -2.5e5, -5.0e5)
FINE_COLLAR = -1.0e5
ROOT_SWEEP_GRID = (16, 16, 30)
#: 20,328 cells + 262 segment cells = 20,590 unknowns, above the solver's
#: 20,000-unknown switch away from the plain direct solve
ROOT_FINE_GRID = (22, 22, 42)
DEFAULT_NETWORK_SEED = 2024

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
RUNS_DIR = ".bench-runs"

SETUP_SPANS = ("laws.attach_table", "grid.build", "network.build",
               "coupling.build", "analytic.reference")
SOLVE_SPANS = ("solver.newton_solve", "solver.pseudo_transient_solve")
LAWS_SPANS = ("laws.transform", "laws.inverse_transform")
RECONSTRUCTION_SPANS = ("reconstruction.reconstruct_interface",
                        "reconstruction.interface_derivatives")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "coupling.build_s": "s", "coupling.builds": "count",
    "coupling.segment_cells": "count", "coupling.weight_nnz": "count",
    "laws.table_s": "s", "laws.transform_calls": "count",
    "laws.table_misses": "count", "laws.transform_s": "s",
    "quadrature.tanh_sinh_calls": "count", "quadrature.tanh_sinh_s": "s",
    "reconstruction.calls": "count", "reconstruction.s": "s",
    "grid.assembly_calls": "count", "grid.assembly_s": "s",
    "grid.build_s": "s", "network.build_s": "s",
    "solver.assemble_calls": "count", "solver.assemble_s": "s",
    "solver.self_s": "s", "solver.newton_iterations": "count",
    "solver.assemblies_per_iteration": "ratio", "solver.fallbacks": "count",
    "linalg.spsolve_calls": "count", "linalg.spsolve_s": "s",
    "analytic.reference_s": "s", "scenarios.output_s": "s",
    "trace.wall_s": "s", "trace.setup_s": "s", "trace.solve_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}


# -- workloads --------------------------------------------------------------

def workload_config(name: str, network_seed: int):
    from mdtube.scenarios import ScenarioConfig

    if name == "tubes":
        # as demos/configs/parallel_tubes.ini, reduced to k = 1 and k = 5
        # at the baseline radius
        return ScenarioConfig(kind="parallel_tubes", levels=6,
                              law_type="exponential", d0=0.5, d_min=1e-6,
                              k_values=(1.0, 5.0), r_max_values=(0.2,))
    # as demos/configs/root_soil.ini
    common = dict(kind="root_soil", seed=network_seed, law_type="van_genuchten",
                  permeability=5.89912e-13, viscosity=1e-3,
                  delta_correction=True, write_vtk=True,
                  boundary_saturation=0.4, segment_length=0.005)
    if name == "root_sweep":
        return ScenarioConfig(grids=(ROOT_SWEEP_GRID,),
                              collar_pressures=ROOT_COLLARS, **common)
    return ScenarioConfig(grids=(ROOT_FINE_GRID,),
                          collar_pressures=(FINE_COLLAR,), **common)


def expected_solves(config) -> int:
    if config.kind == "parallel_tubes":
        return len(config.k_values) * config.levels * 2
    return len(config.grids) * len(config.collar_pressures)


def read_reference(network_seed: int) -> float | None:
    if not REFERENCE_FILE.is_file():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    value = table.get("r_t_root_sweep_-1e5", {}).get(str(network_seed))
    return None if value is None else float(value)


def write_reference(network_seed: int, out_dir) -> float:
    from checks import read_csv

    rows = read_csv(os.path.join(out_dir, "transpiration.csv"))
    value = next(float(r["r_t"]) for r in rows
                 if float(r["collar_pressure"]) == FINE_COLLAR)
    table = (json.loads(REFERENCE_FILE.read_text())
             if REFERENCE_FILE.is_file() else {})
    table.setdefault("r_t_root_sweep_-1e5", {})[str(network_seed)] = value
    REFERENCE_FILE.write_text(json.dumps(table, indent=2, sort_keys=True)
                              + "\n")
    return value


# -- instrumentation --------------------------------------------------------

def install(tracer, traced: bool, captured: dict) -> None:
    """Wrap the layer functions; the set-up and solve calls always."""
    import mdtube.laws as laws
    import mdtube.scenarios as scenarios
    import mdtube.solver as solver

    def count_build(index, args, result, exc):
        if result is not None:
            tracer.count("coupling.builds")
            tracer.count("coupling.segment_cells", len(args[1]))
            tracer.count("coupling.weight_nnz",
                         sum(len(c.cells) for c in result))

    def keep_reference(index, args, result, exc):
        if result is not None:
            captured.setdefault("references", []).append(result)

    def count_iterations(index, args, result, exc):
        if result is not None:
            tracer.count("solver.newton_iterations", result.iterations)
        elif hasattr(exc, "history"):
            tracer.count("solver.newton_iterations", len(exc.history) - 1)

    # a solve is the unit the benchmark counts, so its entry point must
    # exist; any other layer function a later version lacks reads as 0
    tracer.wrap(scenarios, "newton_solve", "solver.newton_solve",
                count_iterations, required=True)
    scenarios_spans = [
        (laws.DiffusionLaw, "attach_table", "laws.attach_table", None),
        (scenarios, "BulkGrid", "grid.build", None),
        (scenarios, "synthetic_root_network", "network.build", None),
        (scenarios, "parse_network", "network.build", None),
        (scenarios, "discretize_network", "network.build", None),
        (scenarios, "build_coupling", "coupling.build", count_build),
        (scenarios, "solve_multi_tube", "analytic.reference", keep_reference),
        (scenarios, "pseudo_transient_solve",
         "solver.pseudo_transient_solve", None),
        (scenarios, "emit_outputs", "scenarios.emit_outputs", None),
    ]
    for owner, attr, name, observe in scenarios_spans:
        tracer.wrap(owner, attr, name, observe)
    if not traced:
        return

    def count_law(index, args, result, exc):
        if tracer.parent_name(index) in LAWS_SPANS:
            return                      # counted with the outer call
        law, values = args[0], args[1]
        tracer.count("laws.transform_calls")
        table = law.table
        if table is None:
            tracer.count("laws.table_misses", _size(values))
            return
        covers = (table.covers_u if tracer.spans[index][0] == "laws.transform"
                  else table.covers_psi)
        tracer.count("laws.table_misses", _size(values)
                     - int(covers(values).sum()))

    layer_spans = [
        # pseudo-transient continuation finishes with this newton_solve
        (solver, "newton_solve", "solver.newton_solve", count_iterations),
        (solver, "assemble_coupled", "solver.assemble_coupled", None),
        (solver, "assemble_flux_jacobian", "grid.assemble_flux_jacobian",
         None),
        (solver, "reconstruct_interface",
         "reconstruction.reconstruct_interface", None),
        (solver, "interface_derivatives",
         "reconstruction.interface_derivatives", None),
        (solver, "spsolve", "linalg.spsolve", None),
        (laws.DiffusionLaw, "transform", "laws.transform", count_law),
        (laws.DiffusionLaw, "inverse_transform", "laws.inverse_transform",
         count_law),
        (laws, "tanh_sinh", "quadrature.tanh_sinh", None),
    ]
    for owner, attr, name, observe in layer_spans:
        tracer.wrap(owner, attr, name, observe)


def _size(values) -> int:
    import numpy as np

    return int(np.size(values))


def outer_total(tracer, names, outer_names) -> float:
    """Summed duration of spans in ``names`` with no ancestor in
    ``outer_names``."""
    return sum(end - start for i, (name, start, end, _)
               in enumerate(tracer.spans)
               if name in names and not tracer.has_ancestor(i, outer_names))


def layer_metrics(tracer, wall_s: float, span_cost: float) -> dict:
    own = tracer.self_time()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, _), s in zip(tracer.spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + s
    setup_s = outer_total(tracer, SETUP_SPANS, SETUP_SPANS)
    solve_s = outer_total(tracer, SOLVE_SPANS, SOLVE_SPANS)
    assemble_s = total.get("solver.assemble_coupled", 0.0)
    iterations = tracer.counts.get("solver.newton_iterations", 0)
    assemblies = calls.get("solver.assemble_coupled", 0)
    return {
        "coupling.build_s": total.get("coupling.build", 0.0),
        "coupling.builds": tracer.counts.get("coupling.builds", 0),
        "coupling.segment_cells": tracer.counts.get("coupling.segment_cells",
                                                    0),
        "coupling.weight_nnz": tracer.counts.get("coupling.weight_nnz", 0),
        "laws.table_s": total.get("laws.attach_table", 0.0),
        "laws.transform_calls": tracer.counts.get("laws.transform_calls", 0),
        "laws.table_misses": tracer.counts.get("laws.table_misses", 0),
        "laws.transform_s": sum(self_s.get(n, 0.0) for n in LAWS_SPANS),
        "quadrature.tanh_sinh_calls": calls.get("quadrature.tanh_sinh", 0),
        "quadrature.tanh_sinh_s": total.get("quadrature.tanh_sinh", 0.0),
        "reconstruction.calls": calls.get(
            "reconstruction.reconstruct_interface", 0),
        "reconstruction.s": sum(self_s.get(n, 0.0)
                                for n in RECONSTRUCTION_SPANS),
        "grid.assembly_calls": calls.get("grid.assemble_flux_jacobian", 0),
        "grid.assembly_s": total.get("grid.assemble_flux_jacobian", 0.0),
        "grid.build_s": total.get("grid.build", 0.0),
        "network.build_s": total.get("network.build", 0.0),
        "solver.assemble_calls": assemblies,
        "solver.assemble_s": assemble_s,
        "solver.self_s": solve_s - assemble_s,
        "solver.newton_iterations": iterations,
        "solver.assemblies_per_iteration": (assemblies / iterations
                                            if iterations else 0.0),
        "solver.fallbacks": calls.get("solver.pseudo_transient_solve", 0),
        "linalg.spsolve_calls": calls.get("linalg.spsolve", 0),
        "linalg.spsolve_s": total.get("linalg.spsolve", 0.0),
        "analytic.reference_s": total.get("analytic.reference", 0.0),
        "scenarios.output_s": total.get("scenarios.emit_outputs", 0.0),
        "trace.wall_s": wall_s,
        "trace.setup_s": setup_s,
        "trace.solve_s": solve_s,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": (len(tracer.spans) * span_cost
                             + tracer.observe_s[0]),
    }


# -- checks -----------------------------------------------------------------

def boundary_pressure(config) -> float:
    """Soil pressure on the Dirichlet faces of a root workload."""
    from mdtube.laws import VanGenuchtenLaw

    law = VanGenuchtenLaw(config.permeability, mu=config.viscosity)
    return law.saturation_to_pressure(config.boundary_saturation)


def check_round(workload: str, config, out_dir, captured: dict,
                network_seed: int) -> dict[int, list[str]]:
    import checks

    if workload == "tubes":
        residuals = {}
        for ref in captured.get("references", []):
            key = (float(ref.law.k), ref.variant)
            residuals[key] = max(residuals.get(key, 0.0),
                                 float(max(abs(ref.residuals()))))
        failures = checks.check_tubes(out_dir, residuals)
        for k in checks.TUBES_K:
            for variant in checks.TUBES_VARIANTS:
                if (k, variant) not in residuals:
                    failures.setdefault(checks.tubes_solve(
                        checks.TUBES_K.index(k), 0, variant), []).append(
                        f"no k={k:g} {variant} reference was built")
        return failures

    p_s = boundary_pressure(config)
    collars = list(config.collar_pressures)
    if workload == "root_sweep":
        return checks.check_root(out_dir, collars, p_s, sweep=True)
    reference = read_reference(network_seed)
    failures = checks.check_root(out_dir, collars, p_s, sweep=False,
                                 reference_r_t=reference)
    if reference is None:
        failures.setdefault(collars.index(FINE_COLLAR), []).append(
            f"no coarse r_T for network seed {network_seed} in "
            f"{REFERENCE_FILE.name}; write it with: python3 bench/run.py "
            f"--workload root_sweep --network-seed {network_seed} "
            f"--write-reference")
    return failures


# -- one round --------------------------------------------------------------

def run_round(workload: str, config, traced: bool, runs_dir: Path,
              network_seed: int, keep_outputs: str | None,
              reference: bool, span_cost: float) -> dict:
    from mdtube.scenarios import run_scenario
    from tracer import Tracer

    n_solves = expected_solves(config)
    captured: dict = {}
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs_dir)
    try:
        with Tracer() as tracer:
            install(tracer, traced, captured)
            t0 = time.perf_counter()
            try:
                run_scenario(config, out_dir)
                error = None
            except Exception:
                error = traceback.format_exc()
            wall_s = time.perf_counter() - t0
        if error is not None:
            failures = {i: ["scenario raised:\n" + error]
                        for i in range(n_solves)}
        else:
            failures = check_round(workload, config, out_dir, captured,
                                   network_seed)
        if reference and not failures:
            value = write_reference(network_seed, out_dir)
            print(f"wrote r_T {value!r} for network seed {network_seed} "
                  f"to {REFERENCE_FILE}")
        if keep_outputs:
            shutil.copytree(out_dir, keep_outputs, dirs_exist_ok=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "solves": n_solves,
        "failures": {int(k): v for k, v in failures.items() if v},
        "wall_s": wall_s,
        "setup_s": outer_total(tracer, SETUP_SPANS, SETUP_SPANS),
        "solve_s": outer_total(tracer, SOLVE_SPANS, SOLVE_SPANS),
        "missing": tracer.missing,
    }
    if traced:
        result["nesting_errors"] = tracer.nesting_errors()
        result["layers"] = layer_metrics(tracer, wall_s, span_cost)
        result["trace"] = tracer.to_json()
    return result


# -- entry point ------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="mdtube benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; recorded only, the workloads are "
                             "fixed problems (see --network-seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="start another whole round only while it "
                             "still fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--network-seed", type=int,
                        default=DEFAULT_NETWORK_SEED,
                        help="seed of the synthetic root network")
    parser.add_argument("--keep-outputs", metavar="DIR",
                        help="copy the last round's artifacts to DIR")
    parser.add_argument("--write-reference", action="store_true",
                        help="root_sweep only: store its r_T at -1e5 Pa as "
                             "the grid-stability reference of root_fine")
    args = parser.parse_args(argv)
    if args.write_reference and args.workload != "root_sweep":
        parser.error("--write-reference needs --workload root_sweep")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "mdtube" / "__init__.py").is_file():
        print(f"error: {checkout} is not an mdtube checkout (no "
              f"src/mdtube); run from the repository root", file=sys.stderr)
        return 2

    # one BLAS thread, set before numpy loads; no bytecode in the checkout
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import span_cost_s, write_trace

    runs_dir = checkout / RUNS_DIR
    runs_dir.mkdir(exist_ok=True)
    config = workload_config(args.workload, args.network_seed)
    traced = bool(args.trace)
    span_cost = span_cost_s() if traced else 0.0

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(args.workload, config, traced, runs_dir,
                                args.network_seed, args.keep_outputs,
                                args.write_reference, span_cost))
        elapsed = time.perf_counter() - start
        if (args.write_reference
                or elapsed + rounds[-1]["wall_s"] > args.seconds):
            break

    attempted = sum(r["solves"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    # failed solves are counted in `failed`; `correct` speaks of the rest,
    # whose outputs passed every check, and of the trace's consistency
    correct = True
    for name in rounds[-1]["missing"]:
        print(f"not timed: {name} does not exist in this version")
    for n, r in enumerate(rounds):
        for solve, messages in sorted(r["failures"].items()):
            for message in messages:
                print(f"round {n} solve {solve} FAILED: {message}")

    if traced:
        nesting = [e for r in rounds for e in r["nesting_errors"]]
        for error in nesting[:20]:
            print(f"trace nesting error: {error}")
        correct = not nesting
        trace_path = runs_dir / f"trace-{args.workload}.json"
        write_trace(trace_path, [dict(r["trace"], wall_s=r["wall_s"])
                                 for r in rounds])
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        print(f"spans written to {trace_path}")
        print(f"tracing overhead: {values['trace.overhead_s']:.3f} s for "
              f"{values['trace.spans']} spans at {span_cost * 1e6:.2f} us "
              f"each plus their counters; traced wall_s "
              f"{values['trace.wall_s']:.3f} s")
    else:
        values = {name: statistics.median(r[name] for r in rounds)
                  for name in ("wall_s", "setup_s", "solve_s")}
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss * 1024 / 1e6)
        units = END_TO_END_UNITS

    print(f"workload {args.workload}: {len(rounds)} round(s), "
          f"{attempted} Newton solves attempted, {failed} failed "
          f"(network seed {args.network_seed}, run seed {args.seed})")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
