"""End-to-end acceptance checks for the mixed-dimensional solver.

Each test prints a single PASS/FAIL line for its criterion. The expensive
scenario runs (parallel-tube refinement studies, the root-soil sweep on
two grids) are shared through module-scoped fixtures.
"""

import numpy as np
import pytest

from mdtube.analytic import solve_multi_tube
from mdtube.coupling import build_coupling
from mdtube.grid import BulkGrid
from mdtube.laws import ConstantLaw, ExponentialLaw, VanGenuchtenLaw
from mdtube.network import Segment, TubeNetwork, discretize_network
from mdtube.poisson import laplacian
from mdtube.reconstruction import Interface, reconstruct_interface
from mdtube.scenarios import (ScenarioConfig, model_error_plateau,
                              run_kernel_radius_study, run_parallel_tubes,
                              run_root_soil, run_single_tube,
                              three_tube_specs)
from mdtube.solver import (CoupledProblem, assemble_coupled,
                           collar_flux_total, coupled_jacobian, newton_solve)


def report_line(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- shared expensive runs --------------------------------------------------

@pytest.fixture(scope="module")
def parallel_k1_report():
    """Three-tube study, k=1, refinements 4x4 up to 256x256."""
    config = ScenarioConfig(kind="parallel_tubes", levels=7)
    return run_parallel_tubes(config, k=1.0)


@pytest.fixture(scope="module")
def k_sweep_reports():
    """Three-tube study for each stiffness k, up to 128x128."""
    config = ScenarioConfig(kind="parallel_tubes", levels=6)
    return {k: run_parallel_tubes(config, k=k)
            for k in config.k_values}


@pytest.fixture(scope="module")
def root_soil_result():
    """Collar-pressure sweep of the bundled root network on both grids."""
    config = ScenarioConfig(kind="root_soil", delta_correction=True)
    return run_root_soil(config)


# -- criteria ---------------------------------------------------------------

def test_criterion_1_single_tube_convergence():
    config = ScenarioConfig(kind="single_tube", levels=6, rho_factor=5.0)
    report = run_single_tube(config)
    orders = {name: report.orders(name) for name in ("e_ub", "e_psi", "e_q")}
    tail = {n: float(o[-1]) for n, o in orders.items()}
    asymptotic = all(o >= 1.8 for o in tail.values())
    # the first refinement still has h > rho and must not yet be clean
    # second order in every variable
    pre_asymptotic = min(float(o[0]) for o in orders.values()) < 1.8
    ok = asymptotic and pre_asymptotic
    report_line(1, ok, "final orders " + ", ".join(
        f"{n}={v:.2f}" for n, v in tail.items()))
    assert asymptotic
    assert pre_asymptotic


def test_criterion_2_parallel_convergence(parallel_k1_report):
    report = parallel_k1_report
    tail = {name: float(report.orders(name)[-1])
            for name in ("et_ub", "et_psi", "et_q")}
    orders_ok = all(o >= 1.8 for o in tail.values())
    # error against the untransformed-average reference levels off below
    # 0.1 percent once h < R_max
    plateau = float(report.column("e_q")[-1])
    plateau_ok = plateau < 1e-3
    ok = orders_ok and plateau_ok
    report_line(2, ok, "transformed-reference orders " + ", ".join(
        f"{n}={v:.2f}" for n, v in tail.items())
        + f"; source plateau {plateau:.2e}")
    assert orders_ok
    assert plateau_ok


def test_criterion_3_stiffness_sweep(k_sweep_reports):
    plateaus = {k: float(rep.column("e_q")[-1])
                for k, rep in k_sweep_reports.items()}
    ks = sorted(plateaus)
    growing = all(plateaus[a] < plateaus[b] for a, b in zip(ks, ks[1:]))
    k5_ok = 3e-3 <= plateaus[5.0] <= 3e-2
    ok = growing and k5_ok
    report_line(3, ok, "source plateaus " + ", ".join(
        f"k={k:g}:{plateaus[k]:.2e}" for k in ks))
    assert growing
    assert k5_ok


def test_criterion_4_radius_sweep():
    config = ScenarioConfig(kind="parallel_tubes")
    r_values = np.array(config.r_max_values)
    plateaus = np.array([model_error_plateau(config, r) for r in r_values])
    monotone = bool(np.all(np.diff(plateaus) < 0.0))
    slope = float(np.polyfit(np.log(r_values), np.log(plateaus), 1)[0])
    ok = monotone and slope >= 1.5
    report_line(4, ok, "plateaus " + ", ".join(
        f"R={r:g}:{p:.2e}" for r, p in zip(r_values, plateaus))
        + f"; decay exponent {slope:.2f}")
    assert monotone
    assert slope >= 1.5


def test_criterion_5_kernel_radius_study():
    config = ScenarioConfig(kind="kernel_radius_study")
    rows = run_kernel_radius_study(config)
    factors = [r[0] for r in rows]
    errors = np.array([r[1] for r in rows])
    best = int(np.argmin(errors))
    decreasing = bool(np.all(np.diff(errors[:best + 1]) < 0.0))
    interior_min = 0 < best < len(errors) - 1
    upturn = errors[-1] > errors[best]
    ok = decreasing and interior_min and upturn
    report_line(5, ok, "source error decreases to factor "
                f"{factors[best]:g} ({errors[best]:.2e}) then grows to "
                f"{errors[-1]:.2e} at factor {factors[-1]:g}")
    assert decreasing
    assert interior_min
    assert upturn


def test_criterion_6_delta_correction():
    config = ScenarioConfig(kind="parallel_tubes", levels=3)
    ratios = {}
    for k in config.k_values:
        off = run_parallel_tubes(config, k=k)
        on = run_parallel_tubes(
            ScenarioConfig(kind="parallel_tubes", levels=3,
                           delta_correction=True), k=k)
        # coarse levels before the model-error plateau (8x8 and 16x16)
        r = on.column("e_q")[1:] / off.column("e_q")[1:]
        ratios[k] = float(np.min(r))
    ok = all(r <= 0.7 for r in ratios.values())
    report_line(6, ok, "best coarse-level error ratios " + ", ".join(
        f"k={k:g}:{r:.2f}" for k, r in sorted(ratios.items())))
    assert ok


def test_criterion_7_property_suite():
    checks = {}

    # Kirchhoff round trips: closed form and tabulated
    exp_law = ExponentialLaw(d0=0.5, k=1.0)
    u = np.linspace(-30.0, 3.0, 97)
    checks["roundtrip_closed"] = float(np.max(np.abs(
        exp_law.inverse_transform(exp_law.transform(u)) - u))) < 1e-10
    vg = VanGenuchtenLaw(5.89912e-13, mu=1e-3)
    checks["roundtrip_table"] = vg.table.roundtrip_error / 1.01e6 < 1e-6

    # transform derivative equals the diffusion coefficient
    h = 1e-4
    fd = (exp_law.transform(np.float64(0.3 + h))
          - exp_law.transform(np.float64(0.3 - h))) / (2.0 * h)
    checks["transform_derivative"] = (
        abs(fd - float(exp_law.eval(0.3))) / float(exp_law.eval(0.3)) < 1e-6)

    # reconstruction against the constant-law closed form
    iface = Interface(tube_radius=0.01, kernel_radius=0.05, delta=0.02,
                      gamma=1.0, law=ConstantLaw(2.0))
    u_hat = reconstruct_interface(iface, 2.0 * 0.4, 0.1)[0]   # psi = D u
    pf = iface.coupling_factor
    checks["reconstruction_closed_form"] = (
        abs(u_hat - (2.0 * 0.4 + pf * 0.1) / (2.0 + pf)) < 1e-12)

    # TPFA antisymmetry: interior fluxes cancel in the residual sum
    grid = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (8, 8))
    rng = np.random.default_rng(1)
    u_b = rng.uniform(-1.0, 1.0, grid.n_cells)
    res = laplacian(grid, {})[0] @ u_b
    checks["flux_antisymmetry"] = (
        abs(float(np.sum(res))) < 1e-13 * float(np.sum(np.abs(res))))

    # coupled solve in psi: conservation and Jacobian consistency
    grid = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                    (6, 6, 8))
    nodes = np.array([[0.0, 0.0, -0.001], [0.0, 0.0, -0.07],
                      [0.025, 0.0, -0.11]])
    net = TubeNetwork(nodes=nodes,
                      segments=[Segment(0, 1, 2e-3, 3.0, 2e-3, 5e-4),
                                Segment(1, 2, 1e-3, 3.0, 2e-3, 5e-5)])
    mesh = discretize_network(net, 0.02)
    mesh.joint_dirichlet = {0: 0.8}
    psi_b = exp_law.transform(np.float64(0.1))
    dirichlet = {s: np.full(len(grid.side_cells(s)), psi_b)
                 for s in range(6)}
    problem = CoupledProblem(
        grid=grid, law=exp_law, dirichlet=dirichlet, seg_cells=mesh.cells,
        couplings=build_coupling(grid, mesh.cells, delta_correction=True),
        network=mesh)

    u_b = exp_law.transform(rng.uniform(0.0, 0.6, problem.n_bulk))
    u_e = rng.uniform(0.2, 0.8, problem.n_net)
    asm = assemble_coupled(problem, u_b, u_e)
    v = rng.standard_normal(len(asm.res))
    eps = 1e-7
    rp = assemble_coupled(problem, u_b + eps * v[:problem.n_bulk],
                          u_e + eps * v[problem.n_bulk:]).res
    rm = assemble_coupled(problem, u_b - eps * v[:problem.n_bulk],
                          u_e - eps * v[problem.n_bulk:]).res
    jv = coupled_jacobian(problem, asm) @ v
    checks["jacobian_fd"] = (float(np.max(np.abs((rp - rm) / (2 * eps) - jv)))
                             / float(np.max(np.abs(jv))) < 1e-5)

    state = newton_solve(problem, np.full(problem.n_bulk, psi_b),
                         np.full(problem.n_net, 0.4))
    src = float(np.sum(state.q * problem.lengths))
    collar = collar_flux_total(problem, state.u_e)
    checks["conservation"] = (abs(collar + src)
                              < 1e-10 * max(abs(collar), abs(src)))

    # multi-tube reference certification and variant agreement
    specs = three_tube_specs(0.2, 2.0)
    sol = solve_multi_tube(specs, exp_law, anchor=(0, 0.8), variant="u")
    checks["reference_residuals"] = (
        float(np.max(np.abs(sol.residuals(k_ip=2 * sol.k_ip)))) < 1e-8)
    const = ConstantLaw(0.7)
    a = solve_multi_tube(specs, const, anchor=(0, 0.8), variant="u")
    b = solve_multi_tube(specs, const, anchor=(0, 0.8), variant="psi")
    checks["variants_constant_law"] = (
        float(np.max(np.abs(a.u_hat - b.u_hat))) < 1e-12)

    failed = [name for name, ok in checks.items() if not ok]
    report_line(7, not failed,
                f"{len(checks) - len(failed)}/{len(checks)} property checks"
                + (f"; failing: {', '.join(failed)}" if failed else ""))
    assert not failed


class TestCriterion8RootSoil:
    def test_8a_uptake_grows_with_suction(self, root_soil_result):
        res = root_soil_result
        rows = [d for d in res.transpiration if d["grid"] == "16x16x30"]
        r_t = np.array([d["r_t"] for d in rows])
        p_rc = np.array([d["collar_pressure"] for d in rows])
        # at p_rc = 0 the collar sits above the soil pressure and the flow
        # reverses (root feeds soil), so the signed rate decreases strictly
        # along the sweep; equivalently the uptake magnitude increases
        # strictly over the suction branch p_rc < p_s
        signed_ok = bool(np.all(np.diff(r_t) < 0.0))
        suction = p_rc < res.boundary_pressure
        mag_ok = bool(np.all(np.diff(np.abs(r_t[suction])) > 0.0))
        ok = signed_ok and mag_ok
        report_line("8a", ok, "r_T over collar sweep " + ", ".join(
            f"{p:.2g}:{r:+.3e}" for p, r in zip(p_rc, r_t)))
        assert signed_ok
        assert mag_ok

    def test_8b_transpiration_matches_collar_flux(self, root_soil_result):
        worst = 0.0
        for d in root_soil_result.transpiration:
            rel = (abs(d["r_t"] + d["collar_flux"])
                   / max(abs(d["r_t"]), abs(d["collar_flux"])))
            worst = max(worst, rel)
        ok = worst < 1e-10
        report_line("8b", ok, f"worst relative conservation defect "
                    f"{worst:.2e}")
        assert ok

    def test_8c_grid_stability(self, root_soil_result):
        res = root_soil_result
        coarse = {d["collar_pressure"]: d["r_t"]
                  for d in res.transpiration if d["grid"] == "16x16x30"}
        fine = {d["collar_pressure"]: d["r_t"]
                for d in res.transpiration if d["grid"] == "32x32x60"}
        devs = {p: abs(fine[p] - coarse[p]) / abs(fine[p]) for p in coarse}
        worst = max(devs.values())
        ok = worst <= 0.10
        report_line("8c", ok, "coarse-vs-fine r_T deviations " + ", ".join(
            f"{p:.2g}:{d:.1%}" for p, d in sorted(devs.items())))
        assert ok

    def test_8d_interface_values_bracketed(self, root_soil_result):
        res = root_soil_result
        p_s = res.boundary_pressure
        bad = 0
        total = 0
        for row in res.segment_rows:
            # only segments actually exchanging water constrain u_hat; at
            # equilibrium all three values coincide to rounding
            if abs(row["u_e"] - p_s) <= 1.0:
                continue
            total += 1
            lo, hi = sorted((row["u_e"], p_s))
            if not (lo < row["u_hat"] < hi):
                bad += 1
        ok = bad == 0 and total > 0
        report_line("8d", ok, f"{total - bad}/{total} reconstructed "
                    "interface values strictly between collar-side and "
                    "far-field pressure")
        assert ok
