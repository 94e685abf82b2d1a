"""Scenario configuration round trips, CSV artifacts and the CLI."""

import csv
import importlib
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mdtube.laws
import mdtube.scenarios as scenarios
import mdtube.solver as solver
from mdtube.laws import ConstantLaw, ExponentialLaw, VanGenuchtenLaw
from mdtube.analytic import solve_multi_tube
from mdtube.scenarios import (ConfigError, ErrorReport, LevelErrors,
                              ScenarioConfig, _level_errors, level_profiles,
                              level_reference, parallel_level_coupling,
                              parallel_level_problem,
                              parse_config, radius_sweep_anchor,
                              run_parallel_tubes, run_scenario,
                              solve_parallel_level, three_tube_specs,
                              write_config)

SINGLE_TUBE_INI = """\
[scenario]
kind = single_tube
levels = 2

[law]
type = exponential
d0 = 0.5
k = 1

[tubes]
radius = 0.01
rho_factor = 5
u_e = 0.1
u_hat = 0.5
"""

REPO = Path(__file__).resolve().parents[1]
# generous bound: a single-level run takes about a second, and a hung child
# should fail the test instead of blocking the suite
CLI_TIMEOUT = 300


def _module_cli():
    """Command prefix and environment for ``python -m mdtube`` run from
    this checkout's ``src``, whether or not the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "mdtube"], env


class TestConfigParsing:
    def test_round_trip_identical(self, tmp_path):
        config = ScenarioConfig(kind="root_soil", levels=3, seed=7,
                                delta_correction=True,
                                collar_pressures=(0.0, -1e5),
                                grids=((8, 8, 15), (16, 16, 30)),
                                boundary_saturation=0.4)
        path = tmp_path / "echo.ini"
        write_config(config, path)
        assert parse_config(path) == config

    def test_unknown_key_reports_section(self, tmp_path):
        # ``threads`` is not a setting, and the far-field pressure comes
        # from boundary_saturation alone, not from a [root]
        # boundary_pressure
        path = tmp_path / "bad.ini"
        for section, key in (("scenario", "bogus"), ("scenario", "threads"),
                             ("root", "boundary_pressure")):
            header = "" if section == "scenario" else f"[{section}]\n"
            path.write_text(f"[scenario]\nkind = single_tube\n{header}"
                            f"{key} = 1\n")
            with pytest.raises(ConfigError,
                               match=rf"unknown key \[{section}\] {key}"):
                parse_config(path)

    def test_segment_length_must_be_finite_and_positive(self, tmp_path):
        # ceil(length / target), clamped to 1, would give a non-positive
        # length one cell per segment
        for value in (-0.005, 0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match=r"segment_length"):
                ScenarioConfig(kind="root_soil", segment_length=value)
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nkind = root_soil\n"
                        "[root]\nsegment_length = -0.005\n")
        with pytest.raises(ConfigError, match=r"segment_length"):
            parse_config(path)

    def test_kernel_factors_below_one_rejected(self, tmp_path):
        # the kernel radius is the factor times the tube radius, and must
        # not be smaller than it
        for bad in (dict(rho_factor=0.5), dict(rho_factor=float("nan")),
                    dict(kind="kernel_radius_study", kernel_factors=(2, 0.5))):
            with pytest.raises(ConfigError, match=r"factor"):
                ScenarioConfig(**{"kind": "single_tube", **bad})
        for key, value in (("rho_factor", "0.5"),
                           ("kernel_factors", "3, 0.9")):
            path = tmp_path / f"{key}.ini"
            path.write_text("[scenario]\nkind = kernel_radius_study\n"
                            f"[tubes]\n{key} = {value}\n")
            with pytest.raises(ConfigError, match=key):
                parse_config(path)
        assert ScenarioConfig(kind="single_tube", rho_factor=1.0,
                              kernel_factors=(1.0, 2.0)).rho_factor == 1.0

    def test_kernel_factors_keep_fractions(self, tmp_path):
        # a fractional factor is kept, not truncated to an integer
        path = tmp_path / "cfg.ini"
        path.write_text("[scenario]\nkind = kernel_radius_study\n"
                        "[tubes]\nkernel_factors = 2.5, 3\n")
        config = parse_config(path)
        assert config.kernel_factors == (2.5, 3.0)
        echo = tmp_path / "echo.ini"
        write_config(config, echo)
        assert "kernel_factors = 2.5, 3\n" in echo.read_text()
        assert parse_config(echo) == config

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nkind = single_tube\nlevels = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(path)

    def test_missing_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[law]\ntype = constant\n")
        with pytest.raises(ConfigError, match="missing"):
            parse_config(path)

    def test_unknown_scenario_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            ScenarioConfig(kind="warp_drive")

    def test_grid_spec_format(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[scenario]\nkind = root_soil\n"
                        "[root]\ngrids = 16x16x30, 32x32x60\n")
        config = parse_config(path)
        assert config.grids == ((16, 16, 30), (32, 32, 60))

    def test_build_law_variants(self):
        assert isinstance(
            ScenarioConfig(kind="single_tube").build_law(), ExponentialLaw)
        assert isinstance(
            ScenarioConfig(kind="single_tube",
                           law_type="constant").build_law(), ConstantLaw)
        assert isinstance(
            ScenarioConfig(kind="root_soil",
                           law_type="van_genuchten").build_law(),
            VanGenuchtenLaw)
        # without a [law] section each kind gets the law it uses
        assert ScenarioConfig(kind="root_soil").law_type == "van_genuchten"
        assert ScenarioConfig(kind="delta_study").law_type == "exponential"

    def test_tube_studies_reject_unused_law_type(self, tmp_path):
        # the three-tube studies build an exponential law from k
        for kind in ("parallel_tubes", "kernel_radius_study", "delta_study"):
            for law_type in ("constant", "van_genuchten"):
                with pytest.raises(ConfigError, match=r"\[law\] type"):
                    ScenarioConfig(kind=kind, law_type=law_type)
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nkind = parallel_tubes\n"
                        "[law]\ntype = constant\n")
        with pytest.raises(ConfigError, match=r"\[law\] type"):
            parse_config(path)

    def test_root_soil_rejects_unused_law_type(self, tmp_path):
        for law_type in ("exponential", "constant"):
            with pytest.raises(ConfigError, match=r"\[law\] type"):
                ScenarioConfig(kind="root_soil", law_type=law_type)
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nkind = root_soil\n"
                        "[law]\ntype = exponential\n")
        with pytest.raises(ConfigError, match=r"\[law\] type"):
            parse_config(path)

    def test_single_tube_rejects_unknown_law_type(self):
        with pytest.raises(ConfigError, match=r"\[law\] type"):
            ScenarioConfig(kind="single_tube", law_type="gardner")

    def test_tubes_must_be_disjoint_and_inside_domain(self, tmp_path):
        # r_max = 0.6: tubes 1 and 2 overlap and tube 1 leaves [-1, 1]^2;
        # r_max = 0.55: tube 1 leaves the domain, the tubes stay apart;
        # r_max = 0.5: tube 1 touches the boundary
        for r_max in (0.6, 0.55, 0.5, 0.0, -0.1):
            with pytest.raises(ValueError, match="overlap or leave"):
                three_tube_specs(r_max, 2.0)
        assert len(three_tube_specs(0.49, 2.0)) == 3
        path = tmp_path / "bad.ini"
        for key, value in (("r_max", "0.6"), ("r_max_values", "0.2, 0.55")):
            path.write_text("[scenario]\nkind = parallel_tubes\n"
                            f"[tubes]\n{key} = {value}\n")
            with pytest.raises(ConfigError, match=rf"\[tubes\] {key}:"):
                parse_config(path)


class TestHelpers:
    def test_radius_sweep_anchor_keeps_source_scale(self):
        # R (anchor - u_e) is the source scale of the largest tube
        for r_max in (0.1, 0.05, 0.02):
            a = radius_sweep_anchor(r_max)
            assert r_max * (a - 0.3) == pytest.approx(0.2 * (0.8 - 0.3),
                                                      rel=1e-12)

    def test_error_report_orders(self):
        rep = ErrorReport(label="x")
        for h in (0.4, 0.2, 0.1):
            rep.rows.append(LevelErrors(h=h, e_ub=h ** 2))
        assert np.allclose(rep.orders("e_ub"), 2.0)

    def test_parallel_tubes_builds_one_coupling_per_level(self, monkeypatch):
        # both reference variants of a level, at every k, solve on the
        # same coupling
        built = []
        build = scenarios.build_coupling

        def counting_build(grid, *args, **kwargs):
            built.append(grid.shape)
            return build(grid, *args, **kwargs)

        monkeypatch.setattr(scenarios, "build_coupling", counting_build)
        reports = run_parallel_tubes(
            ScenarioConfig(kind="parallel_tubes", levels=2), ks=(1.0, 5.0))
        assert built == [(4, 4), (8, 8)]
        for report in reports:
            for name in ("e_q", "et_q"):
                assert np.all(np.isfinite(report.column(name)))

    def test_parallel_tubes_builds_one_problem_per_level(self, monkeypatch):
        # the references of a level differ only in their law and boundary
        # values, so their solves share one problem and its operators
        built = []

        class CountingProblem(scenarios.CoupledProblem):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(scenarios, "CoupledProblem", CountingProblem)
        reports = run_parallel_tubes(
            ScenarioConfig(kind="parallel_tubes", levels=2), ks=(1.0, 5.0))
        assert [p.grid.shape for p in built] == [(4, 4), (8, 8)]
        # kernel shares times cell lengths: W is its own magnitude
        assert all(p.deposit.data.min() > 0 for p in built)
        assert [len(r.rows) for r in reports] == [2, 2]

    def test_multi_k_run_matches_single_k_runs(self):
        # every k solves on one problem per level, switched by set_law; the
        # reports keep the bits of runs that build their own
        config = ScenarioConfig(kind="parallel_tubes", levels=3)
        both = run_parallel_tubes(config, ks=(1.0, 5.0))
        assert [r.label for r in both] == ["k=1_rmax=0.2", "k=5_rmax=0.2"]
        for k, report in zip((1.0, 5.0), both):
            [single] = run_parallel_tubes(config, ks=(k,))
            for name in ("h", "e_ub", "e_psi", "e_q", "et_ub", "et_psi",
                         "et_q"):
                assert (report.column(name).tobytes()
                        == single.column(name).tobytes()), (k, name)
        [default] = run_parallel_tubes(config)
        assert default.column("e_q").tobytes() == both[0].column(
            "e_q").tobytes()

    @pytest.mark.parametrize("variant", ["u", "psi"])
    def test_level_reference_matches_pointwise_evaluation(self, variant):
        # the level's profiles, evaluated once, give the values of the
        # reference evaluated at the points themselves
        law = ExponentialLaw(0.5, 3.0, 1e-6)
        specs = three_tube_specs(0.2, 2.0)
        ref = solve_multi_tube(specs, law, anchor=(0, 0.8), variant=variant)
        grid = parallel_level_coupling(specs, 8)[0]
        level = level_reference(ref, level_profiles(specs, grid))
        psi = ref.psi(grid.cell_centers)
        assert level.psi.tobytes() == psi.tobytes()
        assert level.u.tobytes() == law.inverse_transform(psi).tobytes()
        assert list(level.dirichlet) == [0, 1, 2, 3]
        for side, values in level.dirichlet.items():
            expect = law.transform(ref.u(grid.side_centers(side)))
            assert values.tobytes() == expect.tobytes()

    def test_stiff_coarse_level_solved_by_newton(self):
        # k = 5 on the 4x4 level once stalled Newton in the pressure form
        # and fell back to a continuation that returned iterations = 0 and
        # e_ub/e_psi/e_q = 0.758/0.329/0.599; in psi Newton converges
        law = ExponentialLaw(0.5, 5.0, 1e-6)
        specs = three_tube_specs(0.2, 2.0)
        ref = solve_multi_tube(specs, law, anchor=(0, 0.8), variant="u")
        grid, segs, cpl = parallel_level_coupling(specs, 4)
        level = level_reference(ref, level_profiles(specs, grid))
        state = solve_parallel_level(
            parallel_level_problem(law, specs, grid, segs, cpl), level)
        assert state.iterations > 0
        e_ub, _, e_q = _level_errors(grid, law, state, level)
        assert e_ub < 0.2
        assert e_q < 0.3


class TestArtifacts:
    @pytest.mark.parametrize("r_max, k_values, labels", [
        (0.1, (1.0,), ["k=1_rmax=0.1", "k=1_rmax=0.2"]),
        (0.2, (3.0,), ["k=3_rmax=0.2", "k=1_rmax=0.2", "k=1_rmax=0.1"]),
    ], ids=["config_radius_off_base", "no_k_1_in_the_stiffness_sweep"])
    def test_radius_sweep_skips_only_the_stiffness_sweeps_report(
            self, tmp_path, r_max, k_values, labels):
        # the radius sweep is at k = 1; the one report it need not make is
        # the stiffness sweep's at k = 1 and config.r_max, when it exists
        config = ScenarioConfig(kind="parallel_tubes", levels=1, r_max=r_max,
                                k_values=k_values, r_max_values=(0.2, 0.1))
        reports = run_scenario(config, tmp_path)
        assert [r.label for r in reports] == labels
        with open(tmp_path / "errors.csv", newline="") as fh:
            assert [row["label"] for row in csv.DictReader(fh)] == labels

    def test_single_tube_csv_schema_and_determinism(self, tmp_path):
        config = ScenarioConfig(kind="single_tube", levels=2, rho_factor=5.0)
        run_scenario(config, tmp_path / "a")
        run_scenario(config, tmp_path / "b")
        errors = (tmp_path / "a" / "errors.csv").read_text()
        header = errors.splitlines()[0].split(",")
        assert header[:3] == ["label", "level", "h"]
        assert "e_q" in header and "order_e_ub" in header
        assert len(errors.splitlines()) == 3      # header + two levels
        assert errors == (tmp_path / "b" / "errors.csv").read_text()
        # the echoed config parses back to the run configuration
        echoed = parse_config(tmp_path / "a" / "config.echo.ini")
        assert echoed.kind == "single_tube" and echoed.levels == 2

    def test_root_soil_reports_solver_status(self, tmp_path):
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(-1e5,),
                                delta_correction=True)
        run_scenario(config, tmp_path)
        lines = (tmp_path / "transpiration.csv").read_text().splitlines()
        # a solve that does not converge raises, so no status column
        assert lines[0].split(",") == ["grid", "n_cells", "collar_pressure",
                                       "r_t", "collar_flux", "iterations"]
        assert len(lines) == 2
        assert int(lines[1].split(",")[-1]) > 0

    def test_csv_writer_bytes(self, tmp_path):
        # the column writer against csv.writer writing each float's repr:
        # labels, signed zeros, subnormals, non-finite values, numpy
        # scalars, ints and float arrays of either kind
        floats = np.array([0.1, -0.0, 5e-324, 1e-300, 1e16, 1.5e300,
                           np.nan, np.inf, -np.inf, 2.0 / 3.0])
        columns = [["16x16x30", "k=1_rmax=0.2", "k=5_delta=mean", " lead",
                    "t\tt", "", "é", "#", "-1e+05", "x"],
                   list(range(-3, 7)), np.arange(10) * 7,
                   floats, floats.tolist(), list(floats),
                   [np.float32(0.1)] * 10,
                   [1.0, 2, "s", "", True, 0.5, -1, 3.25, 1e-7, np.int64(4)]]
        header = ["label", "i", "j", "array", "list", "scalars", "float32",
                  "mixed"]
        # and a table of one row, its columns tuples, as zip(*rows) gives
        table = list(zip(*columns))
        for name, cols, rows in (("table", columns, table),
                                 ("row", zip(*table[3:4]), table[3:4])):
            scenarios._write_csv(tmp_path / f"{name}.csv", header, cols)
            with open(tmp_path / f"{name}-ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([repr(float(v)) if isinstance(v, float)
                                     else v for v in row])
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}-ref.csv").read_bytes())

    def test_root_csvs_are_csv_writer_bytes(self, tmp_path):
        # segments.csv and transpiration.csv of a run against csv.writer
        # over the rows of the same result. The solver's restart count is
        # in each transpiration row but not in the table
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(0.0, -1e5),
                                delta_correction=True)
        result = run_scenario(config, tmp_path)
        trans_header = scenarios._TRANSPIRATION_HEADER
        assert list(result.transpiration[0]) == trans_header + ["restarts"]
        for name, rows, header in (
                ("segments.csv", result.segment_rows,
                 list(result.segment_rows[0])),
                ("transpiration.csv", result.transpiration, trans_header)):
            with open(tmp_path / f"ref-{name}", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([repr(float(row[h]))
                                     if isinstance(row[h], float) else row[h]
                                     for h in header])
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / f"ref-{name}").read_bytes())

    def test_delta_clamp_is_reported(self):
        # build_coupling clamps the RMS stencil distance below the kernel
        # radius on 243 of the 262 segment cells of seed 2024 on 16x16x30
        built = []
        real = scenarios.build_coupling

        def keep(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "build_coupling", keep)
            result = scenarios.run_root_soil(ScenarioConfig(
                kind="root_soil", seed=2024, grids=((16, 16, 30),),
                collar_pressures=(-1e5,), delta_correction=True))
        (couplings,) = built
        assert len(couplings) == 262
        assert result.delta_clamped == {"16x16x30": 243}
        mesh = result.final_mesh
        for cell, c in zip(mesh.cells, couplings):
            cap = cell.kernel_radius * (1.0 - 1e-6)
            assert (c.delta == cap) if c.delta_clamped else (c.delta < cap)

    def test_transpiration_csv_keeps_every_bit(self, tmp_path):
        # "%.12g" cannot resolve the 1e-12 relative bounds r_T is held to
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(0.0, -1e5))
        result = run_scenario(config, tmp_path)
        with open(tmp_path / "transpiration.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, solved in zip(rows, result.transpiration, strict=True):
            assert float(row["r_t"]) == solved["r_t"]
            assert float(row["collar_flux"]) == solved["collar_flux"]

    def test_root_soil_builds_one_problem_per_grid(self, monkeypatch):
        built = []

        class CountingProblem(scenarios.CoupledProblem):
            def __post_init__(self):
                built.append(self.grid.shape)
                super().__post_init__()

        monkeypatch.setattr(scenarios, "CoupledProblem", CountingProblem)
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(-1e5, -2.5e5),
                                delta_correction=True)
        sweep = scenarios.run_root_soil(config).transpiration
        assert built == [(8, 8, 15)]
        # the second pressure reaches the reused problem: more suction,
        # more uptake, and the collar passes on what the roots take up
        assert sweep[1]["r_t"] < sweep[0]["r_t"] < 0.0
        for row in sweep:
            assert abs(row["r_t"] + row["collar_flux"]) < 1e-10 * abs(
                row["r_t"])

    def test_warm_started_sweep_meets_collar_balance(self, monkeypatch):
        # the Newton loop's own collar-balance test, with no second pass
        # over the network block: one interface solve per line-search
        # trial, and three per solve, for the initial q, its exchange
        # residual and the assembled state
        calls = []
        real_interface = solver.reconstruct_interface

        def counting(*args):
            calls.append(None)
            return real_interface(*args)

        # the bound of the Newton loop's collar-balance test at each
        # returned state, taken before the next collar pressure is set,
        # and the solve's line-search trials: a step of length 2^-k took
        # k + 1
        bounds, trials = [], []
        real_solve = scenarios.newton_solve

        def solve_and_bound(problem, u_b0, u_e0):
            state = real_solve(problem, u_b0, u_e0)
            asm = solver.assemble_coupled(problem, state.u_b, state.u_e)
            calls.pop()
            bounds.append(solver._collar_bound(problem, asm, state.u_b,
                                               state.u_e))
            trials.append(sum(1 - math.log2(alpha)
                              for alpha in state.step_lengths))
            return state

        monkeypatch.setattr(solver, "reconstruct_interface", counting)
        monkeypatch.setattr(scenarios, "newton_solve", solve_and_bound)
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(-2.5e5, -5e5),
                                delta_correction=True)
        sweep = scenarios.run_root_soil(config).transpiration
        assert len(calls) <= sum(n + 3 for n in trials)
        assert len(bounds) == len(sweep)
        for row, bound in zip(sweep, bounds):
            defect = abs(row["r_t"] + row["collar_flux"])
            assert defect <= bound
            assert defect <= 2e-11 * max(abs(row["r_t"]),
                                         abs(row["collar_flux"]))

    @pytest.mark.parametrize("delta,seed", [(False, 3), (False, 6),
                                            (True, 1), (True, 11)])
    def test_held_out_network_meets_collar_balance(self, delta, seed):
        # networks other than the benchmark's seed 2024 stall their
        # residual sum at a different share of the exchanged flow; the
        # stopping test must accept them at the rounding floor
        config = ScenarioConfig(kind="root_soil", seed=seed,
                                grids=((16, 16, 30),),
                                collar_pressures=(-5e5,),
                                delta_correction=delta)
        row, = scenarios.run_root_soil(config).transpiration
        assert abs(row["r_t"] + row["collar_flux"]) < 1e-10 * max(
            abs(row["r_t"]), abs(row["collar_flux"]))

    def test_root_soil_solves_without_quadrature(self, monkeypatch):
        # the soil law builds its Kirchhoff table once, at construction;
        # the table is exact on all reals, so no Newton solve integrates
        inside, calls = [], []
        real_quadrature = mdtube.laws.tanh_sinh_piecewise_cumulative
        real_solve = scenarios.newton_solve

        def counting_quadrature(*args, **kwargs):
            calls.append(bool(inside))
            return real_quadrature(*args, **kwargs)

        def tracked_solve(*args, **kwargs):
            inside.append(True)
            try:
                return real_solve(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(mdtube.laws, "tanh_sinh_piecewise_cumulative",
                            counting_quadrature)
        monkeypatch.setattr(scenarios, "newton_solve", tracked_solve)
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(-1e5, -5e5),
                                delta_correction=True)
        sweep = scenarios.run_root_soil(config).transpiration
        assert len(sweep) == 2
        assert calls == [False]

    @pytest.mark.parametrize("u_e, u_hat, e_q", [
        (-2.0e5, -1.0e5, [0.9378110441297609, 0.4990225087994768]),
        (-3.0e3, -1.0e3, [0.937811027856731, 0.4990225046345036])],
        ids=["below_floor", "near_saturation"])
    def test_single_tube_van_genuchten(self, tmp_path, u_e, u_hat, e_q):
        # the soil law on the radial study, through its Kirchhoff table:
        # the source errors of a per-point quadrature of the transform
        # (frozen) to 1e-10, with the tube below the floor kink and near
        # saturation, where the table's interpolation error is largest
        config = ScenarioConfig(kind="single_tube", levels=2,
                                law_type="van_genuchten", u_e=u_e,
                                u_hat=u_hat)
        report = run_scenario(config, tmp_path / "out")
        assert report.column("e_q") == pytest.approx(e_q, rel=1e-10, abs=0.0)

    def test_errors_decrease_under_refinement(self, tmp_path):
        config = ScenarioConfig(kind="single_tube", levels=3, rho_factor=5.0)
        report = run_scenario(config, tmp_path / "out")
        # the source error is the cleanest indicator on coarse grids (the
        # bulk error still mixes in the kernel-cell quadrature wiggle)
        e = report.column("e_q")
        assert e[2] < e[1] < e[0]


class TestCli:
    def test_console_script_runs_scenario(self, tmp_path):
        # the installed console script when there is one, else the same CLI
        # through ``python -m mdtube`` (an uninstalled checkout)
        exe = shutil.which("mdtube")
        if exe is not None:
            cmd, env = [exe], None
        else:
            cmd, env = _module_cli()
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SINGLE_TUBE_INI)
        out = tmp_path / "out"
        proc = subprocess.run(cmd + ["run", str(cfg), "--out", str(out),
                                     "--levels", "1"],
                              capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        assert (out / "errors.csv").is_file()
        # --levels overrides the config value
        assert len((out / "errors.csv").read_text().splitlines()) == 2

    def test_console_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["mdtube"]
        assert target == "mdtube.cli:main"
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))

    def test_module_cli_returns_exit_code(self, tmp_path):
        cmd, env = _module_cli()
        proc = subprocess.run(cmd + ["run", str(tmp_path / "nope.ini")],
                              capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT)
        assert proc.returncode == 2, proc.stderr

    def test_runs_load_only_the_scipy_they_use(self, tmp_path):
        # scipy.optimize (which loads scipy.spatial) and scipy.sparse.csgraph
        # served one call each, for 17 MB of every run's memory
        code = textwrap.dedent(f"""
            import sys
            import mdtube
            mdtube.run_scenario(mdtube.ScenarioConfig(
                kind="root_soil", grids=((8, 8, 15),),
                collar_pressures=(-1e5,)), {str(tmp_path / "root")!r})
            mdtube.run_scenario(mdtube.ScenarioConfig(
                kind="parallel_tubes", levels=1, k_values=(1.0,),
                r_max_values=(0.2,)), {str(tmp_path / "tubes")!r})
            print(" ".join(name for name in ("scipy.optimize",
                                             "scipy.sparse.csgraph",
                                             "scipy.spatial")
                           if name in sys.modules))
            """)
        _, env = _module_cli()
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "root" / "transpiration.csv").is_file()
        assert (tmp_path / "tubes" / "errors.csv").is_file()
        assert proc.stdout.strip() == ""

    def test_cli_reports_config_errors(self, tmp_path, capsys):
        from mdtube.cli import main
        missing = tmp_path / "nope.ini"
        assert main(["run", str(missing)]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nkind = single_tube\nbogus = 1\n")
        assert main(["run", str(bad)]) == 2
        # a bad --levels override is a config error too, not a traceback
        good = tmp_path / "single.ini"
        good.write_text("[scenario]\nkind = single_tube\n")
        capsys.readouterr()
        assert main(["run", str(good), "--levels", "0",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: levels must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_cli_reports_network_file_errors(self, tmp_path, capsys):
        # a malformed network file is bad input, as a bad config is, and
        # the message names its line
        from mdtube.cli import main
        net = tmp_path / "net.txt"
        net.write_text("node 0 0 0 -0.01\nnode 1 0 0 -0.05\n"
                       "seg 0 0 1 0.002 3 2e-11 5e-13\n"
                       "seg 0 0 1 0.002 3 2e-11 5e-13\n")
        cfg = tmp_path / "root.ini"
        cfg.write_text(f"[scenario]\nkind = root_soil\n"
                       f"[root]\nnetwork_file = {net}\n")
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{net}:4: " in capsys.readouterr().err

    def test_cli_requires_subcommand(self):
        from mdtube.cli import main
        with pytest.raises(SystemExit):
            main([])
