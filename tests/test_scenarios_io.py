"""Scenario configuration round trips, CSV artifacts and the CLI."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdtube.laws
import mdtube.scenarios as scenarios
import mdtube.solver as solver
from mdtube.laws import ConstantLaw, ExponentialLaw, VanGenuchtenLaw
from mdtube.analytic import solve_multi_tube
from mdtube.scenarios import (ConfigError, ErrorReport, LevelErrors,
                              ScenarioConfig, _level_errors,
                              parallel_level_coupling, parse_config,
                              radius_sweep_anchor, run_parallel_tubes,
                              run_scenario, solve_parallel_level,
                              three_tube_specs, write_config)

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
        # ``threads`` was once parsed and never read; it is rejected now
        path = tmp_path / "bad.ini"
        for key in ("bogus", "threads"):
            path.write_text(f"[scenario]\nkind = single_tube\n{key} = 1\n")
            with pytest.raises(ConfigError,
                               match=rf"unknown key \[scenario\] {key}"):
                parse_config(path)

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
        # both reference variants of a level solve on the same coupling
        built = []
        build = scenarios.build_coupling

        def counting_build(grid, *args, **kwargs):
            built.append(grid.shape)
            return build(grid, *args, **kwargs)

        monkeypatch.setattr(scenarios, "build_coupling", counting_build)
        report = run_parallel_tubes(
            ScenarioConfig(kind="parallel_tubes", levels=2), k=1.0)
        assert built == [(4, 4), (8, 8)]
        for name in ("e_q", "et_q"):
            assert np.all(np.isfinite(report.column(name)))

    def test_stiff_coarse_level_solved_by_newton(self):
        # k = 5 on the 4x4 level once stalled Newton in the pressure form
        # and fell back to a continuation that returned iterations = 0 and
        # e_ub/e_psi/e_q = 0.758/0.329/0.599; in psi Newton converges
        law = ExponentialLaw(0.5, 5.0, 1e-6)
        specs = three_tube_specs(0.2, 2.0)
        ref = solve_multi_tube(specs, law, anchor=(0, 0.8), variant="u")
        grid, segs, cpl = parallel_level_coupling(specs, 4)
        state = solve_parallel_level(law, specs, grid, segs, cpl, ref)
        assert state.iterations > 0
        assert state.status == "converged"
        e_ub, _, e_q = _level_errors(grid, law, state, ref)
        assert e_ub < 0.2
        assert e_q < 0.3


class TestArtifacts:
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
        header = lines[0].split(",")
        assert header[-2:] == ["iterations", "status"]
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == "converged"

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
        # over the network block: one assembly per step and the initial one
        calls = []
        real = solver.assemble_coupled

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(solver, "assemble_coupled", counting)
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(-2.5e5, -5e5),
                                delta_correction=True)
        sweep = scenarios.run_root_soil(config).transpiration
        assert len(calls) <= sum(row["iterations"] + 1 for row in sweep)
        for row in sweep:
            assert row["status"] == "converged"
            assert abs(row["r_t"] + row["collar_flux"]) <= 2e-11 * max(
                abs(row["r_t"]), abs(row["collar_flux"]))

    def test_root_soil_solves_without_quadrature(self, monkeypatch):
        # with its tails the Kirchhoff table is exact on all reals, so no
        # Newton solve falls back to a scalar tanh-sinh quadrature
        inside, calls = [], []
        real_quadrature = mdtube.laws.tanh_sinh
        real_solve = scenarios.newton_solve

        def counting_quadrature(*args, **kwargs):
            if inside:
                calls.append(args[1:3])
            return real_quadrature(*args, **kwargs)

        def tracked_solve(*args, **kwargs):
            inside.append(True)
            try:
                return real_solve(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(mdtube.laws, "tanh_sinh", counting_quadrature)
        monkeypatch.setattr(scenarios, "newton_solve", tracked_solve)
        config = ScenarioConfig(kind="root_soil", grids=((8, 8, 15),),
                                collar_pressures=(-1e5, -5e5),
                                delta_correction=True)
        sweep = scenarios.run_root_soil(config).transpiration
        assert [row["status"] for row in sweep] == ["converged"] * 2
        assert calls == []

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

    def test_cli_reports_config_errors(self, tmp_path):
        from mdtube.cli import main
        missing = tmp_path / "nope.ini"
        assert main(["run", str(missing)]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nkind = single_tube\nbogus = 1\n")
        assert main(["run", str(bad)]) == 2

    def test_cli_requires_subcommand(self):
        from mdtube.cli import main
        with pytest.raises(SystemExit):
            main([])
