"""Scenario harness: configuration files, convergence studies, root uptake.

Each scenario builds grids, networks and diffusion laws from a plain
key-value config, runs the coupled solver over a refinement sequence or a
parameter sweep, and reports relative discrete L2 errors against the
semi-analytical references (or, for the root scenario, transpiration
rates and per-segment reconstructions).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .analytic import MultiTubeSolution, TubeSpec, solve_multi_tube, \
    tube_profiles
from .coupling import build_coupling
from .grid import BulkGrid, bulk_l2_error, observed_orders, source_l2_error
from .laws import ConstantLaw, DiffusionLaw, ExponentialLaw, VanGenuchtenLaw
from .network import NetworkMesh, SegmentCell, discretize_network, \
    parse_network, synthetic_root_network
from .solver import CoupledProblem, CoupledState, collar_flux_total, \
    newton_solve
from . import vtk as vtk_io

SCENARIO_KINDS = ("single_tube", "parallel_tubes", "kernel_radius_study",
                  "delta_study", "root_soil")

#: ``[law] type`` values each scenario kind reads, its default first; the
#: three-tube studies build their law from ``k`` and the root scenario
#: always uses the soil law
_KIND_LAW_TYPES = {
    "single_tube": ("exponential", "constant", "van_genuchten"),
    "parallel_tubes": ("exponential",),
    "kernel_radius_study": ("exponential",),
    "delta_study": ("exponential",),
    "root_soil": ("van_genuchten",),
}

#: cross-sectional tube centers of the three-tube verification setup
TUBE_CENTERS = ((-0.5, -0.5), (0.5, -0.5), (0.0, 0.5))
TUBE_U_E = (0.3, 0.2, 0.1)
#: the largest tube radius of the baseline three-tube setup, whose anchor a
#: radius sweep rescales (``radius_sweep_anchor``)
BASE_R_MAX = 0.2


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    kind: str
    out_dir: str = "out"
    levels: int = 6
    seed: int = 2024
    delta_correction: bool = False
    write_vtk: bool = False
    # law parameters
    law_type: str | None = None         # None: the kind's default law
    d0: float = 0.5
    k: float = 1.0
    d_min: float = 1e-6
    permeability: float = 5.89912e-13
    viscosity: float = 1e-3
    # tube geometry and sweeps for the verification scenarios
    gamma: float = 1.0
    rho_factor: float = 2.0
    tube_radius: float = 0.01
    u_e: float = 0.1
    u_hat: float = 0.5
    r_max: float = 0.2
    anchor: float = 0.8
    k_values: tuple = (0.1, 1.0, 3.0, 5.0)
    r_max_values: tuple = (0.2, 0.1, 0.05, 0.02)
    kernel_factors: tuple = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
    # root-soil scenario
    network_file: str = ""
    collar_pressures: tuple = (0.0, -0.5e5, -1.0e5, -2.5e5, -5.0e5)
    boundary_saturation: float = 0.4
    grids: tuple = ((16, 16, 30), (32, 32, 60))
    segment_length: float = 0.005

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if not (np.isfinite(self.segment_length) and self.segment_length > 0):
            raise ConfigError(f"[root] segment_length = {self.segment_length}"
                              " must be finite and positive")
        used = _KIND_LAW_TYPES[self.kind]
        if self.law_type is None:
            self.law_type = used[0]
        elif self.law_type not in used:
            raise ConfigError(
                f"[law] type = {self.law_type} is not used by scenario kind "
                f"{self.kind!r}; it uses {' or '.join(used)}")
        for key, values in (("rho_factor", (self.rho_factor,)),
                            ("kernel_factors", self.kernel_factors)):
            if not all(factor >= 1.0 for factor in values):
                raise ConfigError(
                    f"[tubes] {key} = {_fmt(getattr(self, key))}: a kernel "
                    "radius is the factor times the tube radius, so each "
                    "factor must be >= 1")
        for key, values in (("r_max", (self.r_max,)),
                            ("r_max_values", self.r_max_values)):
            for r_max in values:
                try:
                    three_tube_specs(r_max, self.rho_factor)
                except ValueError as exc:
                    raise ConfigError(f"[tubes] {key}: {exc}") from None

    def build_law(self) -> DiffusionLaw:
        if self.law_type == "exponential":
            return ExponentialLaw(self.d0, self.k, self.d_min)
        if self.law_type == "constant":
            return ConstantLaw(self.d0)
        return VanGenuchtenLaw(self.permeability, mu=self.viscosity)


# -- config file round trip ------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _parse_grids(text: str) -> tuple:
    out = []
    for part in text.split(","):
        dims = tuple(int(t) for t in part.lower().split("x"))
        if len(dims) != 3:
            raise ValueError(f"grid spec {part!r} is not NXxNYxNZ")
        out.append(dims)
    return tuple(out)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float_tuple(text: str) -> tuple:
    return tuple(float(t) for t in text.split(","))


# (section, key) -> (attribute, parser)
_SCHEMA = {
    ("scenario", "kind"): ("kind", str),
    ("scenario", "out_dir"): ("out_dir", str),
    ("scenario", "levels"): ("levels", int),
    ("scenario", "seed"): ("seed", int),
    ("scenario", "delta_correction"): ("delta_correction", _parse_bool),
    ("scenario", "write_vtk"): ("write_vtk", _parse_bool),
    ("law", "type"): ("law_type", str),
    ("law", "d0"): ("d0", float),
    ("law", "k"): ("k", float),
    ("law", "d_min"): ("d_min", float),
    ("law", "permeability"): ("permeability", float),
    ("law", "viscosity"): ("viscosity", float),
    ("tubes", "gamma"): ("gamma", float),
    ("tubes", "rho_factor"): ("rho_factor", float),
    ("tubes", "radius"): ("tube_radius", float),
    ("tubes", "u_e"): ("u_e", float),
    ("tubes", "u_hat"): ("u_hat", float),
    ("tubes", "r_max"): ("r_max", float),
    ("tubes", "anchor"): ("anchor", float),
    ("tubes", "k_values"): ("k_values", _float_tuple),
    ("tubes", "r_max_values"): ("r_max_values", _float_tuple),
    ("tubes", "kernel_factors"): ("kernel_factors", _float_tuple),
    ("root", "network_file"): ("network_file", str),
    ("root", "collar_pressures"): ("collar_pressures", _float_tuple),
    ("root", "boundary_saturation"): ("boundary_saturation", float),
    ("root", "grids"): ("grids", _parse_grids),
    ("root", "segment_length"): ("segment_length", float),
}


def parse_config(path) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            try:
                attr, conv = _SCHEMA[(section, key)]
            except KeyError:
                raise ConfigError(
                    f"{path}: unknown key [{section}] {key}") from None
            try:
                values[attr] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for [{section}] {key}: {exc}"
                ) from exc
    if "kind" not in values:
        raise ConfigError(f"{path}: missing [scenario] kind")
    return ScenarioConfig(**values)


def write_config(config: ScenarioConfig, path):
    """Emit a config echo that parses back to an identical ScenarioConfig."""
    by_section: dict[str, list] = {}
    attr_to_loc = {attr: (sec, key)
                   for (sec, key), (attr, _) in _SCHEMA.items()}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        sec, key = attr_to_loc[f.name]
        if f.name == "grids":
            text = ", ".join("x".join(str(d) for d in g) for g in value)
        else:
            text = _fmt(value)
        by_section.setdefault(sec, []).append((key, text))
    with open(path, "w") as fh:
        for sec in ("scenario", "law", "tubes", "root"):
            if sec not in by_section:
                continue
            fh.write(f"[{sec}]\n")
            for key, value in by_section[sec]:
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


# -- error reporting -------------------------------------------------------

@dataclass
class LevelErrors:
    h: float
    e_ub: float = np.nan
    e_psi: float = np.nan
    e_q: float = np.nan
    et_ub: float = np.nan
    et_psi: float = np.nan
    et_q: float = np.nan


@dataclass
class ErrorReport:
    label: str
    rows: list[LevelErrors] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def orders(self, name: str) -> np.ndarray:
        h = self.column("h")
        return observed_orders(h, self.column(name))


# -- verification scenario helpers -----------------------------------------

def three_tube_specs(r_max: float, rho_factor: float,
                     gamma: float = 1.0) -> list[TubeSpec]:
    # at TUBE_CENTERS tube 1 meets the boundary of [-1, 1]^2 at r_max = 0.5,
    # before it meets tube 2 at r_max = 4/7
    if not 0.0 < r_max < 0.5:
        raise ValueError(f"r_max = {r_max:g}: the three tubes overlap or "
                         "leave the domain [-1, 1]^2 unless 0 < r_max < 0.5")
    radii = (r_max, 0.75 * r_max, 0.5 * r_max)
    return [TubeSpec(center=c, tube_radius=r, kernel_radius=rho_factor * r,
                     gamma=gamma, u_e=ue)
            for c, r, ue in zip(TUBE_CENTERS, radii, TUBE_U_E)]


def radius_sweep_anchor(r_max: float, base_anchor: float = 0.8) -> float:
    """Anchor value keeping the largest tube's source fixed across radii.

    The source is proportional to R (u_hat - u_e), so scaling the anchor
    offset by BASE_R_MAX / r_max leaves it invariant.
    """
    u_e1 = TUBE_U_E[0]
    return u_e1 + (base_anchor - u_e1) * BASE_R_MAX / r_max


def _degenerate_segments(specs) -> list[SegmentCell]:
    return [SegmentCell(p0=np.asarray(t.center, float),
                        p1=np.asarray(t.center, float), length=1.0,
                        radius=t.tube_radius, kernel_radius=t.kernel_radius,
                        gamma=t.gamma, d_e=0.0, segment_id=i,
                        joint_a=2 * i, joint_b=2 * i + 1)
            for i, t in enumerate(specs)]


def parallel_level_coupling(specs, n: int, delta_correction: bool = False):
    """Grid of [-1,1]^2 with n-by-n cells, the tubes' segment cells and
    their coupling; every solve of a level, at each stiffness and against
    both reference variants, is on these."""
    grid = BulkGrid("2d", [-1.0, -1.0], [2.0, 2.0], (n, n))
    segs = _degenerate_segments(specs)
    return grid, segs, build_coupling(grid, segs,
                                      delta_correction=delta_correction)


def _physical_state(law: DiffusionLaw, state: CoupledState) -> CoupledState:
    """``state`` of a solve with its bulk mapped from psi back to the
    physical variable."""
    return replace(state, u_b=law.inverse_transform(state.u_b))


class LevelProfiles(NamedTuple):
    """The tubes' profiles (``tube_profiles``) on one level's grid, at the
    cell centers and at the boundary face centers of each side: they
    depend on the geometry alone, so every reference of the level is
    evaluated from them."""

    cells: np.ndarray
    sides: dict[int, np.ndarray]


def level_profiles(specs, grid: BulkGrid) -> LevelProfiles:
    return LevelProfiles(tube_profiles(specs, grid.cell_centers),
                         {s: tube_profiles(specs, grid.side_centers(s))
                          for s in range(4)})


class LevelReference(NamedTuple):
    """A reference evaluated on one level's grid, each value once: psi on
    the boundary faces of each side (the Dirichlet values), and psi and u
    at the cell centers (the initial guess and the errors' reference)."""

    ref: MultiTubeSolution
    dirichlet: dict[int, np.ndarray]
    psi: np.ndarray
    u: np.ndarray


def level_reference(ref: MultiTubeSolution,
                    profiles: LevelProfiles) -> LevelReference:
    """``ref`` on the cells and boundary faces of a level whose tube
    profiles are ``profiles``; u is psi mapped through the law, as
    ``ref.u`` maps it, and the Dirichlet values are that u mapped back."""
    law = ref.law
    psi = ref.psi_of_profiles(profiles.cells)
    dirichlet = {s: law.transform(law.inverse_transform(
        ref.psi_of_profiles(side))) for s, side in profiles.sides.items()}
    return LevelReference(ref, dirichlet, psi, law.inverse_transform(psi))


def parallel_level_problem(law: DiffusionLaw, specs, grid: BulkGrid,
                           segs: list[SegmentCell], cpl) -> CoupledProblem:
    """The three-tube problem on one level's grid and coupling (see
    ``parallel_level_coupling``). Each solve sets its law and boundary
    values (``solve_parallel_level``), so it is built with ``law`` and
    zero boundary values."""
    dirichlet = {s: np.zeros(len(grid.side_cells(s))) for s in range(4)}
    return CoupledProblem(grid=grid, law=law, dirichlet=dirichlet,
                          seg_cells=segs, couplings=cpl,
                          u_e_fixed=np.array([t.u_e for t in specs]))


def solve_parallel_level(problem: CoupledProblem,
                         level: LevelReference) -> CoupledState:
    """Solve the three-tube cross-section of ``problem``, one level's
    (``parallel_level_problem``), against the reference ``level``. The
    problem is given the reference's law and boundary values in place of
    a new build: the references of a level differ only in those."""
    law = level.ref.law
    problem.set_law(law)
    problem.set_dirichlet(level.dirichlet)
    state = newton_solve(problem, law.transform(level.u))
    return _physical_state(law, state)


def _level_errors(grid: BulkGrid, law: DiffusionLaw, state: CoupledState,
                  level: LevelReference):
    e_ub = bulk_l2_error(grid, state.u_b, level.u, 1.0)
    e_psi = bulk_l2_error(grid, np.asarray(law.transform(state.u_b), float),
                          level.psi, 0.1)
    e_q = source_l2_error(state.q, level.ref.q)
    return e_ub, e_psi, e_q


def run_single_tube(config: ScenarioConfig) -> ErrorReport:
    """Radial convergence against the single-tube reference, the one-tube
    case of the three-tube studies' superposition: the tube lies on the
    axis r = 0, and a radius r is the point (r, 0) of the reference."""
    law = config.build_law()
    radius = config.tube_radius
    tube = TubeSpec(center=(0.0, 0.0), tube_radius=radius,
                    kernel_radius=config.rho_factor * radius,
                    gamma=config.gamma, u_e=config.u_e)
    ref = solve_multi_tube([tube], law, anchor=(0, config.u_hat))
    segs = _degenerate_segments([tube])
    r_out = 1.0
    dirichlet = {1: law.transform(ref.u(np.array([[r_out, 0.0]])))}
    n0 = max(1, round(r_out / (20.0 * radius)))
    report = ErrorReport(label="single_tube")
    for level in range(config.levels):
        n = n0 * 2 ** level
        grid = BulkGrid("radial", [0.0], [r_out], (n,))
        cpl = build_coupling(grid, segs,
                             delta_correction=config.delta_correction)
        prob = CoupledProblem(grid=grid, law=law, dirichlet=dirichlet,
                              seg_cells=segs, couplings=cpl,
                              u_e_fixed=np.array([tube.u_e]))
        state = _physical_state(law, newton_solve(prob,
                                                  np.full(n, dirichlet[1])))
        psi = ref.psi(np.stack([grid.cell_centers[:, 0], np.zeros(n)],
                               axis=-1))
        errors = _level_errors(grid, law, state, LevelReference(
            ref, dirichlet, psi, law.inverse_transform(psi)))
        # single infinite tube: both averaging variants coincide
        report.rows.append(LevelErrors(r_out / n, *errors, *errors))
    return report


def run_parallel_tubes(config: ScenarioConfig, ks=None,
                       r_max: float | None = None) -> list[ErrorReport]:
    """Three-tube convergence at one r_max for each stiffness of ``ks``
    (``config.k`` by default), against both references: one report per
    k, in the order of ``ks``.

    The grid sequence is uniformly refined starting from 4x4 cells. Each
    level's grid, coupling, tube profiles and problem are built once, for
    every k: the solves of a level differ only in the law and the
    boundary values, which ``solve_parallel_level`` sets. For radius
    sweeps the anchor is adjusted so the largest tube's source matches
    the baseline.
    """
    ks = (config.k,) if ks is None else tuple(ks)
    r_max = config.r_max if r_max is None else r_max
    specs = three_tube_specs(r_max, config.rho_factor, config.gamma)
    anchor = (config.anchor if r_max == BASE_R_MAX
              else radius_sweep_anchor(r_max, base_anchor=config.anchor))
    laws = [ConstantLaw(config.d0) if k == 0.0
            else ExponentialLaw(config.d0, k, config.d_min) for k in ks]
    refs = [{v: solve_multi_tube(specs, law, anchor=(0, anchor), variant=v)
             for v in ("u", "psi")} for law in laws]
    reports = [ErrorReport(label=f"k={k:g}_rmax={r_max:g}") for k in ks]
    for level in range(config.levels):
        n = 4 * 2 ** level
        grid, segs, cpl = parallel_level_coupling(specs, n,
                                                  config.delta_correction)
        profiles = level_profiles(specs, grid)
        problem = parallel_level_problem(laws[0], specs, grid, segs, cpl)
        for report, k_refs in zip(reports, refs):
            row = LevelErrors(h=2.0 / n)
            for variant, ref in k_refs.items():
                level_ref = level_reference(ref, profiles)
                state = solve_parallel_level(problem, level_ref)
                errors = _level_errors(grid, ref.law, state, level_ref)
                if variant == "u":
                    row.e_ub, row.e_psi, row.e_q = errors
                else:
                    row.et_ub, row.et_psi, row.et_q = errors
            report.rows.append(row)
    return reports


def model_error_plateau(config: ScenarioConfig, r_max: float) -> float:
    """Source discrepancy between the two analytical averaging variants.

    This is the level-independent floor that the source error against the
    plain reference approaches under refinement; it isolates the averaging
    approximation from discretization effects.
    """
    law = ExponentialLaw(config.d0, config.k, config.d_min)
    specs = three_tube_specs(r_max, config.rho_factor, config.gamma)
    anchor = radius_sweep_anchor(r_max, base_anchor=config.anchor)
    s_u = solve_multi_tube(specs, law, anchor=(0, anchor), variant="u")
    s_p = solve_multi_tube(specs, law, anchor=(0, anchor), variant="psi")
    return source_l2_error(s_p.q, s_u.q)


def run_kernel_radius_study(config: ScenarioConfig) -> list[tuple[float, float]]:
    """Source error over kernel radius factors at fixed h = 0.125.

    The analytical interface values live on the line-source field and are
    therefore invariant under the kernel radius, so the exact sources are
    identical for every factor; only the regularized bulk field changes.
    """
    law = ExponentialLaw(config.d0, config.k, config.d_min)
    rows = []
    for factor in config.kernel_factors:
        specs = three_tube_specs(config.r_max, float(factor), config.gamma)
        ref = solve_multi_tube(specs, law, anchor=(0, config.anchor),
                               variant="u")
        grid, segs, cpl = parallel_level_coupling(specs, 16)
        level = level_reference(ref, level_profiles(specs, grid))
        state = solve_parallel_level(
            parallel_level_problem(law, specs, grid, segs, cpl), level)
        rows.append((float(factor), source_l2_error(state.q, ref.q)))
    return rows


def run_delta_study(config: ScenarioConfig) -> dict[float, tuple]:
    """Source errors with and without the mean-distance correction, per
    k: one study over all of ``config.k_values`` per setting."""
    off = run_parallel_tubes(replace(config, delta_correction=False),
                             ks=config.k_values)
    on = run_parallel_tubes(replace(config, delta_correction=True),
                            ks=config.k_values)
    return {k: (a, b) for k, a, b in zip(config.k_values, off, on)}


# -- root-soil scenario ----------------------------------------------------

#: column dimensions in meters; the collar sits in the top face
ROOT_DOMAIN_ORIGIN = (-0.04, -0.04, -0.15)
ROOT_DOMAIN_EXTENTS = (0.08, 0.08, 0.15)


class SegmentTable(NamedTuple):
    """The columns of ``segments.csv`` for one solve, one entry per
    segment cell."""

    grid: list[str]
    collar_pressure: np.ndarray
    segment_id: np.ndarray
    cell: np.ndarray
    depth: np.ndarray
    length: np.ndarray
    radius: np.ndarray
    u_e: np.ndarray
    u_hat: np.ndarray
    q: np.ndarray


@dataclass
class RootSoilResult:
    boundary_pressure: float
    transpiration: list[dict] = field(default_factory=list)
    segments: list[SegmentTable] = field(default_factory=list)
    #: per grid, the segment cells whose delta ``build_coupling`` clamped
    #: below the kernel radius
    delta_clamped: dict[str, int] = field(default_factory=dict)
    final_state: CoupledState | None = None
    final_grid: BulkGrid | None = None
    final_mesh: NetworkMesh | None = None

    @property
    def segment_rows(self) -> list[dict]:
        """The rows of ``segments.csv``, one dict per segment cell and
        solve."""
        return [dict(zip(SegmentTable._fields, row))
                for table in self.segments for row in zip(*table)]


def run_root_soil(config: ScenarioConfig) -> RootSoilResult:
    """Root water uptake in a soil column over a collar pressure sweep.

    Boundary soil pressure comes from the prescribed water saturation; the
    lateral and bottom faces are Dirichlet, the top face is zero-flux.
    Transpiration is the summed segment source, reported together with the
    collar flux it must balance.
    """
    law = config.build_law()
    p_s = law.saturation_to_pressure(config.boundary_saturation)

    if config.network_file:
        net = parse_network(config.network_file)
    else:
        net = synthetic_root_network(seed=config.seed)
    # the mesh depends on the network alone, so every grid shares it; the
    # collar is its Dirichlet joint, set to each pressure of the sweep
    mesh = discretize_network(net, config.segment_length)
    collar_joint = net.collar_node()
    mesh.joint_dirichlet = {collar_joint: p_s}
    # all but the top face are Dirichlet; the bulk is solved in psi
    psi_s = float(law.transform(np.float64(p_s)))

    result = RootSoilResult(boundary_pressure=p_s)
    cells = mesh.cells
    geometry = (np.array([c.segment_id for c in cells]),
                np.arange(len(cells)),
                np.array([c.midpoint[2] for c in cells], float),
                np.array([c.length for c in cells], float),
                np.array([c.radius for c in cells], float))
    for shape in config.grids:
        label = "x".join(str(s) for s in shape)
        grid = BulkGrid("3d", ROOT_DOMAIN_ORIGIN, ROOT_DOMAIN_EXTENTS, shape)
        couplings = build_coupling(grid, mesh.cells,
                                   delta_correction=config.delta_correction)
        result.delta_clamped[label] = sum(c.delta_clamped for c in couplings)
        dirichlet = {side: np.full(len(grid.side_cells(side)), psi_s)
                     for side in (0, 1, 2, 3, 4)}
        # one problem, and so one set of operators, per grid
        prob = CoupledProblem(grid=grid, law=law, dirichlet=dirichlet,
                              seg_cells=mesh.cells, couplings=couplings,
                              network=mesh)
        u_b = np.full(grid.n_cells, psi_s)
        u_e = np.full(mesh.n_cells, p_s)
        for p_rc in config.collar_pressures:
            prob.set_joint_dirichlet({collar_joint: p_rc})
            state = newton_solve(prob, u_b, u_e)
            u_b, u_e = state.u_b, state.u_e     # warm start for next sweep
            r_t = float(np.sum(state.q * prob.lengths))
            result.transpiration.append({
                "grid": label,
                "n_cells": grid.n_cells,
                "collar_pressure": p_rc,
                "r_t": r_t,
                "collar_flux": collar_flux_total(prob, state.u_e),
                "iterations": state.iterations,
                "restarts": state.restarts,
            })
            result.segments.append(SegmentTable(
                [label] * len(cells), np.full(len(cells), float(p_rc)),
                *geometry, state.u_e, state.u_hat, state.q))
            result.final_state = _physical_state(law, state)
            result.final_grid = grid
            result.final_mesh = mesh
    return result


# -- output plumbing -------------------------------------------------------

def _write_csv(path, header, columns):
    """Write a table given by its columns, byte for byte as ``csv.writer``
    writes rows of their values with each float as its repr, the shortest
    text that reads back as the same float: fields joined by commas and
    each line ended by CR LF. No field of these tables holds a comma, a
    quote or a line break, which csv.writer would quote: the labels are
    built from numbers."""
    rows = zip(*map(_column_text, columns))
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n"
                      for row in chain([header], rows))


def _column_text(values) -> list[str]:
    """The fields of one column. A column of floats is formatted whole:
    the repr of a list of Python floats formats each one in C. Otherwise
    each float is formatted by itself, float() first, as numpy 2 gives
    reprs like np.float64(0.5), and any other value by str()."""
    values = (values.tolist() if isinstance(values, np.ndarray)
              else list(values))
    if values and all(type(v) is float for v in values):
        return repr(values)[1:-1].split(", ")
    return [repr(float(v)) if isinstance(v, float) else str(v)
            for v in values]


def _error_csv_rows(report: ErrorReport):
    names = ("e_ub", "e_psi", "e_q", "et_ub", "et_psi", "et_q")
    orders = {n: report.orders(n) for n in names}
    rows = []
    for i, r in enumerate(report.rows):
        row = [report.label, i, r.h]
        for n in names:
            row.append(getattr(r, n))
        for n in names:
            row.append(float(orders[n][i - 1]) if i > 0 else np.nan)
        rows.append(row)
    return rows


_ERRORS_HEADER = ["label", "level", "h",
                  "e_ub", "e_psi", "e_q", "et_ub", "et_psi", "et_q",
                  "order_e_ub", "order_e_psi", "order_e_q",
                  "order_et_ub", "order_et_psi", "order_et_q"]


_TRANSPIRATION_HEADER = ["grid", "n_cells", "collar_pressure", "r_t",
                         "collar_flux", "iterations"]


def emit_outputs(config: ScenarioConfig, results, out_dir):
    """Write the scenario artifacts (CSV tables, optional VTK) to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    write_config(config, os.path.join(out_dir, "config.echo.ini"))

    if config.kind in ("single_tube", "parallel_tubes"):
        reports = results if isinstance(results, list) else [results]
        rows = [r for rep in reports for r in _error_csv_rows(rep)]
        _write_csv(os.path.join(out_dir, "errors.csv"), _ERRORS_HEADER,
                   zip(*rows))
    elif config.kind == "kernel_radius_study":
        _write_csv(os.path.join(out_dir, "errors.csv"),
                   ["rho_factor", "e_q"], zip(*results))
    elif config.kind == "delta_study":
        rows = []
        for k, (off, on) in results.items():
            off = replace(off, label=f"k={k:g}_delta=0")
            on = replace(on, label=f"k={k:g}_delta=mean")
            rows += _error_csv_rows(off) + _error_csv_rows(on)
        _write_csv(os.path.join(out_dir, "errors.csv"), _ERRORS_HEADER,
                   zip(*rows))
    elif config.kind == "root_soil":
        _write_csv(os.path.join(out_dir, "transpiration.csv"),
                   _TRANSPIRATION_HEADER,
                   [[d[h] for d in results.transpiration]
                    for h in _TRANSPIRATION_HEADER])
        _write_csv(os.path.join(out_dir, "segments.csv"),
                   SegmentTable._fields,
                   [np.concatenate(column)
                    for column in zip(*results.segments)])
        if config.write_vtk and results.final_state is not None:
            vtk_io.write_structured_points(
                os.path.join(out_dir, "soil.vtk"), results.final_grid,
                {"pressure": results.final_state.u_b})
            vtk_io.write_network_polydata(
                os.path.join(out_dir, "root.vtk"), results.final_mesh,
                {"pressure": results.final_state.u_e,
                 "source": results.final_state.q})


def run_scenario(config: ScenarioConfig, out_dir=None):
    """Dispatch a scenario run and write its outputs."""
    out_dir = out_dir or config.out_dir
    if config.kind == "single_tube":
        results = run_single_tube(config)
    elif config.kind == "parallel_tubes":
        results = run_parallel_tubes(config, ks=config.k_values)
        # the radius sweep is at k = 1; the stiffness sweep made its report
        # at config.r_max when 1 is among its k
        have = config.r_max if 1.0 in config.k_values else None
        for r_max in config.r_max_values:
            if r_max != have:
                results += run_parallel_tubes(config, ks=(1.0,),
                                              r_max=r_max)
    elif config.kind == "kernel_radius_study":
        results = run_kernel_radius_study(config)
    elif config.kind == "delta_study":
        results = run_delta_study(config)
    elif config.kind == "root_soil":
        results = run_root_soil(config)
    else:                                   # pragma: no cover
        raise ConfigError(f"unknown scenario kind {config.kind!r}")
    emit_outputs(config, results, out_dir)
    return results
