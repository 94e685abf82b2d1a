"""Coupled Newton solver: assembly consistency, convergence, balances."""

import re
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lu_solve
from scipy.sparse.csgraph import connected_components

import mdtube.reconstruction as reconstruction
import mdtube.scenarios as scenarios
import mdtube.solver as solver
from mdtube.coupling import build_coupling
from mdtube.grid import BulkGrid
from mdtube.laws import ConstantLaw, ExponentialLaw
from mdtube.network import (Segment, SegmentCell, TubeNetwork,
                            discretize_network)
from mdtube.reconstruction import ReconstructionError
from mdtube.analytic import solve_multi_tube
from mdtube.scenarios import (ScenarioConfig, level_profiles, level_reference,
                              parallel_level_coupling, parallel_level_problem,
                              solve_parallel_level, three_tube_specs)
from mdtube.solver import (CoupledProblem, NonconvergenceError,
                           assemble_coupled, boundary_flux_total,
                           collar_flux_total, coupled_jacobian,
                           exchange_residual, newton_solve)

LAW = ExponentialLaw(d0=0.5, k=1.0)


def psi(u):
    return np.asarray(LAW.transform(u), float)


def box_dirichlet(grid, value):
    return {s: np.full(len(grid.side_cells(s)), value)
            for s in range(2 * len(grid.shape))}


def random_bulk(problem, rng):
    """Bulk psi values of physical values drawn from [0, 0.6]."""
    return psi(rng.uniform(0.0, 0.6, problem.n_bulk))


def small_coupled_problem(gamma=2e-3, collar=0.8, y_junction=False):
    """Coarse 3D box with a two-branch tube network hanging from the top;
    ``y_junction`` adds a third branch at the inner node, so three cells
    meet at one joint."""
    grid = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                    (6, 6, 8))
    nodes = np.array([[0.0, 0.0, -0.001],
                      [0.0, 0.0, -0.07],
                      [0.025, 0.0, -0.11],
                      [-0.02, 0.01, -0.1]])
    segments = [Segment(0, 1, 2e-3, 3.0, gamma, 5e-4),
                Segment(1, 2, 1e-3, 3.0, gamma, 5e-5),
                Segment(1, 3, 1.5e-3, 3.0, gamma, 2e-4)]
    if not y_junction:
        nodes, segments = nodes[:3], segments[:2]
    net = TubeNetwork(nodes=nodes, segments=segments)
    mesh = discretize_network(net, 0.02)
    mesh.joint_dirichlet = {0: collar}
    couplings = build_coupling(grid, mesh.cells, delta_correction=True)
    problem = CoupledProblem(grid=grid, law=LAW,
                             dirichlet=box_dirichlet(grid, psi(0.1)),
                             seg_cells=mesh.cells, couplings=couplings,
                             network=mesh)
    return problem, mesh


def joint_cells(mesh):
    """Per joint of ``mesh``, the indices of the cells attached to it."""
    attached = [[] for _ in range(mesh.n_joints)]
    for i, cell in enumerate(mesh.cells):
        attached[cell.joint_a].append(i)
        attached[cell.joint_b].append(i)
    return attached


def assert_jacobian_matches_fd(problem, u_b, u_e, rng):
    # the Jacobian is built from the scalings a and b the Newton step uses
    asm = assemble_coupled(problem, u_b, u_e)
    jac = coupled_jacobian(problem, asm)
    v = rng.standard_normal(len(asm.res))
    eps = 1e-7
    n_b = problem.n_bulk
    res_p = assemble_coupled(problem, u_b + eps * v[:n_b],
                             u_e + eps * v[n_b:]).res
    res_m = assemble_coupled(problem, u_b - eps * v[:n_b],
                             u_e - eps * v[n_b:]).res
    fd = (res_p - res_m) / (2.0 * eps)
    jv = jac @ v
    assert np.max(np.abs(fd - jv)) / np.max(np.abs(jv)) < 1e-5


def point_source_problem():
    """2D bulk with one degenerate segment cell at a fixed tube value."""
    grid = BulkGrid("2d", [-1.0, -1.0], [2.0, 2.0], (12, 12))
    p = np.array([0.05, -0.05])
    seg = SegmentCell(p0=p, p1=p, length=1.0, radius=0.01,
                      kernel_radius=0.05, gamma=1.0, d_e=1.0,
                      segment_id=0, joint_a=0, joint_b=1)
    couplings = build_coupling(grid, [seg])
    return CoupledProblem(grid=grid, law=LAW,
                          dirichlet=box_dirichlet(grid, psi(0.1)),
                          seg_cells=[seg], couplings=couplings,
                          u_e_fixed=np.array([0.6]))


@cache
def root_sweep_state():
    """The root-soil problem on 8x8x15 (network seed 2024, delta
    correction on) at its solution for a -2.5e5 Pa collar, with the collar
    set to -5e5 Pa: the first state of a warm-started sweep's next solve.
    Returns the problem and the state's (u_b, u_e)."""
    solves = []
    real = scenarios.newton_solve

    def keep(problem, u_b0, u_e0):
        solves.append((problem, real(problem, u_b0, u_e0)))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "newton_solve", keep)
        scenarios.run_root_soil(ScenarioConfig(
            kind="root_soil", seed=2024, grids=((8, 8, 15),),
            collar_pressures=(-2.5e5,), delta_correction=True))
    (problem, state), = solves
    problem.set_joint_dirichlet({int(problem.dir_joint[0]): -5e5})
    return problem, state.u_b, state.u_e


def network_problem_args(nodes, segments, dirichlet_nodes):
    """``CoupledProblem`` arguments on the coarse 3D box of
    ``small_coupled_problem``, with the given network and its Dirichlet
    nodes (at 0.8)."""
    grid = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                    (6, 6, 8))
    mesh = discretize_network(TubeNetwork(nodes=np.array(nodes),
                                          segments=segments), 0.02)
    mesh.joint_dirichlet = {n: 0.8
                            for n in dirichlet_nodes}
    return dict(grid=grid, law=LAW, dirichlet=box_dirichlet(grid, psi(0.1)),
                seg_cells=mesh.cells,
                couplings=build_coupling(grid, mesh.cells), network=mesh)


def two_branch_args():
    """``network_problem_args`` of a two-branch network held at its top."""
    return network_problem_args(
        [[0.0, 0.0, -0.001], [0.0, 0.0, -0.07], [0.025, 0.0, -0.11]],
        [Segment(0, 1, 2e-3, 3.0, 2e-3, 5e-4),
         Segment(1, 2, 1e-3, 3.0, 2e-3, 5e-5)], [0])


class TestAssembly:
    def test_requires_network_or_fixed_values(self):
        grid = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        with pytest.raises(ValueError):
            CoupledProblem(grid=grid, law=LAW, dirichlet={},
                           seg_cells=[], couplings=[])

    def test_rejects_network_and_fixed_values(self):
        problem, mesh = small_coupled_problem()
        with pytest.raises(ValueError, match="exactly one"):
            replace(problem, u_e_fixed=np.full(problem.n_net, 0.4))

    def test_rejects_a_coupling_count_that_differs(self):
        # once a numpy broadcasting error deep inside the build
        kwargs = two_branch_args()
        n = len(kwargs["seg_cells"])
        kwargs["couplings"] = kwargs["couplings"][:-1]
        with pytest.raises(ValueError, match=f"{n - 1} couplings for {n} "
                           "segment cells"):
            CoupledProblem(**kwargs)

    def test_rejects_cells_that_are_not_the_networks(self):
        # the network's cells in reverse order were once accepted silently
        kwargs = two_branch_args()
        kwargs["seg_cells"] = kwargs["seg_cells"][::-1]
        kwargs["couplings"] = kwargs["couplings"][::-1]
        with pytest.raises(ValueError, match="network's cells"):
            CoupledProblem(**kwargs)
        kwargs["seg_cells"] = kwargs["seg_cells"][1:]
        kwargs["couplings"] = kwargs["couplings"][1:]
        with pytest.raises(ValueError, match="network's cells"):
            CoupledProblem(**kwargs)

    @pytest.mark.parametrize("dirichlet", [{7: np.zeros(4)},
                                           {0: np.array([0.3])}],
                             ids=["side_7", "one_value"])
    def test_rejects_out_of_range_dirichlet(self, dirichlet):
        # a 2D grid has sides 0..3 of 4 faces each; the Laplacian and its
        # solver check each case (tests/test_poisson.py)
        grid = BulkGrid("2d", [-1.0, -1.0], [2.0, 2.0], (4, 4))
        seg = point_source_problem().seg_cells[0]
        with pytest.raises(ValueError, match="Dirichlet side"):
            CoupledProblem(grid=grid, law=LAW, dirichlet=dirichlet,
                           seg_cells=[seg],
                           couplings=build_coupling(grid, [seg]),
                           u_e_fixed=np.array([0.6]))

    def test_jacobian_matches_finite_differences(self):
        problem, mesh = small_coupled_problem()
        rng = np.random.default_rng(7)
        u_b = random_bulk(problem, rng)
        u_e = rng.uniform(0.2, 0.8, problem.n_net)
        assert_jacobian_matches_fd(problem, u_b, u_e, rng)

    def test_y_junction_jacobian_matches_finite_differences(self):
        problem, mesh = small_coupled_problem(y_junction=True)
        assert max(len(c) for c in joint_cells(mesh)) == 3
        rng = np.random.default_rng(9)
        u_b = random_bulk(problem, rng)
        u_e = rng.uniform(0.2, 0.8, problem.n_net)
        assert_jacobian_matches_fd(problem, u_b, u_e, rng)

    def test_branched_axial_residuals_sum_to_collar_flux(self):
        # with gamma = 0 there is no source, every interior joint passes
        # on what it receives, and the network residuals add up to the
        # flux through the one Dirichlet joint
        problem, mesh = small_coupled_problem(gamma=0.0, y_junction=True)
        u_e = np.random.default_rng(5).uniform(0.2, 0.8, problem.n_net)
        asm = assemble_coupled(problem, np.full(problem.n_bulk, psi(0.1)),
                               u_e)
        assert np.all(asm.q == 0.0)
        net = asm.res[problem.n_bulk:]
        collar = collar_flux_total(problem, u_e)
        assert abs(float(np.sum(net)) - collar) <= (
            8 * np.finfo(float).eps * float(np.sum(np.abs(net))))

    def test_operators_match_per_cell_and_per_joint_loops(self):
        # reference: the coupling and axial terms assembled one segment
        # cell and one joint at a time
        problem, mesh = small_coupled_problem(y_junction=True)
        n_b, n_e = problem.n_bulk, problem.n_net
        deposit, sample = np.zeros((n_b, n_e)), np.zeros((n_e, n_b))
        for j, (seg, cpl) in enumerate(zip(mesh.cells, problem.couplings)):
            np.add.at(deposit[:, j], cpl.cells, cpl.weights * seg.length)
            sample[j, cpl.stencil] = 1.0 / len(cpl.stencil)
        u_e = np.random.default_rng(3).uniform(0.2, 0.8, n_e)
        half_k = [c.d_e / (0.5 * c.length) for c in mesh.cells]
        axial, res = np.zeros((n_e, n_e)), np.zeros(n_e)
        for joint, attached in enumerate(joint_cells(mesh)):
            if joint in mesh.joint_dirichlet:
                for i in attached:
                    axial[i, i] += half_k[i]
                    res[i] += half_k[i] * (u_e[i]
                                           - mesh.joint_dirichlet[joint])
                continue
            total = sum(half_k[i] for i in attached)
            for i in attached:
                for m in attached:
                    coef = half_k[i] * half_k[m] / total
                    axial[i, m] += (half_k[i] if i == m else 0.0) - coef
                    res[i] += coef * (u_e[i] - u_e[m])
        np.testing.assert_array_equal(problem.deposit.toarray(), deposit)
        np.testing.assert_array_equal(problem.sample.toarray(), sample)
        scale = np.max(np.abs(axial))
        np.testing.assert_allclose(problem.axial.toarray(), axial, rtol=0.0,
                                   atol=4 * np.finfo(float).eps * scale)
        np.testing.assert_allclose(problem.axial_residual(u_e), res, rtol=0.0,
                                   atol=4 * np.finfo(float).eps * scale)

    def test_interface_data_is_built_with_the_problem(self, monkeypatch):
        # |P| gamma f(delta) and the checks of the tube geometry are fixed
        # per problem: a solve evaluates no kernel profile
        problem, _ = small_coupled_problem()
        calls = []
        monkeypatch.setattr(reconstruction, "kernel_profile_f",
                            lambda *args: calls.append(args))
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)),
                             np.full(problem.n_net, 0.4))
        assert state.iterations > 0 and calls == []

    def test_assembly_maps_the_sampled_bulk_to_u_once(self, monkeypatch):
        # the interface equation is in psi: an assembly inverts the sampled
        # bulk once, to bracket and start the root, and transforms only
        # the root's iterates, never that inverse back
        problem, _ = small_coupled_problem()
        inverted, transformed = [], []
        real_inverse, real_transform = (ExponentialLaw.inverse_transform,
                                        ExponentialLaw.transform)

        def inverse(law, psi_values):
            inverted.append(real_inverse(law, psi_values))
            return inverted[-1]

        def transform(law, u):
            transformed.append(np.array(u, float))
            return real_transform(law, u)

        monkeypatch.setattr(ExponentialLaw, "inverse_transform", inverse)
        monkeypatch.setattr(ExponentialLaw, "transform", transform)
        rng = np.random.default_rng(5)
        assemble_coupled(problem, psi(rng.uniform(0.0, 0.6, problem.n_bulk)),
                         rng.uniform(0.2, 0.8, problem.n_net))
        assert len(inverted) == 1 and len(transformed) > 0
        assert not any(np.array_equal(u, inverted[0]) for u in transformed)

    @pytest.mark.parametrize("case", ["small", "root"])
    def test_flux_scales_equal_the_absolute_operators(self, case):
        # the stopping test's |L| |u_b| and |A| |u_e|, from the stored
        # diagonals, against the absolute operators formed entry by entry
        if case == "small":
            problem, _ = small_coupled_problem(y_junction=True)
            rng = np.random.default_rng(11)
            u_b = random_bulk(problem, rng) - psi(0.3)
            u_e = rng.uniform(-0.8, 0.8, problem.n_net)
        else:
            problem, u_b, u_e = root_sweep_state()
        eps = np.finfo(float).eps
        for matrix, diagonal, x in (
                (problem.laplacian, problem.laplacian_diag, u_b),
                (problem.axial, problem.axial_diag, u_e)):
            expect = abs(matrix) @ np.abs(x)
            got = solver._abs_product(matrix, diagonal, x)
            assert np.all(np.abs(got - expect) <= 4.0 * eps * expect)

    def test_fixed_tube_values_have_no_network_rows(self):
        problem = point_source_problem()
        assert problem.n_net == 0
        asm = assemble_coupled(problem, np.full(problem.n_bulk, psi(0.1)),
                               problem.u_e_fixed)
        assert asm.res.shape == (problem.n_bulk,)
        assert asm.q[0] > 0.0            # tube above bulk: feeds the bulk


class TestNewton:
    def test_converges_on_point_source(self):
        problem = point_source_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)))
        assert state.residual_history[-1] <= 1e-12 * state.residual_history[0]
        u_b = LAW.inverse_transform(state.u_b)
        # the source raises the bulk above the boundary value somewhere
        assert np.max(u_b) > 0.1
        assert np.all(u_b <= 0.6 + 1e-12)   # bounded by the tube value

    def test_point_source_boundary_flux_balances_source(self):
        problem = point_source_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)))
        out = boundary_flux_total(problem, state.u_b)
        assert abs(out - state.q[0]) < 1e-9 * abs(state.q[0])

    def test_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 0)
        problem = point_source_problem()
        with pytest.raises(NonconvergenceError) as exc:
            newton_solve(problem, np.full(problem.n_bulk, psi(0.1)))
        assert len(exc.value.history) >= 1

    @pytest.mark.parametrize("variant", ["u", "psi"])
    def test_three_tube_level_at_rounding_floor(self, monkeypatch, variant):
        # on 64x64 the residual reaches its rounding floor in two steps;
        # the per-block test must see that and stop, with no line search
        # spent on a floor it cannot go below
        calls = []
        real = solver.assemble_coupled

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(solver, "assemble_coupled", counting)
        config = ScenarioConfig(kind="parallel_tubes")
        law = ExponentialLaw(config.d0, 1.0, config.d_min)
        specs = three_tube_specs(config.r_max, config.rho_factor,
                                 config.gamma)
        ref = solve_multi_tube(specs, law, anchor=(0, config.anchor),
                               variant=variant)
        grid, segs, cpl = parallel_level_coupling(specs, 64)
        level = level_reference(ref, level_profiles(specs, grid))
        state = solve_parallel_level(
            parallel_level_problem(law, specs, grid, segs, cpl), level)
        assert len(calls) <= state.iterations + 1

    def test_initial_guesses_are_validated(self):
        problem, _ = small_coupled_problem()
        u_b = np.full(problem.n_bulk, psi(0.1))
        u_e = np.full(problem.n_net, 0.4)
        with pytest.raises(ValueError, match="u_e0 is required"):
            newton_solve(problem, u_b)
        with pytest.raises(ValueError, match="u_e0 has shape"):
            newton_solve(problem, u_b, u_e[1:])
        with pytest.raises(ValueError, match="u_b0 has shape"):
            newton_solve(problem, u_b[1:], u_e)
        fixed = point_source_problem()
        u_b = np.full(fixed.n_bulk, psi(0.1))
        with pytest.raises(ValueError, match="u_e0 given"):
            newton_solve(fixed, u_b, fixed.u_e_fixed)
        with pytest.raises(ValueError, match="u_b0 has shape"):
            newton_solve(fixed, np.append(u_b, 0.1))

    @staticmethod
    def fail_first_trial(monkeypatch, error):
        calls = []
        real = solver.exchange_residual

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:          # the first line-search trial
                raise error
            return real(*args)

        monkeypatch.setattr(solver, "exchange_residual", failing)

    def test_trial_state_errors_halve_the_step(self, monkeypatch):
        self.fail_first_trial(monkeypatch, ReconstructionError("trial"))
        problem = point_source_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)))
        assert state.iterations > 0 and state.step_lengths[0] == 0.5

    def test_programming_errors_propagate(self, monkeypatch):
        # an operator shape error is a defect, not a bad trial state
        self.fail_first_trial(monkeypatch, ValueError("shapes differ"))
        problem = point_source_problem()
        with pytest.raises(ValueError, match="shapes differ"):
            newton_solve(problem, np.full(problem.n_bulk, psi(0.1)))

    def test_records_its_steps(self):
        problem, _ = small_coupled_problem(y_junction=True)
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)),
                             np.full(problem.n_net, 0.4))
        assert state.iterations > 0 and state.restarts == 0
        assert len(state.step_lengths) == state.iterations
        # the initial iterate's ratio, then one per step, the last within
        # the bound
        assert len(state.reduced_history) == state.iterations + 1
        assert state.reduced_history[0] > 1.0 >= state.reduced_history[-1]
        # one coupled residual per iterate, and the assembled state's
        assert len(state.residual_history) == state.iterations + 2

    def test_nonconvergence_names_the_step(self, monkeypatch):
        # with no step allowed the loop stops at the initial iterate and
        # counts what it took; a step whose every trial the interface
        # equation cannot solve fails its line search
        problem = point_source_problem()
        u_b = np.full(problem.n_bulk, psi(0.1))
        monkeypatch.setattr(solver, "_MAX_ITER", 0)
        with pytest.raises(NonconvergenceError,
                           match=r"\(0 steps, 0 restarts\)") as exc:
            newton_solve(problem, u_b)
        assert len(exc.value.history) == 1
        monkeypatch.setattr(solver, "_MAX_ITER", 50)
        real = solver.exchange_residual
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) > 1:           # every line-search trial
                raise ReconstructionError("trial")
            return real(*args)

        monkeypatch.setattr(solver, "exchange_residual", failing)
        with pytest.raises(NonconvergenceError, match="line search failed"):
            newton_solve(problem, u_b)
        assert len(calls) == 1 + solver._MAX_HALVINGS + 1

    def test_axial_chain_linear_profile(self):
        # gamma = 0 decouples the tube from the bulk; with both segment
        # ends held at fixed values the cell unknowns must be the linear
        # profile sampled at cell midpoints
        grid = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                        (4, 4, 6))
        nodes = np.array([[0.0, 0.0, -0.01], [0.0, 0.0, -0.13]])
        net = TubeNetwork(nodes=nodes,
                          segments=[Segment(0, 1, 2e-3, 3.0, 0.0, 1e-3)])
        mesh = discretize_network(net, 0.02)
        mesh.joint_dirichlet = {0: 1.0,
                                1: 0.4}
        couplings = build_coupling(grid, mesh.cells)
        problem = CoupledProblem(grid=grid, law=ConstantLaw(1.0),
                                 dirichlet=box_dirichlet(grid, 0.0),
                                 seg_cells=mesh.cells, couplings=couplings,
                                 network=mesh)
        state = newton_solve(problem, np.zeros(problem.n_bulk),
                             np.full(problem.n_net, 0.7))
        length = net.segment_length(net.segments[0])
        mids = np.array([abs(c.midpoint[2] - nodes[0, 2])
                         for c in mesh.cells])
        expect = 1.0 + (0.4 - 1.0) * mids / length
        assert np.max(np.abs(state.u_e - expect)) < 1e-11
        assert np.max(np.abs(state.q)) == 0.0

    def test_coupled_network_solve_and_balances(self):
        problem, mesh = small_coupled_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)),
                             np.full(problem.n_net, 0.4))
        # tube values sit between the boundary value and the collar value
        assert np.all(state.u_e > 0.1) and np.all(state.u_e < 0.8)
        assert np.all(state.u_hat > 0.1) and np.all(state.u_hat < 0.8)
        src = float(np.sum(state.q * problem.lengths))
        collar = collar_flux_total(problem, state.u_e)
        scale = max(abs(src), abs(collar))
        # network mass balance: what leaves through the collar is what the
        # kernel sources deposit in the bulk
        assert abs(collar + src) < 1e-10 * scale
        # bulk mass balance: sources exit through the Dirichlet boundary
        out = boundary_flux_total(problem, state.u_b)
        assert abs(out - src) < 1e-9 * scale


class TestTransformedBulk:
    def test_jacobian_matches_finite_differences(self):
        # sampled bulk values on both sides of the kink of the law's floor
        # (u_c = -12.1), where du/dpsi = 1 / D jumps to 1 / d_min
        problem, mesh = small_coupled_problem()
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 0.6, problem.n_bulk)
        low = problem.sample[::2].indices     # every other segment cell
        u[low] = rng.uniform(-14.0, -12.5, len(low))
        u_b = psi(u)
        u_bar = LAW.inverse_transform(problem.sample @ u_b)
        assert np.any(u_bar < LAW.u_c) and np.any(u_bar > LAW.u_c)
        u_e = rng.uniform(0.2, 0.8, problem.n_net)
        assert_jacobian_matches_fd(problem, u_b, u_e, rng)


def radial_single_tube_problem():
    """One level of the single-tube study: radial bulk in psi around one
    tube at a fixed value."""
    grid = BulkGrid("radial", [0.0], [1.0], (40,))
    seg = SegmentCell(p0=np.zeros(1), p1=np.zeros(1), length=1.0,
                      radius=0.01, kernel_radius=0.05, gamma=1.0, d_e=0.0,
                      segment_id=0, joint_a=0, joint_b=1)
    return CoupledProblem(grid=grid, law=LAW,
                          dirichlet={1: psi(np.full(1, 0.3))},
                          seg_cells=[seg],
                          couplings=build_coupling(grid, [seg]),
                          u_e_fixed=np.array([0.1]))


class TestExchangeResidual:
    @pytest.mark.parametrize("case", ["point_source", "y_junction"])
    def test_jacobian_matches_finite_differences(self, case):
        # F(q) = q - Q(psi_g + C q, u_e(q)) against the matrix the reduced
        # step factors, I - diag(a) C + diag(b) G
        if case == "point_source":
            problem = point_source_problem()
        else:
            problem, mesh = small_coupled_problem(y_junction=True)
            assert max(len(c) for c in joint_cells(mesh)) == 3
        rng = np.random.default_rng(29)
        u_e = (rng.uniform(0.2, 0.8, problem.n_net) if problem.n_net
               else problem.u_e_fixed)
        q = assemble_coupled(problem, random_bulk(problem, rng), u_e).q
        psi_g = problem.sample @ problem.solve_bulk(problem.dirichlet_rhs)
        ex = exchange_residual(problem, psi_g, q)
        jac = np.eye(len(q)) - ex.dq_dub[:, None] * problem.capacitance
        if problem.n_net:
            jac += ex.dq_due[:, None] * problem.axial_green
        v = rng.standard_normal(len(q)) * np.max(np.abs(q))
        h = 1e-6
        fd = (exchange_residual(problem, psi_g, q + h * v).res
              - exchange_residual(problem, psi_g, q - h * v).res) / (2 * h)
        jv = jac @ v
        assert np.max(np.abs(fd - jv)) / np.max(np.abs(jv)) < 1e-5
        x = lu_solve(problem.exchange_factor(ex.dq_dub, ex.dq_due), jv)
        assert np.max(np.abs(x - v)) <= 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("case", ["two_branch", "y_junction", "root"])
    def test_tube_values_from_the_green_matrix(self, case):
        # u_e(q) = A^-1 (d - len q), applied as G (y / len) and refined
        # once: it matches a dense solve with A, and the network rows it
        # leaves sit within the network bound of the stopping test
        if case == "root":
            problem, u_b, u_e = root_sweep_state()
        else:
            problem, _ = small_coupled_problem(y_junction=case == "y_junction")
            rng = np.random.default_rng(31)
            u_b = random_bulk(problem, rng)
            u_e = rng.uniform(0.2, 0.8, problem.n_net)
        assert not hasattr(problem, "axial_lu")
        q = assemble_coupled(problem, u_b, u_e).q
        d = np.bincount(problem.dir_cell, problem.dir_k * problem.dir_value,
                        problem.n_net)
        expect = np.linalg.solve(problem.axial.toarray(),
                                 d - problem.lengths * q)
        got = problem.tube_values(q)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
        rows = problem.lengths * q + problem.axial_residual(got)
        scale = (solver._abs_product(problem.axial, problem.axial_diag, got)
                 + np.abs(problem.lengths * q)
                 + np.bincount(problem.dir_cell,
                               np.abs(problem.dir_k * problem.dir_value),
                               problem.n_net))
        bound = solver._ROUNDING * np.finfo(float).eps * np.max(scale)
        assert np.max(np.abs(rows)) <= bound

    def test_capacitance_is_non_negative(self):
        # the bound on F takes C |q| for |C| |q|: S, L^-1 and W are
        # non-negative, so C is
        for problem in (point_source_problem(),
                        small_coupled_problem(y_junction=True)[0],
                        root_sweep_state()[0], radial_single_tube_problem()):
            assert np.all(problem.capacitance > 0.0)


def sweep_states(config):
    """Run the root-soil scenario of ``config`` and return each solve's
    state, with whether it passes ``_converged``."""
    solves = []
    real = scenarios.newton_solve

    def keep(problem, u_b0, u_e0):
        state = real(problem, u_b0, u_e0)
        asm = assemble_coupled(problem, state.u_b, state.u_e)
        solves.append((state, solver._converged(problem, asm, state.u_b,
                                                state.u_e)))
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "newton_solve", keep)
        scenarios.run_root_soil(config)
    return solves


class TestFullSteps:
    """An assembled state that fails ``_converged`` restarts the exchange
    iteration from itself: the restart takes the coupled system's full
    Newton step through its Schur complement in the exchange."""

    def test_reduced_steps_reach_the_contract(self):
        # seed 2024 on 16x16x30: the assembled states sit at 0.08-0.11 of
        # the bulk bound and at most 0.2 of the collar bound, and no solve
        # of the sweep restarts
        solves = sweep_states(ScenarioConfig(
            kind="root_soil", seed=2024, grids=((16, 16, 30),),
            delta_correction=True))
        assert [s.restarts for s, _ in solves] == [0] * 5
        assert all(passed for _, passed in solves)

    @pytest.mark.parametrize("error", [1e-8, 1e-6])
    @pytest.mark.parametrize("case", ["point_source", "network", "radial"])
    def test_restarts_refine_an_inexact_bulk_solver(self, monkeypatch, case,
                                                   error):
        # a bulk solver off by `error` relative leaves the assembled state
        # far above the bulk bound; each restart's bulk solves act on a
        # smaller correction, so their error shrinks with it. No grid of
        # the root scenario from 16x16x30 to 64x64x120, held-out network
        # or demo config restarts: restarts are the safety net
        if case == "network":
            problem = small_coupled_problem()[0]
            u_e0 = np.full(problem.n_net, 0.4)
        else:
            problem = (point_source_problem() if case == "point_source"
                       else radial_single_tube_problem())
            u_e0 = None
        exact = problem.solve_bulk
        monkeypatch.setattr(problem, "solve_bulk",
                            lambda rhs: exact(rhs) * (1.0 + error))
        state = newton_solve(problem, np.full(problem.n_bulk, psi(0.1)),
                             u_e0)
        asm = assemble_coupled(problem, state.u_b, state.u_e)
        assert state.restarts >= 1
        assert solver._converged(problem, asm, state.u_b, state.u_e)

    def test_a_contract_that_never_passes_ends_the_loop(self, monkeypatch):
        # every assembled state fails, so each one restarts the iteration;
        # steps and restarts together stop at _MAX_ITER
        assemblies = []
        real = solver.assemble_coupled

        def counting(*args):
            assemblies.append(None)
            return real(*args)

        monkeypatch.setattr(solver, "assemble_coupled", counting)
        monkeypatch.setattr(solver, "_converged", lambda *args: False)
        problem = point_source_problem()
        with pytest.raises(NonconvergenceError) as exc:
            newton_solve(problem, np.full(problem.n_bulk, psi(0.1)))
        steps, restarts = map(int, re.search(
            r"\((\d+) steps, (\d+) restarts\)", str(exc.value)).groups())
        assert steps + restarts == solver._MAX_ITER and restarts >= 1
        assert len(assemblies) == restarts + 1


class TestJointDirichlet:
    def test_changed_collar_matches_fresh_problem(self):
        problem, mesh = small_coupled_problem(y_junction=True)
        collar = 0
        u_e = np.random.default_rng(17).uniform(0.2, 0.8, problem.n_net)
        before = problem.axial_residual(u_e)
        problem.set_joint_dirichlet({collar: 0.3})
        mesh.joint_dirichlet = {collar: 0.3}
        fresh = replace(problem)
        assert not np.array_equal(problem.axial_residual(u_e), before)
        np.testing.assert_array_equal(problem.axial_residual(u_e),
                                      fresh.axial_residual(u_e))
        assert (collar_flux_total(problem, u_e)
                == collar_flux_total(fresh, u_e))

    def test_joint_set_is_fixed(self):
        problem, mesh = small_coupled_problem()
        with pytest.raises(ValueError, match="Dirichlet joints"):
            problem.set_joint_dirichlet({2: 0.3})


class TestBulkDirichlet:
    def test_revalued_problem_matches_fresh_problem(self):
        problem = point_source_problem()
        u_b = random_bulk(problem, np.random.default_rng(23))
        before = assemble_coupled(problem, u_b, problem.u_e_fixed).res
        values = {s: psi(np.linspace(0.1, 0.3, len(v)))
                  for s, v in problem.dirichlet.items()}
        problem.set_dirichlet(values)
        fresh = replace(problem, dirichlet=values)
        res = assemble_coupled(problem, u_b, problem.u_e_fixed).res
        assert not np.array_equal(res, before)
        np.testing.assert_array_equal(
            res, assemble_coupled(fresh, u_b, fresh.u_e_fixed).res)
        solved, solved_fresh = (newton_solve(p, u_b) for p in (problem, fresh))
        np.testing.assert_array_equal(solved.u_b, solved_fresh.u_b)
        np.testing.assert_array_equal(solved.q, solved_fresh.q)
        assert (boundary_flux_total(problem, u_b)
                == boundary_flux_total(fresh, u_b))

    def test_side_set_is_fixed(self):
        problem = point_source_problem()
        values = dict(problem.dirichlet)
        del values[0]
        with pytest.raises(ValueError, match="Dirichlet sides"):
            problem.set_dirichlet(values)


class TestLaw:
    @pytest.mark.parametrize("case", ["point_source", "network"])
    def test_switched_law_matches_fresh_problem(self, case):
        # the law is problem data: a problem built with one law and given
        # another by set_law solves to the bits of one built with it
        if case == "point_source":
            problem, u_e0 = point_source_problem(), None
        else:
            problem = small_coupled_problem()[0]
            u_e0 = np.full(problem.n_net, 0.5)
        u_b0 = np.full(problem.n_bulk, psi(0.1))
        stiff = ExponentialLaw(d0=0.5, k=5.0)
        before = newton_solve(problem, u_b0, u_e0)
        capacitance = problem.capacitance
        problem.set_law(stiff)
        assert problem.interface.law is stiff
        assert problem.capacitance is capacitance
        switched = newton_solve(problem, u_b0, u_e0)
        fresh = newton_solve(replace(problem, law=stiff), u_b0, u_e0)
        assert not np.array_equal(switched.q, before.q)
        for name in ("u_b", "u_e", "u_hat", "q", "residual_history",
                     "step_lengths"):
            assert (np.asarray(getattr(switched, name)).tobytes()
                    == np.asarray(getattr(fresh, name)).tobytes()), name


class TestAxialOperator:
    # the step factors the axial operator, so it must be invertible

    def test_network_without_dirichlet_joint_raises(self):
        nodes = [[0.0, 0.0, -0.001], [0.0, 0.0, -0.07], [0.025, 0.0, -0.11]]
        segments = [Segment(0, 1, 2e-3, 3.0, 2e-3, 5e-4),
                    Segment(1, 2, 1e-3, 3.0, 2e-3, 5e-5)]
        with pytest.raises(ValueError, match=r"segment cell 0 \(segment 0\) "
                           "reaches no Dirichlet joint"):
            CoupledProblem(**network_problem_args(nodes, segments, []))

    def test_disconnected_segment_raises(self):
        nodes = [[0.0, 0.0, -0.001], [0.0, 0.0, -0.07],
                 [0.025, 0.0, -0.09], [0.025, 0.0, -0.13]]
        segments = [Segment(0, 1, 2e-3, 3.0, 2e-3, 5e-4),
                    Segment(2, 3, 1e-3, 3.0, 2e-3, 5e-5)]
        kwargs = network_problem_args(nodes, segments, [0])
        first = next(j for j, c in enumerate(kwargs["seg_cells"])
                     if c.segment_id == 1)
        with pytest.raises(ValueError, match=rf"segment cell {first} "
                           r"\(segment 1\) reaches no Dirichlet joint"):
            CoupledProblem(**kwargs)

    def test_two_unanchored_parts_name_their_lowest_cell(self):
        # parts in segment order: held at the collar (0), free (1 and 3,
        # joined at node 3) and free (2); the message names the first cell
        # of segment 1
        nodes = [[0.0, 0.0, -0.001], [0.0, 0.0, -0.05],
                 [0.025, 0.0, -0.03], [0.025, 0.0, -0.07],
                 [-0.025, 0.0, -0.03], [-0.025, 0.0, -0.07],
                 [0.025, 0.0, -0.11]]
        segments = [Segment(0, 1, 2e-3, 3.0, 2e-3, 5e-4),
                    Segment(2, 3, 1e-3, 3.0, 2e-3, 5e-5),
                    Segment(4, 5, 1e-3, 3.0, 2e-3, 5e-5),
                    Segment(3, 6, 1e-3, 3.0, 2e-3, 5e-5)]
        kwargs = network_problem_args(nodes, segments, [0])
        first = next(j for j, c in enumerate(kwargs["seg_cells"])
                     if c.segment_id == 1)
        assert first > 0
        with pytest.raises(ValueError, match=rf"segment cell {first} "
                           r"\(segment 1\) reaches no Dirichlet joint"):
            CoupledProblem(**kwargs)

    def test_components_match_csgraph(self):
        # every label is the lowest vertex of scipy's component
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            i, m = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
            label = solver._components(n, i, m)
            _, part = connected_components(sp.coo_matrix(
                (np.ones(i.size), (i, m)), shape=(n, n)), directed=False)
            for c in np.unique(part):
                cells = np.flatnonzero(part == c)
                assert np.all(label[cells] == cells[0])

    def test_zero_axial_conductance_raises(self):
        # a cell linked to the collar only through d_e = 0
        nodes = [[0.0, 0.0, -0.001], [0.0, 0.0, -0.07], [0.025, 0.0, -0.11]]
        segments = [Segment(0, 1, 2e-3, 3.0, 2e-3, 5e-4),
                    Segment(1, 2, 1e-3, 3.0, 2e-3, 0.0)]
        kwargs = network_problem_args(nodes, segments, [0])
        first = next(j for j, c in enumerate(kwargs["seg_cells"])
                     if c.segment_id == 1)
        with pytest.raises(ValueError, match=rf"segment cell {first} "):
            CoupledProblem(**kwargs)


class TestFluxHelpers:
    def test_collar_flux_sign(self):
        problem, mesh = small_coupled_problem()
        u_e = np.full(problem.n_net, 0.9)      # above the 0.8 collar value
        assert collar_flux_total(problem, u_e) > 0.0

    def test_boundary_flux_zero_for_matching_field(self):
        problem = point_source_problem()
        u_b = np.full(problem.n_bulk, psi(0.1))
        assert boundary_flux_total(problem, u_b) == pytest.approx(0.0,
                                                                  abs=1e-18)
