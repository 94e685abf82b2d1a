"""Coupled Newton solver: assembly consistency, convergence, balances."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import mdtube.solver as solver
from mdtube.coupling import build_coupling
from mdtube.grid import BulkGrid
from mdtube.laws import ConstantLaw, ExponentialLaw
from mdtube.network import (Segment, SegmentCell, TubeNetwork,
                            discretize_network)
from mdtube.reconstruction import ReconstructionError
from mdtube.solver import (CapacitanceStep, CoupledProblem,
                           NonconvergenceError, SolverControls,
                           _polish_network, assemble_coupled,
                           boundary_flux_total, collar_flux_total,
                           coupled_jacobian, newton_solve)

LAW = ExponentialLaw(d0=0.5, k=1.0)


def box_dirichlet(grid, value):
    return {s: np.full(int(np.sum(grid.bface_side == s)), value)
            for s in range(2 * len(grid.shape))}


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
    mesh.joint_dirichlet = {mesh.joint_of_node[0]: collar}
    couplings = build_coupling(grid, mesh.cells, delta_correction=True)
    problem = CoupledProblem(grid=grid, law=LAW,
                             dirichlet=box_dirichlet(grid, 0.1),
                             seg_cells=mesh.cells, couplings=couplings,
                             network=mesh)
    return problem, mesh


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
                          dirichlet=box_dirichlet(grid, 0.1),
                          seg_cells=[seg], couplings=couplings,
                          u_e_fixed=np.array([0.6]))


class TestAssembly:
    def test_requires_network_or_fixed_values(self):
        grid = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        with pytest.raises(ValueError):
            CoupledProblem(grid=grid, law=LAW, dirichlet={},
                           seg_cells=[], couplings=[])

    def test_jacobian_matches_finite_differences(self):
        problem, mesh = small_coupled_problem()
        rng = np.random.default_rng(7)
        u_b = rng.uniform(0.0, 0.6, problem.n_bulk)
        u_e = rng.uniform(0.2, 0.8, problem.n_net)
        assert_jacobian_matches_fd(problem, u_b, u_e, rng)

    def test_y_junction_jacobian_matches_finite_differences(self):
        problem, mesh = small_coupled_problem(y_junction=True)
        assert max(len(c) for c in mesh.joint_cells) == 3
        rng = np.random.default_rng(9)
        u_b = rng.uniform(0.0, 0.6, problem.n_bulk)
        u_e = rng.uniform(0.2, 0.8, problem.n_net)
        assert_jacobian_matches_fd(problem, u_b, u_e, rng)
        tp = to_transformed(problem)
        assert_jacobian_matches_fd(tp, np.asarray(LAW.transform(u_b), float),
                                   u_e, rng)

    def test_branched_axial_residuals_sum_to_collar_flux(self):
        # with gamma = 0 there is no source, every interior joint passes
        # on what it receives, and the network residuals add up to the
        # flux through the one Dirichlet joint
        problem, mesh = small_coupled_problem(gamma=0.0, y_junction=True)
        u_e = np.random.default_rng(5).uniform(0.2, 0.8, problem.n_net)
        asm = assemble_coupled(problem, np.full(problem.n_bulk, 0.1), u_e)
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
        for joint, attached in enumerate(mesh.joint_cells):
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

    def test_fixed_tube_values_have_no_network_rows(self):
        problem = point_source_problem()
        assert problem.n_net == 0
        asm = assemble_coupled(problem, np.full(problem.n_bulk, 0.1),
                               problem.u_e_fixed)
        assert asm.res.shape == (problem.n_bulk,)
        assert asm.q[0] > 0.0            # tube above bulk: feeds the bulk


class TestNewton:
    def test_converges_on_point_source(self):
        problem = point_source_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, 0.1))
        assert state.residual_history[-1] <= 1e-12 * state.residual_history[0]
        # the source raises the bulk above the boundary value somewhere
        assert np.max(state.u_b) > 0.1
        assert np.all(state.u_b <= 0.6 + 1e-12)   # bounded by the tube value

    def test_reports_nonconvergence(self):
        problem = point_source_problem()
        with pytest.raises(NonconvergenceError) as exc:
            newton_solve(problem, np.full(problem.n_bulk, 0.1),
                         controls=SolverControls(max_iter=0))
        assert len(exc.value.history) >= 1

    def test_status_tells_stagnation_from_convergence(self):
        # tol_rel = 0 cannot be met, so Newton runs into the rounding floor
        # and must say that it stalled there instead of converging
        problem = point_source_problem()
        u0 = np.full(problem.n_bulk, 0.1)
        assert newton_solve(problem, u0).status == "converged"
        stalled = newton_solve(problem, u0, controls=SolverControls(
            tol_rel=0.0))
        assert stalled.status == "stagnated"
        history = stalled.residual_history
        assert 0.0 < history[-1] <= 1e-8 * history[0]

    @staticmethod
    def fail_second_assembly(monkeypatch, error):
        calls = []
        real = solver.assemble_coupled

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:          # the first line-search trial
                raise error
            return real(*args)

        monkeypatch.setattr(solver, "assemble_coupled", failing)

    def test_trial_state_errors_halve_the_step(self, monkeypatch):
        self.fail_second_assembly(monkeypatch, ReconstructionError("trial"))
        problem = point_source_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, 0.1))
        assert state.status == "converged"

    def test_programming_errors_propagate(self, monkeypatch):
        # an operator shape error is a defect, not a bad trial state
        self.fail_second_assembly(monkeypatch, ValueError("shapes differ"))
        problem = point_source_problem()
        with pytest.raises(ValueError, match="shapes differ"):
            newton_solve(problem, np.full(problem.n_bulk, 0.1))

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
        mesh.joint_dirichlet = {mesh.joint_of_node[0]: 1.0,
                                mesh.joint_of_node[1]: 0.4}
        couplings = build_coupling(grid, mesh.cells)
        problem = CoupledProblem(grid=grid, law=ConstantLaw(1.0),
                                 dirichlet=box_dirichlet(grid, 0.0),
                                 seg_cells=mesh.cells, couplings=couplings,
                                 network=mesh)
        state = newton_solve(problem, np.zeros(problem.n_bulk),
                             np.full(problem.n_net, 0.7))
        length = net.total_length()
        mids = np.array([abs(c.midpoint[2] - nodes[0, 2])
                         for c in mesh.cells])
        expect = 1.0 + (0.4 - 1.0) * mids / length
        assert np.max(np.abs(state.u_e - expect)) < 1e-11
        assert np.max(np.abs(state.q)) == 0.0

    def test_coupled_network_solve_and_balances(self):
        problem, mesh = small_coupled_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, 0.1),
                             np.full(problem.n_net, 0.4))
        # tube values sit between the boundary value and the collar value
        assert np.all(state.u_e > 0.1) and np.all(state.u_e < 0.8)
        assert np.all(state.u_hat > 0.1) and np.all(state.u_hat < 0.8)
        src = float(np.sum(state.source_integrals(problem.seg_cells)))
        collar = collar_flux_total(problem, state.u_e)
        scale = max(abs(src), abs(collar))
        # network mass balance: what leaves through the collar is what the
        # kernel sources deposit in the bulk
        assert abs(collar + src) < 1e-10 * scale
        # bulk mass balance: sources exit through the Dirichlet boundary
        out = boundary_flux_total(problem, state.u_b)
        assert abs(out - src) < 1e-9 * scale


class TestPolish:
    def test_polish_reduces_network_residual(self):
        problem, mesh = small_coupled_problem()
        state = newton_solve(problem, np.full(problem.n_bulk, 0.1),
                             np.full(problem.n_net, 0.4))
        u_e = state.u_e + 1e-3          # spoil the network block
        n_b = problem.n_bulk
        asm0 = assemble_coupled(problem, state.u_b, u_e)
        u_e, asm = _polish_network(problem, state.u_b, u_e, asm0)
        assert (np.max(np.abs(asm.res[n_b:]))
                < 1e-6 * np.max(np.abs(asm0.res[n_b:])))


def to_transformed(problem, law=None):
    """Same problem with the bulk block in the transformed variable."""
    law = law or problem.law
    dirichlet = {s: np.asarray(law.transform(v), float)
                 for s, v in problem.dirichlet.items()}
    return replace(problem, law=law, dirichlet=dirichlet,
                   bulk_transformed=True)


class TestTransformedBulk:
    def test_constant_law_forms_identical(self):
        # for D = const the transform is a pure rescaling, so the two
        # discrete systems are identical and the solutions must agree to
        # rounding
        law = ConstantLaw(2.0)
        problem, mesh = small_coupled_problem()
        problem = replace(problem, law=law)
        a = newton_solve(problem, np.full(problem.n_bulk, 0.1),
                         np.full(problem.n_net, 0.4))
        tp = to_transformed(problem)
        b = newton_solve(tp, np.asarray(
            law.transform(np.full(problem.n_bulk, 0.1)), float),
            np.full(problem.n_net, 0.4))
        assert np.max(np.abs(a.u_b
                             - law.inverse_transform(b.u_b))) < 1e-13
        assert np.max(np.abs(a.u_e - b.u_e)) < 1e-13

    def test_jacobian_matches_finite_differences(self):
        problem, mesh = small_coupled_problem()
        tp = to_transformed(problem)
        rng = np.random.default_rng(11)
        u_b = np.asarray(LAW.transform(
            rng.uniform(0.0, 0.6, tp.n_bulk)), float)
        u_e = rng.uniform(0.2, 0.8, tp.n_net)
        assert_jacobian_matches_fd(tp, u_b, u_e, rng)

    def test_point_source_forms_agree(self):
        # harmonic-mean fluxes in the pressure variable and exact fluxes
        # in the transformed variable are different discretizations of
        # the same problem; on a smooth solution they agree closely
        problem = point_source_problem()
        a = newton_solve(problem, np.full(problem.n_bulk, 0.1))
        tp = to_transformed(problem)
        b = newton_solve(tp, np.asarray(
            LAW.transform(np.full(problem.n_bulk, 0.1)), float))
        u_b = np.asarray(LAW.inverse_transform(b.u_b), float)
        assert np.max(np.abs(a.u_b - u_b)) < 1e-4
        assert abs(a.q[0] - b.q[0]) < 1e-4 * abs(a.q[0])
        # boundary flux balances the source in either form
        out = boundary_flux_total(tp, b.u_b)
        assert abs(out - b.q[0]) < 1e-9 * abs(b.q[0])


def radial_single_tube_problem():
    """One level of the single-tube study: radial bulk in psi around one
    tube at a fixed value."""
    grid = BulkGrid("radial", [0.0], [1.0], (40,))
    seg = SegmentCell(p0=np.zeros(1), p1=np.zeros(1), length=1.0,
                      radius=0.01, kernel_radius=0.05, gamma=1.0, d_e=0.0,
                      segment_id=0, joint_a=0, joint_b=1)
    return CoupledProblem(grid=grid, law=LAW,
                          dirichlet={1: np.asarray(LAW.transform(
                              np.full(1, 0.3)), float)},
                          seg_cells=[seg],
                          couplings=build_coupling(grid, [seg]),
                          u_e_fixed=np.array([0.1]), bulk_transformed=True)


class TestCapacitanceStep:
    @pytest.mark.parametrize("case", ["chain", "y_junction", "point_source",
                                      "radial"])
    def test_step_matches_sparse_solve(self, case):
        if case == "point_source":
            problem = to_transformed(point_source_problem())
        elif case == "radial":
            problem = radial_single_tube_problem()
        else:
            problem = to_transformed(small_coupled_problem(
                y_junction=case == "y_junction")[0])
        assert isinstance(problem.capacitance_step, CapacitanceStep)
        rng = np.random.default_rng(13)
        u_b = np.asarray(LAW.transform(rng.uniform(0.0, 0.6,
                                                   problem.n_bulk)), float)
        u_e = (rng.uniform(0.2, 0.8, problem.n_net) if problem.n_net
               else problem.u_e_fixed)
        asm = assemble_coupled(problem, u_b, u_e)
        assert np.all(asm.dq_dub != 0.0)
        ref = spsolve(coupled_jacobian(problem, asm), -asm.res)
        step = problem.solve_step(asm)
        assert step.shape == ref.shape
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_pressure_form_keeps_sparse_solve(self):
        problem, _ = small_coupled_problem()
        assert not hasattr(problem, "capacitance_step")


class TestJointDirichlet:
    def test_changed_collar_matches_fresh_problem(self):
        problem, mesh = small_coupled_problem(y_junction=True)
        collar = mesh.joint_of_node[0]
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
            problem.set_joint_dirichlet({mesh.joint_of_node[2]: 0.3})


class TestFluxHelpers:
    def test_collar_flux_sign(self):
        problem, mesh = small_coupled_problem()
        u_e = np.full(problem.n_net, 0.9)      # above the 0.8 collar value
        assert collar_flux_total(problem, u_e) > 0.0

    def test_boundary_flux_zero_for_matching_field(self):
        problem = point_source_problem()
        u_b = np.full(problem.n_bulk, 0.1)
        assert boundary_flux_total(problem, u_b) == pytest.approx(0.0,
                                                                  abs=1e-18)
