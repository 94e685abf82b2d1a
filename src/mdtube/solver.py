"""Monolithic Newton solver for the coupled bulk-network system.

Unknowns are the bulk cell values followed by the network segment-cell
values (the latter are absent when the tube unknowns are prescribed, as
in the verification scenarios). Sources enter the bulk through kernel
weights; the network sees the negated source plus axial TPFA fluxes with
junction elimination at branching points. The coupling source is computed
per segment cell by the nonlinear interface reconstruction, and its exact
linearization enters the Jacobian through the implicit function theorem.

Every scenario solves the bulk in the Kirchhoff variable psi = int_0^u D
(``CoupledProblem.bulk_transformed``), where the bulk block is a linear
Laplacian; the pressure form remains as a reference for the tests. One
damped Newton loop with a sparse direct solve per step serves both; a run
that stalls at the rounding floor says so in ``CoupledState.status``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .coupling import SegmentCoupling
from .grid import BulkGrid, assemble_flux_jacobian
from .laws import ConstantLaw, DiffusionLaw
from .network import NetworkMesh, SegmentCell
from .reconstruction import (ReconstructionInput, interface_derivatives,
                             reconstruct_interface)


class NonconvergenceError(RuntimeError):
    def __init__(self, message: str, history):
        super().__init__(f"{message}; residual history {history}")
        self.history = list(history)


@dataclass
class SolverControls:
    tol_rel: float = 1e-12          # relative to the initial residual
    max_iter: int = 50


#: step halvings of the backtracking line search
_MAX_HALVINGS = 10
#: residual reduction, relative to the initial residual, accepted when
#: Newton stalls at the rounding floor above ``tol_rel``
_STAG_REL = 1e-8


#: identity coefficient for the bulk block when it is assembled in the
#: transformed variable (see ``CoupledProblem.bulk_transformed``)
_UNIT_LAW = ConstantLaw(1.0)


@dataclass
class CoupledProblem:
    grid: BulkGrid
    law: DiffusionLaw
    dirichlet: dict[int, np.ndarray]
    seg_cells: list[SegmentCell]
    couplings: list[SegmentCoupling]
    network: NetworkMesh | None = None
    u_e_fixed: np.ndarray | None = None
    #: solve the bulk in the transformed variable psi = int_0^u D, as
    #: every scenario does. The bulk unknowns, Dirichlet values and initial
    #: guess are then psi values and the bulk flux operator is a plain
    #: (linear) Laplacian; the law only enters the tube-wall coupling
    #: through the inverse transform, and tube unknowns stay physical.
    #: False assembles the pressure form with harmonic-mean fluxes, kept
    #: as the reference discretization for the tests.
    bulk_transformed: bool = False

    def __post_init__(self):
        if self.network is None and self.u_e_fixed is None:
            raise ValueError("need either a network mesh or fixed tube values")

    @property
    def n_bulk(self) -> int:
        return self.grid.n_cells

    @property
    def n_net(self) -> int:
        return len(self.seg_cells) if self.network is not None else 0


@dataclass
class CoupledState:
    u_b: np.ndarray
    u_e: np.ndarray                 # per segment cell (fixed or solved)
    u_hat: np.ndarray               # reconstructed interface values
    q: np.ndarray                   # source per unit tube length
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    #: "converged" below ``tol_rel``; "stagnated" when Newton stalled
    #: between ``tol_rel`` and the accepted ``_STAG_REL`` reduction
    status: str = "converged"

    def source_integrals(self, seg_cells) -> np.ndarray:
        """Integrated source per segment cell (q times cell length)."""
        return self.q * np.array([s.length for s in seg_cells])


def _axial_joint_terms(problem: CoupledProblem, u_e: np.ndarray):
    """Residual contributions and triplets of the network axial operator.

    Each joint couples the attached cell ends through half-cell
    transmissibilities; the joint value is eliminated by flux conservation
    (or fixed, for Dirichlet joints).
    """
    mesh = problem.network
    res = np.zeros(len(u_e))
    rows, cols, vals = [], [], []
    half_k = {}
    for i, cell in enumerate(mesh.cells):
        half_k[i] = cell.d_e / (0.5 * cell.length)

    for joint in range(mesh.n_joints):
        attached = mesh.joint_cells[joint]
        if joint in mesh.joint_dirichlet:
            u_d = mesh.joint_dirichlet[joint]
            for i in attached:
                k = half_k[i]
                res[i] += k * (u_e[i] - u_d)
                rows.append(i)
                cols.append(i)
                vals.append(k)
            continue
        if len(attached) < 2:
            continue                    # zero-flux tip
        ks = np.array([half_k[i] for i in attached])
        total = float(np.sum(ks))
        for a, i in enumerate(attached):
            # difference-first form of ks[a] * (u_e[i] - u_joint): the
            # eliminated joint value is O(u) while the differences are
            # tiny, so this keeps the conservation defect at the rounding
            # scale of the differences rather than of u itself
            res[i] += ks[a] * float(
                np.sum(ks * (u_e[i] - u_e[attached]))) / total
            for b, m in enumerate(attached):
                rows.append(i)
                cols.append(m)
                vals.append(ks[a] * ((1.0 if i == m else 0.0)
                                     - ks[b] / total))
    return res, rows, cols, vals


def assemble_coupled(problem: CoupledProblem, u_b: np.ndarray,
                     u_e: np.ndarray):
    """Residual and sparse Jacobian of the coupled system.

    Returns ``(res, jac, u_hat, q)`` with the reconstructed interface
    values and sources of this state.
    """
    n_b = problem.n_bulk
    n_e = problem.n_net
    law = problem.law

    res_b, rows, cols, vals = assemble_flux_jacobian(
        problem.grid, _UNIT_LAW if problem.bulk_transformed else law,
        u_b, problem.dirichlet)
    rows, cols, vals = [rows], [cols], [vals]
    res = np.concatenate([res_b, np.zeros(n_e)])

    u_hat = np.empty(len(problem.seg_cells))
    q = np.empty(len(problem.seg_cells))
    for j, (seg, cpl) in enumerate(zip(problem.seg_cells,
                                       problem.couplings)):
        u_bar = float(np.mean(u_b[cpl.stencil]))
        if problem.bulk_transformed:
            u_bar = float(law.inverse_transform(np.float64(u_bar)))
        inp = ReconstructionInput(
            u_b_delta=u_bar, u_e=float(u_e[j]), tube_radius=seg.radius,
            kernel_radius=seg.kernel_radius, delta=cpl.delta,
            gamma=seg.gamma, law=law)
        u_hat[j], q[j] = reconstruct_interface(inp)
        duh_dub, duh_due = interface_derivatives(inp, u_hat[j])
        if problem.bulk_transformed:
            # chain rule through u(psi): du/dpsi = 1 / D(u)
            duh_dub /= float(law.eval(np.float64(u_bar)))
        pg = seg.perimeter * seg.gamma
        dq_dub = -pg * duh_dub
        dq_due = -pg * (duh_due - 1.0)

        length = seg.length
        np.add.at(res, cpl.cells, -cpl.weights * q[j] * length)
        n_st = len(cpl.stencil)
        # bulk rows: -w L dq/du_bar distributed over the stencil columns
        r = np.repeat(cpl.cells, n_st)
        c = np.tile(cpl.stencil, len(cpl.cells))
        v = (-np.repeat(cpl.weights, n_st) * length * dq_dub / n_st)
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if n_e:
            rows.append(cpl.cells)
            cols.append(np.full(len(cpl.cells), n_b + j))
            vals.append(-cpl.weights * length * dq_due)
            # network row: +q L
            res[n_b + j] += q[j] * length
            rows.append(np.full(n_st + 1, n_b + j))
            cols.append(np.concatenate([cpl.stencil, [n_b + j]]))
            vals.append(np.concatenate([
                np.full(n_st, length * dq_dub / n_st),
                [length * dq_due]]))

    if n_e:
        res_ax, r_ax, c_ax, v_ax = _axial_joint_terms(problem, u_e)
        res[n_b:] += res_ax
        if r_ax:
            rows.append(np.asarray(r_ax) + n_b)
            cols.append(np.asarray(c_ax) + n_b)
            vals.append(np.asarray(v_ax, float))

    n = n_b + n_e
    jac = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsc()
    return res, jac, u_hat, q


def _polish_network(problem: CoupledProblem, u_b: np.ndarray,
                    u_e: np.ndarray, max_iter: int = 8):
    """Newton on the network block alone, with the bulk field frozen.

    A nonsmooth diffusion law can pin the damped global iteration at a
    small bulk residual floor; the network equations themselves remain
    smooth in the tube unknowns, so a few block iterations restore the
    bulk/network mass balance to rounding accuracy.
    """
    n_b = problem.n_bulk
    res, jac, u_hat, q = assemble_coupled(problem, u_b, u_e)
    best = float(np.max(np.abs(res[n_b:])))
    for _ in range(max_iter):
        delta = spsolve(jac[n_b:, n_b:].tocsc(), -res[n_b:])
        ue_try = u_e + delta
        res_try, jac_try, uh_try, q_try = assemble_coupled(
            problem, u_b, ue_try)
        norm_try = float(np.max(np.abs(res_try[n_b:])))
        if norm_try >= best:
            break
        u_e, best = ue_try, norm_try
        res, jac, u_hat, q = res_try, jac_try, uh_try, q_try
    return u_e, res, u_hat, q


def newton_solve(problem: CoupledProblem, u_b0: np.ndarray,
                 u_e0: np.ndarray | None = None,
                 controls: SolverControls | None = None) -> CoupledState:
    """Damped Newton iteration with a sparse direct linear sub-solve.

    Raises :class:`NonconvergenceError` when the residual neither reaches
    ``tol_rel`` nor stalls below the accepted ``_STAG_REL`` reduction.
    """
    controls = controls or SolverControls()
    n_b, n_e = problem.n_bulk, problem.n_net
    u_b = np.asarray(u_b0, float).copy()
    if n_e:
        u_e = np.asarray(u_e0, float).copy()
    else:
        u_e = np.asarray(problem.u_e_fixed, float).copy()

    history = []
    res, jac, u_hat, q = assemble_coupled(problem, u_b, u_e)
    norm0 = float(np.max(np.abs(res)))
    tol = controls.tol_rel * max(norm0, 1e-300)

    def finish(it):
        nonlocal u_e, res, u_hat, q
        if n_e:
            u_e, res, u_hat, q = _polish_network(problem, u_b, u_e)
        return CoupledState(u_b=u_b, u_e=u_e, u_hat=u_hat, q=q,
                            iterations=it, residual_history=history)

    def stagnate(it, reason):
        # rounding (or a kinked diffusion law) can pin the damped iteration
        # just above the requested tolerance; accept a substantial
        # reduction once the network balance has been polished, and say
        # so in the state, else report failure
        state = finish(it)
        norm = float(np.max(np.abs(res)))
        history.append(norm)
        if norm > tol:
            if norm > _STAG_REL * max(norm0, 1e-300):
                raise NonconvergenceError(reason, history)
            state.status = "stagnated"
        return state

    for it in range(controls.max_iter + 1):
        norm = float(np.max(np.abs(res)))
        history.append(norm)
        if norm <= tol:
            return finish(it)
        if it == controls.max_iter:
            break
        delta = spsolve(jac, -res)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            ub_try = u_b + alpha * delta[:n_b]
            ue_try = u_e + alpha * delta[n_b:] if n_e else u_e
            try:
                # overshooting trial states may overflow the coefficient;
                # the resulting nan norm fails the comparison and the
                # step is halved, so silence the transient warnings
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    res_try, jac_try, uh_try, q_try = assemble_coupled(
                        problem, ub_try, ue_try)
            except (RuntimeError, ValueError):
                alpha *= 0.5
                continue
            if (float(np.max(np.abs(res_try))) < norm
                    or alpha <= 2.0 ** -_MAX_HALVINGS):
                break
            alpha *= 0.5
        else:
            return stagnate(it + 1, "line search failed")
        norm_try = float(np.max(np.abs(res_try)))
        if norm_try >= norm:
            return stagnate(it + 1, "Newton stagnated")
        u_b, u_e = ub_try, ue_try
        res, jac, u_hat, q = res_try, jac_try, uh_try, q_try

    raise NonconvergenceError("Newton did not converge", history)


def boundary_flux_total(problem: CoupledProblem, u_b: np.ndarray) -> float:
    """Total outward Dirichlet boundary flux of the converged bulk field."""
    grid = problem.grid
    law = _UNIT_LAW if problem.bulk_transformed else problem.law
    total = 0.0
    d = np.asarray(law.eval(u_b), float)
    for side, values in problem.dirichlet.items():
        mask = grid.bface_side == side
        c = grid.bface_cell[mask]
        tb = grid.bface_area[mask] / grid.bface_dist[mask]
        ub = np.asarray(values, float)
        db = np.asarray(law.eval(ub), float)
        dfb = 2.0 * d[c] * db / (d[c] + db)
        total += float(np.sum(-dfb * tb * (ub - u_b[c])))
    return total


def collar_flux_total(problem: CoupledProblem, u_e: np.ndarray) -> float:
    """Flux leaving the network through its Dirichlet joints."""
    mesh = problem.network
    total = 0.0
    for joint, u_d in mesh.joint_dirichlet.items():
        for i in mesh.joint_cells[joint]:
            cell = mesh.cells[i]
            k = cell.d_e / (0.5 * cell.length)
            total += k * (u_e[i] - u_d)
    return total
