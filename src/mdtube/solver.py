"""Monolithic Newton solver for the coupled bulk-network system.

Unknowns are the bulk cell values followed by the network segment-cell
values (the latter are absent when the tube unknowns are prescribed, as
in the verification scenarios). Everything but the interface equation is
fixed per problem, so ``CoupledProblem`` builds it once from the grid, the
couplings and the network: the kernel deposition matrix, the stencil
sampling matrix and the network's axial TPFA operator with junction
elimination at branching points. A Newton step then samples the bulk,
solves the interface equation of all segment cells in one call, and forms
the coupling blocks of the Jacobian by diagonal scalings of the two
constant matrices; the exact linearization of the source comes from the
implicit function theorem.

Every scenario solves the bulk in the Kirchhoff variable psi = int_0^u D
(``CoupledProblem.bulk_transformed``), where the bulk block is a linear
Laplacian; the pressure form remains as a reference for the tests. One
damped Newton loop with a sparse direct solve per step serves both; a run
that stalls at the rounding floor says so in ``CoupledState.status``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    """The coupled system; its state-independent operators are built at
    construction: ``deposit`` (bulk by segment cells, kernel weight times
    cell length), ``sample`` (segment by bulk cells, 1/|stencil|), the
    interface geometry and the network's axial operator, the latter from
    ``network.joint_dirichlet`` as it is at construction."""

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
        segs, cpls = self.seg_cells, self.couplings
        self.lengths = np.array([s.length for s in segs])
        self.interface = ReconstructionInput(
            u_b_delta=0.0, u_e=0.0,
            tube_radius=np.array([s.radius for s in segs]),
            kernel_radius=np.array([s.kernel_radius for s in segs]),
            delta=np.array([c.delta for c in cpls]),
            gamma=np.array([s.gamma for s in segs]), law=self.law)

        def by_segment(values, bulk_cells):
            """Segment-by-bulk matrix, one row of values per segment cell."""
            indptr = np.cumsum([0] + [len(c) for c in bulk_cells])
            return sp.csr_matrix((np.concatenate(values),
                                  np.concatenate(bulk_cells), indptr),
                                 shape=(len(segs), self.n_bulk))

        self.deposit = by_segment([c.weights * s.length for s, c
                                   in zip(segs, cpls)],
                                  [c.cells for c in cpls]).T.tocsr()
        self.sample = by_segment([np.full(len(c.stencil), 1.0 / len(c.stencil))
                                  for c in cpls], [c.stencil for c in cpls])
        if self.network is not None:
            self._build_axial()

    def _build_axial(self):
        """Axial TPFA operator with the joints eliminated: through
        half-cell transmissibilities k, an interior joint couples each pair
        of attached cells (i, m, k_i k_m / sum k), a Dirichlet joint each
        attached cell (i, k_i, u_d), and a zero-flux tip nothing."""
        mesh = self.network
        cells = mesh.cells
        n_e = len(cells)
        half_k = np.array([c.d_e / (0.5 * c.length) for c in cells])
        joint = np.array([c.joint_a for c in cells]
                         + [c.joint_b for c in cells])
        cell = np.tile(np.arange(n_e), 2)
        u_dir = np.full(mesh.n_joints, np.nan)
        u_dir[list(mesh.joint_dirichlet)] = list(mesh.joint_dirichlet.values())
        at_dir = ~np.isnan(u_dir[joint])

        self.dir_cell = cell[at_dir]
        self.dir_k = half_k[self.dir_cell]
        self.dir_value = u_dir[joint[at_dir]]

        # off-diagonal entries of B^T diag(1/sum k) B, with B[joint, cell] = k
        b = sp.csr_matrix((half_k[cell[~at_dir]],
                           (joint[~at_dir], cell[~at_dir])),
                          shape=(mesh.n_joints, n_e))
        total = np.asarray(b.sum(axis=1)).ravel()
        pairs = (b.T @ sp.diags(1.0 / np.where(total > 0.0, total, 1.0))
                 @ b).tocoo()
        off = pairs.row != pairs.col
        self.pair_i, self.pair_m = pairs.row[off], pairs.col[off]
        self.pair_k = pairs.data[off]

        diag = (np.bincount(self.pair_i, self.pair_k, n_e)
                + np.bincount(self.dir_cell, self.dir_k, n_e))
        self.axial = (sp.diags(diag) - sp.csr_matrix(
            (self.pair_k, (self.pair_i, self.pair_m)),
            shape=(n_e, n_e))).tocsr()

    def axial_residual(self, u_e: np.ndarray) -> np.ndarray:
        """Axial residual in pairwise-difference form: ``k (u_i - u_m)``
        keeps the conservation defect at the rounding scale of the tiny
        differences, not of the O(u) eliminated joint values."""
        n_e = len(u_e)
        return (np.bincount(self.pair_i, self.pair_k
                            * (u_e[self.pair_i] - u_e[self.pair_m]), n_e)
                + np.bincount(self.dir_cell, self.dir_k
                              * (u_e[self.dir_cell] - self.dir_value), n_e))

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


def assemble_coupled(problem: CoupledProblem, u_b: np.ndarray,
                     u_e: np.ndarray):
    """Residual and sparse Jacobian of the coupled system.

    Returns ``(res, jac, u_hat, q)`` with the reconstructed interface
    values and sources of this state.
    """
    law = problem.law
    res_b, rows, cols, vals = assemble_flux_jacobian(
        problem.grid, _UNIT_LAW if problem.bulk_transformed else law,
        u_b, problem.dirichlet)
    jac_bb = sp.csr_matrix((vals, (rows, cols)), shape=(len(res_b),) * 2)

    u_bar = problem.sample @ u_b
    if problem.bulk_transformed:
        u_bar = law.inverse_transform(u_bar)
    inp = replace(problem.interface, u_b_delta=u_bar, u_e=u_e)
    u_hat, q = reconstruct_interface(inp)
    duh_dub, duh_due = interface_derivatives(inp, u_hat)
    if problem.bulk_transformed:
        # chain rule through u(psi): du/dpsi = 1 / D(u)
        duh_dub = duh_dub / law.eval(u_bar)
    pg = inp.perimeter * inp.gamma
    dq_dub = -pg * duh_dub
    dq_due = -pg * (duh_due - 1.0)

    res_b = res_b - problem.deposit @ q
    jac_bb = jac_bb - problem.deposit @ sp.diags(dq_dub) @ problem.sample
    if not problem.n_net:
        return res_b, jac_bb.tocsc(), u_hat, q

    length = problem.lengths
    res = np.concatenate([res_b, q * length + problem.axial_residual(u_e)])
    jac = sp.bmat([
        [jac_bb, -problem.deposit @ sp.diags(dq_due)],
        [sp.diags(length * dq_dub) @ problem.sample,
         sp.diags(length * dq_due) + problem.axial]], format="csc")
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
    return float(np.sum(problem.dir_k * (u_e[problem.dir_cell]
                                         - problem.dir_value)))
