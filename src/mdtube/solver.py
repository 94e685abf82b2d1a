"""Monolithic Newton solver for the coupled bulk-network system.

Unknowns are the bulk cell values followed by the network segment-cell
values (the latter are absent when the tube unknowns are prescribed, as
in the verification scenarios). Everything but the interface equation is
fixed per problem, so ``CoupledProblem`` builds it once from the grid, the
couplings and the network: the kernel deposition matrix W, the stencil
sampling matrix S and the network's axial TPFA operator with junction
elimination at branching points. An assembly samples the bulk, solves the
interface equation of all segment cells in one call and returns the
residual with the two diagonal scalings of the coupling blocks, the
derivatives of the sources with respect to the sampled bulk value and the
tube value; the exact linearization of the source comes from the implicit
function theorem.

Every scenario solves the bulk in the Kirchhoff variable psi = int_0^u D
(``CoupledProblem.bulk_transformed``). There the bulk block of the
Jacobian is ``L - W diag(a) S`` with the constant TPFA Laplacian L, whose
direct solver is built once per problem (trigonometric transforms on 2D
and 3D grids, a banded Cholesky factor on radial ones, see ``poisson``),
and a Newton step is one capacitance-matrix solve (``CapacitanceStep``):
two bulk solves and one dense system of at most twice the number of
segment cells. The pressure form remains as a reference for the tests and
solves each step with a sparse direct solve of the assembled Jacobian
(``coupled_jacobian``). One damped Newton loop serves both; a run that
stalls at the rounding floor says so in ``CoupledState.status``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .coupling import SegmentCoupling
from .grid import BulkGrid, assemble_flux_jacobian
from .laws import ConstantLaw, DiffusionLaw, TransformDomainError
from .network import NetworkMesh, SegmentCell
from .poisson import capacitance_matrix, laplacian, laplacian_solver
from .quadrature import QuadratureError
from .reconstruction import (ReconstructionError, ReconstructionInput,
                             interface_derivatives, reconstruct_interface)


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


#: identity coefficient of the boundary fluxes in the transformed
#: variable (see ``CoupledProblem.bulk_transformed``)
_UNIT_LAW = ConstantLaw(1.0)


@dataclass
class CoupledProblem:
    """The coupled system; its state-independent operators are built at
    construction: ``deposit`` (W, bulk by segment cells, kernel weight
    times cell length), ``sample`` (S, segment by bulk cells,
    1/|stencil|), the interface geometry and the network's axial operator.

    In the psi form (``bulk_transformed``) the construction also builds
    the Laplacian L with its Dirichlet vector and the ``CapacitanceStep``
    (the direct solver of L and the capacitance matrix S L^-1 W), which
    ``solve_step`` uses; the pressure form solves each step with a sparse
    direct solve of ``coupled_jacobian``.

    Which network joints are Dirichlet is read from
    ``network.joint_dirichlet`` at construction; their values are problem
    data, changed with ``set_joint_dirichlet`` (a collar-pressure sweep
    reuses one problem, and so its operators, for every pressure)."""

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
        if self.bulk_transformed:
            self.laplacian, self.dirichlet_rhs = laplacian(self.grid,
                                                           self.dirichlet)
            self.capacitance_step = CapacitanceStep(
                self.grid, self.dirichlet, self.sample, self.deposit,
                self.lengths, self.axial if self.n_net else None)

    def solve_step(self, asm: Assembly) -> np.ndarray:
        """Newton step at the state of ``asm``."""
        if self.bulk_transformed:
            return self.capacitance_step(asm)
        return spsolve(coupled_jacobian(self, asm), -asm.res)

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
        self.dir_joint = joint[at_dir]
        self.dir_value = u_dir[self.dir_joint]

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

    def set_joint_dirichlet(self, values: dict[int, float]):
        """New values for the Dirichlet joints, keyed by joint; the set of
        Dirichlet joints is the one the problem was built with."""
        if set(values) != set(self.dir_joint.tolist()):
            raise ValueError(
                f"Dirichlet joints {sorted(values)} differ from the "
                f"problem's {sorted(set(self.dir_joint.tolist()))}")
        self.dir_value = np.array([values[j] for j in self.dir_joint.tolist()],
                                  float)

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


class Assembly(NamedTuple):
    """Residual of the coupled system at one state, with what its Jacobian
    is made of: the bulk flux block and the two diagonal scalings of the
    coupling blocks."""

    res: np.ndarray
    u_hat: np.ndarray               # reconstructed interface values
    q: np.ndarray                   # source per unit tube length
    dq_dub: np.ndarray              # a: dq / d(sampled bulk value)
    dq_due: np.ndarray              # b: dq / d(tube value)
    flux_jacobian: sp.csr_matrix    # bulk fluxes; the constant L in psi


def assemble_coupled(problem: CoupledProblem, u_b: np.ndarray,
                     u_e: np.ndarray) -> Assembly:
    """Residual of the coupled system and the parts of its Jacobian (see
    ``coupled_jacobian``). In the psi form the bulk residual is
    ``L u_b - g - W q`` from the constant Laplacian."""
    law = problem.law
    if problem.bulk_transformed:
        flux_jac = problem.laplacian
        res_b = flux_jac @ u_b - problem.dirichlet_rhs
    else:
        res_b, rows, cols, vals = assemble_flux_jacobian(
            problem.grid, law, u_b, problem.dirichlet)
        flux_jac = sp.csr_matrix((vals, (rows, cols)),
                                 shape=(len(res_b),) * 2)

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

    res = res_b - problem.deposit @ q
    if problem.n_net:
        res = np.concatenate([res, q * problem.lengths
                              + problem.axial_residual(u_e)])
    return Assembly(res, u_hat, q, dq_dub, dq_due, flux_jac)


def _network_block(problem: CoupledProblem, asm: Assembly) -> sp.csr_matrix:
    return (sp.diags(problem.lengths * asm.dq_due) + problem.axial).tocsr()


def coupled_jacobian(problem: CoupledProblem, asm: Assembly) -> sp.csc_matrix:
    """Sparse Jacobian of the coupled residual at the state of ``asm``:
    ``[[F - W diag(a) S, -W diag(b)], [diag(len a) S, diag(len b) + A]]``
    with the bulk flux block F, the scalings a = ``dq_dub`` and
    b = ``dq_due`` and the axial operator A."""
    jac_bb = (asm.flux_jacobian
              - problem.deposit @ sp.diags(asm.dq_dub) @ problem.sample)
    if not problem.n_net:
        return jac_bb.tocsc()
    return sp.bmat([
        [jac_bb, -problem.deposit @ sp.diags(asm.dq_due)],
        [sp.diags(problem.lengths * asm.dq_dub) @ problem.sample,
         _network_block(problem, asm)]], format="csc")


class CapacitanceStep:
    """Newton step of the psi form by the capacitance-matrix method
    (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971).

    With z = a*(S x_b) + b*x_e the step equations read
    ``L x_b - W z = r_b`` and ``len*z + A x_e = r_e``. So x_b =
    y + L^-1 W z with y = L^-1 r_b, and with the capacitance matrix
    C = S L^-1 W (built once per problem) z and x_e solve the dense system
    ``[[I - diag(a) C, -diag(b)], [diag(len), A]] [z, x_e] =
    [a*(S y), r_e]``, of size n_seg without network unknowns (``axial``
    None). Then ``x_b = L^-1 (r_b + W z)``.
    """

    def __init__(self, grid: BulkGrid, dirichlet: dict[int, np.ndarray],
                 sample: sp.csr_matrix, deposit: sp.csr_matrix,
                 lengths: np.ndarray, axial: sp.csr_matrix | None):
        self.sample, self.deposit, self.lengths = sample, deposit, lengths
        self.solve_bulk = laplacian_solver(grid, dirichlet)
        self.capacitance = capacitance_matrix(self.solve_bulk, sample,
                                              deposit)
        self.axial = None if axial is None else axial.toarray()

    def __call__(self, asm: Assembly) -> np.ndarray:
        n_b, n_s = self.deposit.shape
        r_b = -asm.res[:n_b]
        a = asm.dq_dub
        system = np.eye(n_s) - a[:, None] * self.capacitance
        rhs = a * (self.sample @ self.solve_bulk(r_b))
        if self.axial is not None:
            system = np.block([[system, -np.diag(asm.dq_due)],
                               [np.diag(self.lengths), self.axial]])
            rhs = np.concatenate([rhs, -asm.res[n_b:]])
        sol = np.linalg.solve(system, rhs)
        x_b = self.solve_bulk(r_b + self.deposit @ sol[:n_s])
        return np.concatenate([x_b, sol[n_s:]])


def _polish_network(problem: CoupledProblem, u_b: np.ndarray,
                    u_e: np.ndarray, asm: Assembly, max_iter: int = 8):
    """Newton on the network block alone, with the bulk field frozen.

    A nonsmooth diffusion law can pin the damped global iteration at a
    small bulk residual floor; the network equations themselves remain
    smooth in the tube unknowns, so a few block iterations restore the
    bulk/network mass balance to rounding accuracy. ``asm`` is the
    assembly at (u_b, u_e); returns the tube values and their assembly.
    """
    n_b = problem.n_bulk
    best = float(np.max(np.abs(asm.res[n_b:])))
    for _ in range(max_iter):
        delta = spsolve(_network_block(problem, asm).tocsc(), -asm.res[n_b:])
        ue_try = u_e + delta
        asm_try = assemble_coupled(problem, u_b, ue_try)
        norm_try = float(np.max(np.abs(asm_try.res[n_b:])))
        if norm_try >= best:
            break
        u_e, best, asm = ue_try, norm_try, asm_try
    return u_e, asm


def newton_solve(problem: CoupledProblem, u_b0: np.ndarray,
                 u_e0: np.ndarray | None = None,
                 controls: SolverControls | None = None) -> CoupledState:
    """Damped Newton iteration; each step is the problem's ``solve_step``.

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
    asm = assemble_coupled(problem, u_b, u_e)
    norm0 = float(np.max(np.abs(asm.res)))
    tol = controls.tol_rel * max(norm0, 1e-300)

    def finish(it):
        nonlocal u_e, asm
        if n_e:
            u_e, asm = _polish_network(problem, u_b, u_e, asm)
        return CoupledState(u_b=u_b, u_e=u_e, u_hat=asm.u_hat, q=asm.q,
                            iterations=it, residual_history=history)

    def stagnate(it, reason):
        # rounding (or a kinked diffusion law) can pin the damped iteration
        # just above the requested tolerance; accept a substantial
        # reduction once the network balance has been polished, and say
        # so in the state, else report failure
        state = finish(it)
        norm = float(np.max(np.abs(asm.res)))
        history.append(norm)
        if norm > tol:
            if norm > _STAG_REL * max(norm0, 1e-300):
                raise NonconvergenceError(reason, history)
            state.status = "stagnated"
        return state

    for it in range(controls.max_iter + 1):
        norm = float(np.max(np.abs(asm.res)))
        history.append(norm)
        if norm <= tol:
            return finish(it)
        if it == controls.max_iter:
            break
        delta = problem.solve_step(asm)
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
                    asm_try = assemble_coupled(problem, ub_try, ue_try)
            except (ReconstructionError, TransformDomainError,
                    QuadratureError):
                # a trial state the interface equation or a table-less
                # transform cannot handle; any other error is a defect
                alpha *= 0.5
                continue
            if (float(np.max(np.abs(asm_try.res))) < norm
                    or alpha <= 2.0 ** -_MAX_HALVINGS):
                break
            alpha *= 0.5
        else:
            return stagnate(it + 1, "line search failed")
        norm_try = float(np.max(np.abs(asm_try.res)))
        if norm_try >= norm:
            return stagnate(it + 1, "Newton stagnated")
        u_b, u_e, asm = ub_try, ue_try, asm_try

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
