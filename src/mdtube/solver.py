"""Newton solver for the coupled bulk-network system, in its exchange
unknowns.

The unknowns of the coupled system are the bulk cell values, in the
Kirchhoff variable psi = int_0^u D, and the network segment-cell values
(absent when the tube values are prescribed, as in the verification
scenarios). Everything but the interface equation is fixed per problem,
so ``CoupledProblem`` builds it once from the grid, the couplings and the
network: the kernel deposition matrix W, the stencil sampling matrix S,
the network's axial TPFA operator A with junction elimination at branching
points, the TPFA Laplacian L of the bulk with the direct solver of L
(trigonometric transforms on 2D and 3D grids, a banded Cholesky factor on
radial ones, see ``poisson``), the capacitance matrix C = S L^-1 W and
G = A^-1 diag(len). An assembly samples the bulk and makes one
reconstruction call (``reconstruct_interface``) for all segment cells,
which solves the interface equation in psi and returns the sources q with
their derivatives a and b in the sampled psi and the tube value, exact by
the implicit function theorem.

The interface equation is the only nonlinearity: L psi = g + W q is
linear, and so are the network rows len q + A u_e = d (d from the
Dirichlet joints). So the exchange q alone sets the sampled bulk, psi_g +
C q with psi_g = S L^-1 g, and the tube values u_e(q) = A^-1 (d - len q),
and the coupled system reduces to the exchange residual F(q) = q - Q(psi_g
+ C q, u_e(q)) in as many unknowns as segment cells (``exchange_residual``).
Its Jacobian, I - diag(a) C + diag(b) G, is the matrix of the
capacitance-matrix method of Buzbee, Dorr, George & Golub (SIAM J. Numer.
Anal. 8, 1971), here carried from one Newton step to the whole iteration.

``newton_solve`` takes damped Newton steps on F, with one dense LU of that
matrix each and no bulk solve, until F is at the rounding level of its
terms, entry by entry. Then it assembles the state and holds it to one
stopping test per block (``_converged``): each residual at the rounding
level of its flux terms, and the network residuals balanced at the
collar. The bulk is solved only as a correction of an anchor state, so
that the solves' forward error is that of the correction. Should it
still leave the assembled state above the test, that state becomes the
anchor and the same steps continue from it (a restart), until a state
passes; failing that, the solve raises ``NonconvergenceError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from .coupling import SegmentCoupling
from .grid import BulkGrid
from .laws import DiffusionLaw
from .network import NetworkMesh, SegmentCell
from .poisson import (dirichlet_vector, laplacian, laplacian_solver,
                      transmissibilities)
from .reconstruction import (Interface, ReconstructionError,
                             reconstruct_interface)


class NonconvergenceError(RuntimeError):
    """A solve that did not converge (see ``newton_solve``). ``history``
    is the solve's residual history (``CoupledState.residual_history``)."""

    def __init__(self, message: str, history):
        super().__init__(f"{message}; residual history {history}")
        self.history = list(history)


#: Newton steps and restarts, together, before a solve is reported as not
#: converged
_MAX_ITER = 50
#: step halvings of the backtracking line search
_MAX_HALVINGS = 10
#: a block's residual has converged at this many machine epsilons of the
#: largest magnitude of its flux terms
_ROUNDING = 8.0


def _abs_product(matrix: sp.csr_matrix, diagonal: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """``abs(matrix) @ abs(x)`` for a matrix with the ``diagonal`` >= 0
    and no entry > 0 off it, as L and A have: there abs(matrix) = 2
    diag(matrix) - matrix. Each term of matrix @ |x| is at most the
    diagonal term, so the difference keeps the rounding of the result's
    size."""
    x = np.abs(x)
    return 2.0 * diagonal * x - matrix @ x


def _components(n: int, i: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on vertices 0..n-1
    with edges (i[k], m[k]): each vertex's label is the lowest vertex of
    its component.

    Each pass lowers every label to the least label among its neighbours
    and then to the label of that label. Labels only fall, and stay
    vertices of their own component, so they stop changing exactly when
    they are constant across every edge, each component then carrying
    its lowest vertex, whose label never falls.
    """
    label = np.arange(n)
    while True:
        lower = label.copy()
        np.minimum.at(lower, i, label[m])
        np.minimum.at(lower, m, label[i])
        lower = lower[lower]
        if np.array_equal(lower, label):
            return label
        label = lower


def coupling_operators(seg_cells: list[SegmentCell],
                       couplings: list[SegmentCoupling], n_bulk: int):
    """The deposition W (bulk by segment cells, kernel weight times cell
    length, CSR) and the sampling S (segment by bulk cells, 1/|stencil|
    on each segment cell's stencil, CSR) of a coupled problem."""

    def by_segment(values, bulk_cells):
        """Segment-by-bulk matrix, one row of values per segment cell."""
        indptr = np.cumsum([0] + [len(c) for c in bulk_cells])
        return sp.csr_matrix((np.concatenate(values),
                              np.concatenate(bulk_cells), indptr),
                             shape=(len(seg_cells), n_bulk))

    deposit = by_segment([c.weights * s.length for s, c
                          in zip(seg_cells, couplings)],
                         [c.cells for c in couplings]).T.tocsr()
    sample = by_segment([np.full(len(c.stencil), 1.0 / len(c.stencil))
                         for c in couplings], [c.stencil for c in couplings])
    return deposit, sample


@dataclass
class CoupledProblem:
    """The coupled system, with the bulk in psi = int_0^u D: the bulk
    unknowns, the Dirichlet values (one per boundary face of each
    Dirichlet side) and the initial guess are psi values, the law enters
    only the interface equation, and the tube values are physical. The
    tube values are either network unknowns (``network``) or prescribed
    (``u_e_fixed``), never both.

    The state-independent operators are built at construction:
    ``deposit`` (W, bulk by segment cells, kernel weight times cell
    length), ``sample`` (S, segment by bulk cells, 1/|stencil|), the
    interface geometry (``interface``, checked once, with its coupling
    factor |P| gamma f(delta)), the network's axial operator, the
    Laplacian L with its Dirichlet vector, the direct solver of L and the
    capacitance matrix C = S L^-1 W of the Newton steps. The solver
    builds C from the few cells each row of S and column of W touches: on
    2D and 3D grids from their transforms along all but the last axis and
    the last axis's Green's function, with no bulk solve
    (``SpectralSolver.capacitance``); on radial grids by one banded solve
    of the columns of W.

    With network unknowns, ``axial_green`` holds G = A^-1 diag(len), the
    tube values' response to the exchange of each segment cell, formed
    once through a dense LU of the axial operator A that is not kept: G
    applies A^-1 too, as ``A^-1 y = G (y / len)``. A must be invertible:
    each connected part of the network must reach a Dirichlet joint
    through positive axial conductances, or the construction raises
    ``ValueError``.

    Which network joints are Dirichlet is read from
    ``network.joint_dirichlet`` at construction; their values are problem
    data, changed with ``set_joint_dirichlet`` (a collar-pressure sweep
    reuses one problem, and so its operators, for every pressure). So are
    the values on the Dirichlet sides of the bulk (``set_dirichlet``), and
    the law (``set_law``): it enters only through ``Interface.law``, in the
    interface equation, and no operator built at construction reads it,
    so a sweep over laws (the three-tube stiffness sweep) reuses one
    problem too."""

    grid: BulkGrid
    law: DiffusionLaw
    dirichlet: dict[int, np.ndarray]
    seg_cells: list[SegmentCell]
    couplings: list[SegmentCoupling]
    network: NetworkMesh | None = None
    u_e_fixed: np.ndarray | None = None

    def __post_init__(self):
        if (self.network is None) == (self.u_e_fixed is None):
            raise ValueError("need a network mesh or fixed tube values "
                             "(u_e_fixed), exactly one of the two")
        segs, cpls = self.seg_cells, self.couplings
        if len(cpls) != len(segs):
            raise ValueError(f"{len(cpls)} couplings for {len(segs)} segment "
                             "cells; need one per segment cell")
        if self.network is not None and (list(map(id, self.network.cells))
                                         != list(map(id, segs))):
            raise ValueError(f"seg_cells ({len(segs)}) must be the network's "
                             f"cells ({self.network.n_cells}), in order")
        self.lengths = np.array([s.length for s in segs])
        self.interface = Interface(
            tube_radius=np.array([s.radius for s in segs]),
            kernel_radius=np.array([s.kernel_radius for s in segs]),
            delta=np.array([c.delta for c in cpls]),
            gamma=np.array([s.gamma for s in segs]), law=self.law)
        self.deposit, self.sample = coupling_operators(segs, cpls,
                                                       self.n_bulk)
        if self.network is not None:
            self._build_axial()
        self.laplacian, self.dirichlet_rhs = laplacian(self.grid,
                                                       self.dirichlet)
        self.laplacian_diag = self.laplacian.diagonal()
        self.solve_bulk = laplacian_solver(self.grid, self.dirichlet)
        self.capacitance = self.solve_bulk.capacitance(self.sample,
                                                       self.deposit)
        if self.n_net:
            # dense only after the Laplacian, whose build is the memory peak
            # of the construction: 86 MiB of arrays on a 64x64x120 grid,
            # against 67 MiB for the capacitance matrix
            self.axial_green = lu_solve(lu_factor(self.axial.toarray()),
                                        np.diag(self.lengths))

    def exchange_factor(self, a: np.ndarray, b: np.ndarray):
        """LU factor of ``I - diag(a) C + diag(b) G`` (without network
        unknowns ``I - diag(a) C``): the Jacobian of the exchange residual
        (``exchange_residual``), the matrix of the capacitance-matrix
        method."""
        system = -a[:, None] * self.capacitance
        system.flat[::len(a) + 1] += 1.0
        if self.n_net:
            system += b[:, None] * self.axial_green
        return lu_factor(system, overwrite_a=True, check_finite=False)

    def tube_values(self, q: np.ndarray) -> np.ndarray:
        """The tube values of the exchange q: the prescribed ones, or
        ``u_e = A^-1 (d - len q)`` (d the Dirichlet joints' terms), with
        A^-1 y applied as ``G (y / len)`` by the stored G = A^-1 diag(len)
        (``axial_green``), and refined once the same way against the
        pairwise axial residual (``axial_residual``), so that the network
        rows balance to the rounding of the differences."""
        if not self.n_net:
            return np.asarray(self.u_e_fixed, float)
        exchange = self.lengths * q
        u_e = self.axial_green @ ((np.bincount(
            self.dir_cell, self.dir_k * self.dir_value, len(q)) - exchange)
            / self.lengths)
        return u_e - self.axial_green @ ((exchange + self.axial_residual(u_e))
                                         / self.lengths)

    def _build_axial(self):
        """Axial TPFA operator with the joints eliminated: through
        half-cell transmissibilities k, an interior joint couples each pair
        of attached cells (i, m, k_i k_m / sum k), a Dirichlet joint each
        attached cell (i, k_i, u_d), and a zero-flux tip nothing.

        Raises ``ValueError`` when A is singular: it names the lowest
        segment cell of a connected part of the network (cells joined by
        positive conductances, labelled by ``_components``) that holds no
        cell with a Dirichlet joint."""
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
        self.axial_diag = diag

        # A is invertible when every connected part of the network, joined
        # by positive conductances, holds a cell with a Dirichlet joint
        linked = self.pair_k > 0.0
        part = _components(n_e, self.pair_i[linked], self.pair_m[linked])
        anchored = np.zeros(n_e, bool)
        anchored[part[self.dir_cell[self.dir_k > 0.0]]] = True
        if not np.all(anchored[part]):
            first = int(np.argmin(anchored[part]))
            raise ValueError(
                f"singular axial operator: segment cell {first} (segment "
                f"{cells[first].segment_id}) reaches no Dirichlet joint "
                "through positive axial conductances (d_e > 0)")

    def set_joint_dirichlet(self, values: dict[int, float]):
        """New values for the Dirichlet joints, keyed by joint; the set of
        Dirichlet joints is the one the problem was built with."""
        if set(values) != set(self.dir_joint.tolist()):
            raise ValueError(
                f"Dirichlet joints {sorted(values)} differ from the "
                f"problem's {sorted(set(self.dir_joint.tolist()))}")
        self.dir_value = np.array([values[j] for j in self.dir_joint.tolist()],
                                  float)

    def set_dirichlet(self, values: dict[int, np.ndarray]):
        """New values for the Dirichlet sides of the bulk, keyed by side,
        one per boundary face; the set of sides is the one the problem was
        built with, and so are the Laplacian and its solver."""
        if set(values) != set(self.dirichlet):
            raise ValueError(f"Dirichlet sides {sorted(values)} differ from "
                             f"the problem's {sorted(self.dirichlet)}")
        self.dirichlet_rhs = dirichlet_vector(self.grid, values)
        self.dirichlet = values

    def set_law(self, law: DiffusionLaw):
        """A new diffusion law, and nothing else. The law enters only the
        interface equation, through ``interface.law``; W, S, the coupling
        factor, L, its solver, C and the axial operator do not read it, so
        they stay as built."""
        self.law = law
        self.interface.law = law

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
    """A converged solution, with the record of the loop that reached it
    (see ``newton_solve``)."""

    u_b: np.ndarray
    u_e: np.ndarray                 # per segment cell (fixed or solved)
    u_hat: np.ndarray               # reconstructed interface values
    q: np.ndarray                   # source per unit tube length
    iterations: int = 0             # Newton steps
    #: restarts from an assembled state that failed ``_converged``
    restarts: int = 0
    #: max-norm of the coupled residual, in order: of the state that the
    #: exchange sets, (W F, -len F), at each iterate, and of each
    #: assembled state
    residual_history: list = field(default_factory=list)
    #: max |F| / bound of the exchange residual at each iterate
    reduced_history: list = field(default_factory=list)
    #: the line search's step length of each step, in order
    step_lengths: list = field(default_factory=list)


class Exchange(NamedTuple):
    """The coupled problem in its exchange unknowns at one iterate q (see
    ``exchange_residual``): the tube values u_e(q), the derivatives of the
    interface equation's source at (psi_g + C q, u_e(q)), the exchange
    residual F and the bound that the stopping test holds it to, per
    entry."""

    q: np.ndarray
    u_e: np.ndarray
    dq_dub: np.ndarray              # a: dq / d(sampled bulk psi)
    dq_due: np.ndarray              # b: dq / d(tube value)
    res: np.ndarray                 # F
    bound: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(np.all(np.abs(self.res) <= self.bound))

    def ratio(self) -> float:
        """max |F| / bound; an entry with F = 0 reads 0."""
        f = np.abs(self.res)
        with np.errstate(divide="ignore"):
            return float(np.max(np.divide(f, self.bound, where=f > 0.0,
                                          out=np.zeros_like(f)), initial=0.0))


class Assembly(NamedTuple):
    """Residual of the coupled system at one state, with what its Jacobian
    is made of besides the constant operators: the two diagonal scalings of
    the coupling blocks."""

    res: np.ndarray
    u_hat: np.ndarray               # reconstructed interface values
    q: np.ndarray                   # source per unit tube length
    dq_dub: np.ndarray              # a: dq / d(sampled bulk psi)
    dq_due: np.ndarray              # b: dq / d(tube value)


def assemble_coupled(problem: CoupledProblem, u_b: np.ndarray,
                     u_e: np.ndarray) -> Assembly:
    """Residual of the coupled system and the parts of its Jacobian (see
    ``coupled_jacobian``). The bulk residual is ``L u_b - g - W q``, with
    q, and its derivatives a and b, from the interface equation at the
    sampled bulk ``S u_b``, in psi, and the tube values ``u_e``."""
    u_hat, q, dq_dub, dq_due = reconstruct_interface(
        problem.interface, problem.sample @ u_b, u_e)
    res = problem.laplacian @ u_b - problem.dirichlet_rhs - problem.deposit @ q
    if problem.n_net:
        res = np.concatenate([res, q * problem.lengths
                              + problem.axial_residual(u_e)])
    return Assembly(res, u_hat, q, dq_dub, dq_due)


def coupled_jacobian(problem: CoupledProblem, asm: Assembly) -> sp.csc_matrix:
    """Sparse Jacobian of the coupled residual at the state of ``asm``:
    ``[[L - W diag(a) S, -W diag(b)], [diag(len a) S, diag(len b) + A]]``
    with the Laplacian L, the scalings a = ``dq_dub`` and b = ``dq_due``
    and the axial operator A. The solver never assembles it (its steps are
    in the exchange unknowns, ``exchange_factor``); it is the reference
    for the assembly's derivatives in the tests."""
    jac_bb = (problem.laplacian
              - problem.deposit @ sp.diags(asm.dq_dub) @ problem.sample)
    if not problem.n_net:
        return jac_bb.tocsc()
    return sp.bmat([
        [jac_bb, -problem.deposit @ sp.diags(asm.dq_due)],
        [sp.diags(problem.lengths * asm.dq_dub) @ problem.sample,
         sp.diags(problem.lengths * asm.dq_due) + problem.axial]],
        format="csc")


def _converged(problem: CoupledProblem, asm: Assembly, u_b: np.ndarray,
               u_e: np.ndarray) -> bool:
    """The stopping test of ``newton_solve`` at the state (u_b, u_e) of
    ``asm``, one per block. Each block's max-norm residual is at most
    ``_ROUNDING`` machine epsilons of its largest flux-term magnitude:
    ``|L| |u_b| + |g| + W |q|`` in the bulk (g the Dirichlet vector; W
    is non-negative, kernel shares times cell lengths),
    ``|A| |u_e| + |k u_d| + |q len|`` in the network.

    And the network residuals balance at the collar to the rounding of
    their sum (``_collar_bound``).
    """
    n_b, eps = problem.n_bulk, np.finfo(float).eps
    rounding = _ROUNDING * eps
    scale_b = (_abs_product(problem.laplacian, problem.laplacian_diag, u_b)
               + np.abs(problem.dirichlet_rhs)
               + problem.deposit @ np.abs(asm.q))
    if not np.max(np.abs(asm.res[:n_b])) <= rounding * np.max(scale_b):
        return False
    if not problem.n_net:
        return True
    r_e, exchange = asm.res[n_b:], np.abs(asm.q * problem.lengths)
    scale_e = (_abs_product(problem.axial, problem.axial_diag, u_e)
               + exchange
               + np.bincount(problem.dir_cell, np.abs(problem.dir_k
                                                      * problem.dir_value),
                             len(u_e)))
    if not np.max(np.abs(r_e)) <= rounding * np.max(scale_e):
        return False
    return bool(abs(np.sum(r_e)) <= _collar_bound(problem, asm, u_b, u_e))


def _collar_bound(problem: CoupledProblem, asm: Assembly, u_b: np.ndarray,
                  u_e: np.ndarray) -> float:
    """The bound on the network residuals' sum that ``_converged`` sets at
    the state (u_b, u_e) of ``asm``. The axial terms cancel in pairs, so
    ``sum r_e`` is the exchange ``sum q len`` plus the collar flux ``sum k
    (u_c - u_d)``. Stored as floats, the unknowns it reads are off by up
    to eps |x| each, which moves it by up to ``eps (sum len (|b| |u_e| +
    |a| S |u_b|) + sum k |u_c|)`` (a = ``dq_dub``, b = ``dq_due``); the
    terms are rounded once more as they are summed, ``eps (sum |q len| +
    sum |k (u_i - u_m)| + sum |k (u_c - u_d)|)``. One eps is twice the
    rounding of a float, which leaves the other half for the evaluation
    of q. The bound holds also for a network that exchanges nothing
    (gamma = 0)."""
    eps = np.finfo(float).eps
    u_c = u_e[problem.dir_cell]
    pairs = problem.pair_k * (u_e[problem.pair_i] - u_e[problem.pair_m])
    inputs = (problem.lengths @ (np.abs(asm.dq_due * u_e) + np.abs(asm.dq_dub)
                                 * (problem.sample @ np.abs(u_b)))
              + np.sum(problem.dir_k * np.abs(u_c)))
    terms = (np.sum(np.abs(asm.q * problem.lengths)) + np.sum(np.abs(pairs))
             + np.sum(np.abs(problem.dir_k * (u_c - problem.dir_value))))
    return eps * (inputs + terms)


def exchange_residual(problem: CoupledProblem, psi_g: np.ndarray,
                      q: np.ndarray, q_a: np.ndarray | float = 0.0
                      ) -> Exchange:
    """The exchange residual ``F(q) = q - Q(psi_g + C (q - q_a), u_e(q))``.
    The bulk is linear in psi and the axial operator is linear, so the
    exchange q alone sets the sampled bulk, ``S L^-1 (g + W q) = psi_g +
    C (q - q_a)`` with ``psi_g = S L^-1 (g + W q_a)``, the sampled bulk of
    the anchor exchange q_a, and the tube values u_e(q)
    (``CoupledProblem.tube_values``); Q is the source of the interface
    equation there. The Jacobian of F is ``I - diag(a) C + diag(b) G``
    (``CoupledProblem.exchange_factor``).

    ``bound`` is ``_ROUNDING eps (|q| + |a| (|psi_g| + C |q - q_a|) + |b|
    |u_e|)``, per entry: the magnitudes that F's terms carry, read with C
    >= 0, as S, L^-1 and W are non-negative."""
    u_e = problem.tube_values(q)
    shift = q - q_a
    _, source, a, b = reconstruct_interface(
        problem.interface, psi_g + problem.capacitance @ shift, u_e)
    scale = (np.abs(q) + np.abs(a) * (np.abs(psi_g)
                                      + problem.capacitance @ np.abs(shift))
             + np.abs(b) * np.abs(u_e))
    return Exchange(q, u_e, a, b, q - source,
                    _ROUNDING * np.finfo(float).eps * scale)


def _coupled_norm(problem: CoupledProblem, ex: Exchange) -> float:
    """The max-norm of the coupled residual of the state that the exchange
    of ``ex`` sets, ``(W F, -len F)``."""
    norm = _max_abs(problem.deposit @ ex.res)
    if problem.n_net:
        norm = max(norm, _max_abs(problem.lengths * ex.res))
    return norm


def newton_solve(problem: CoupledProblem, u_b0: np.ndarray,
                 u_e0: np.ndarray | None = None) -> CoupledState:
    """Damped Newton iteration from (u_b0, u_e0), in the exchange unknowns
    q, until the state passes ``_converged``. ``u_e0`` is required with
    network unknowns and refused with fixed tube values.

    The iteration is anchored at a bulk state u_a with an exchange q_a,
    first the initial bulk u_b0 with q_a = 0. The bulk of an exchange q is
    u_a + L^-1 (r_a + W (q - q_a)), with r_a = g + W q_a - L u_a the
    anchor's bulk residual with its sign turned: a correction of the
    anchor, so that a bulk solve's forward error is that of the
    correction. ``psi_g = S (u_a + L^-1 r_a)`` takes one bulk solve per
    anchor; the steps, Newton steps on the exchange residual F(q)
    (``exchange_residual``), take none. The initial q is the source of the
    interface equation at the initial state. Once |F| is within its bound
    per entry, the iterate's state is assembled, its bulk by one more bulk
    solve and the tube values u_e(q), and tested. A state that fails, as
    the rounding of the bulk solves could leave it, becomes the anchor,
    with q_a its interface source, and the steps go on from q = q_a (a
    restart): the Newton step of the coupled system there has the step in
    q as its Schur complement, with the same factor.

    Each step has a backtracking line search: a trial is accepted when
    max |F| is lower or the trial is within its bound, and a trial that
    the interface equation cannot solve (``ReconstructionError``) halves
    the step. Raises :class:`NonconvergenceError` when a line search fails
    or after ``_MAX_ITER`` steps and restarts."""
    n_b, n_e = problem.n_bulk, problem.n_net
    u_b = _initial_guess("u_b0", u_b0, n_b)
    if n_e:
        u_e = _initial_guess("u_e0", u_e0, n_e)
    elif u_e0 is not None:
        raise ValueError("u_e0 given, but the problem's tube values are "
                         "fixed (u_e_fixed)")
    else:
        u_e = np.asarray(problem.u_e_fixed, float).copy()

    # the bulk as the anchor plus a correction, so that a bulk solve's
    # forward error is that of the correction: psi is a large level with
    # small differences, and solved from g the bulk's mass balance was off
    # by 6e-10 of the exchanged flow on 64x64x120, r_T by 1.4e-10, and
    # states failed the bulk block of _converged by up to 1.5 times
    q_a, r_a = 0.0, problem.dirichlet_rhs - problem.laplacian @ u_b
    psi_g = problem.sample @ (u_b + problem.solve_bulk(r_a))
    _, q, _, _ = reconstruct_interface(problem.interface,
                                       problem.sample @ u_b, u_e)
    exchange = exchange_residual(problem, psi_g, q)
    history, ratios = [_coupled_norm(problem, exchange)], [exchange.ratio()]
    lengths, restarts = [], 0
    while True:
        if exchange.converged:
            u_b += problem.solve_bulk(r_a + problem.deposit
                                      @ (exchange.q - q_a))
            u_e = exchange.u_e
            asm = assemble_coupled(problem, u_b, u_e)
            history.append(_max_abs(asm.res))
            if _converged(problem, asm, u_b, u_e):
                break
        if len(lengths) + restarts == _MAX_ITER:
            raise NonconvergenceError(
                f"Newton did not converge in {_MAX_ITER} steps and restarts "
                f"({len(lengths)} steps, {restarts} restarts)", history)
        if exchange.converged:
            # restart, anchored at the assembled state, whose bulk residual
            # -r_a is the rounding that the bulk solves left
            restarts += 1
            q_a, r_a = asm.q, -asm.res[:n_b]
            psi_g = problem.sample @ (u_b + problem.solve_bulk(r_a))
            exchange = exchange_residual(problem, psi_g, q_a, q_a)
        else:
            norm = _max_abs(exchange.res)
            dq = lu_solve(problem.exchange_factor(exchange.dq_dub,
                                                  exchange.dq_due),
                          -exchange.res, check_finite=False)
            alpha = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                try:
                    # overshooting trial states may overflow the
                    # coefficient; the resulting nan norm fails the
                    # comparison and the step is halved, so silence the
                    # transient warnings
                    with np.errstate(over="ignore", invalid="ignore",
                                     divide="ignore"):
                        trial = exchange_residual(
                            problem, psi_g, exchange.q + alpha * dq, q_a)
                        if _max_abs(trial.res) < norm or trial.converged:
                            break
                except ReconstructionError:
                    # a trial state the interface equation cannot handle;
                    # any other error is a defect
                    pass
                alpha *= 0.5
            else:
                raise NonconvergenceError("line search failed", history)
            exchange = trial
            lengths.append(alpha)
        history.append(_coupled_norm(problem, exchange))
        ratios.append(exchange.ratio())
    return CoupledState(u_b=u_b, u_e=u_e, u_hat=asm.u_hat, q=asm.q,
                        iterations=len(lengths), restarts=restarts,
                        residual_history=history, reduced_history=ratios,
                        step_lengths=lengths)


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def _initial_guess(name: str, values, size: int) -> np.ndarray:
    if values is None:
        raise ValueError(f"{name} is required: the problem has {size} "
                         "unknowns in its block")
    out = np.array(values, float)
    if out.shape != (size,):
        raise ValueError(f"{name} has shape {out.shape}, not ({size},)")
    return out


def boundary_flux_total(problem: CoupledProblem, u_b: np.ndarray) -> float:
    """Total outward Dirichlet boundary flux of the converged psi field."""
    grid = problem.grid
    total = 0.0
    for side, values in problem.dirichlet.items():
        tb = transmissibilities(grid, side // 2)[1 + side % 2]
        total += float(np.sum(-tb * (np.asarray(values, float)
                                     - u_b[grid.side_cells(side)])))
    return total


def collar_flux_total(problem: CoupledProblem, u_e: np.ndarray) -> float:
    """Flux leaving the network through its Dirichlet joints."""
    return float(np.sum(problem.dir_k * (u_e[problem.dir_cell]
                                         - problem.dir_value)))
