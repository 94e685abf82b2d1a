"""Semi-analytical reference solutions for parallel tubes.

The transformed variable is a superposition of regularized logarithmic
profiles, one per tube, whose interface values are found by a dense
Newton iteration over perimeter-average conditions. Two averaging
variants are supported: averaging the untransformed unknown
(``variant="u"``) or the transformed variable (``variant="psi"``); the
latter is the solution the distributed-source scheme converges to.

The tubes' profiles depend on the geometry alone (``tube_profiles``): a
field at fixed points is formed from profiles evaluated there once, for
any sources and constant. So the dense Newton evaluates them at the
perimeter points once per solve, and a convergence study once per
level's grid for all its references.

A single straight tube is the one-tube case: its perimeter condition pins
the constant to T(u_hat), which the initial guess already meets, so the
closed-form radial profile comes out with no Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laws import DiffusionLaw
from .reconstruction import kernel_profile_f


@dataclass(frozen=True)
class TubeSpec:
    """One parallel tube cut perpendicularly by the 2D plane."""

    center: tuple[float, float]
    tube_radius: float
    kernel_radius: float
    gamma: float
    u_e: float

    @property
    def perimeter(self) -> float:
        return 2.0 * np.pi * self.tube_radius


def _perimeter_points(tube: TubeSpec, k_ip: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(k_ip) / k_ip
    return (np.asarray(tube.center)
            + tube.tube_radius * np.stack([np.cos(theta), np.sin(theta)],
                                          axis=-1))


def tube_profiles(tubes, points) -> np.ndarray:
    """The profile ``kernel_profile_f(|x - c_j|, R_j, rho_j)`` of each tube
    j at (n, 2) ``points``, one row per tube. It depends on the geometry
    alone, so the fields of any sources and constant at these points are
    formed from it (``MultiTubeSolution.psi_of_profiles``) without
    evaluating it again."""
    pts = np.atleast_2d(np.asarray(points, float))
    return np.array([kernel_profile_f(
        np.linalg.norm(pts - np.asarray(tube.center), axis=-1),
        tube.tube_radius, tube.kernel_radius) for tube in tubes])


def _perimeter_profiles(tubes, k_ip: int) -> list[np.ndarray]:
    """Per tube, the profiles of all tubes at its ``k_ip`` perimeter
    points (``tube_profiles``)."""
    return [tube_profiles(tubes, _perimeter_points(t, k_ip)) for t in tubes]


@dataclass
class MultiTubeSolution:
    """Superposition solution for parallel tubes in the plane.

    ``u_hat`` are the interface unknowns, ``q`` the per-unit-length
    sources and ``c_psi`` the additive harmonic constant.
    """

    tubes: tuple[TubeSpec, ...]
    law: DiffusionLaw
    u_hat: np.ndarray
    c_psi: float
    variant: str            # "u" | "psi"
    k_ip: int

    @property
    def q(self) -> np.ndarray:
        return _sources(self.tubes, self.u_hat)

    def psi(self, points):
        """Transformed field at (n, 2) points (or a single point)."""
        out = self.psi_of_profiles(tube_profiles(self.tubes, points))
        return out if np.asarray(points).ndim > 1 else float(out[0])

    def psi_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """Transformed field at the points where the tubes' profiles are
        ``profiles`` (``tube_profiles``): ``c_psi`` minus q_j times the
        profile of tube j, subtracted in tube order."""
        out = np.full(profiles.shape[1], self.c_psi)
        for q, profile in zip(self.q, profiles):
            out -= q * profile
        return out

    def u(self, points):
        return self.law.inverse_transform(self.psi(points))

    def residuals(self, k_ip: int | None = None) -> np.ndarray:
        """Perimeter-average residuals, re-evaluated at ``k_ip`` points."""
        return _average_residuals(
            self.tubes, self.law, self.variant, self.u_hat, self.c_psi,
            _perimeter_profiles(self.tubes, k_ip or self.k_ip))


def _sources(tubes, u_hat) -> np.ndarray:
    """Per-unit-length sources of the tubes at interface values u_hat."""
    return np.array([-t.perimeter * t.gamma * (uh - t.u_e)
                     for t, uh in zip(tubes, u_hat)])


def _average_residuals(tubes, law: DiffusionLaw, variant: str,
                       u_hat: np.ndarray, c_psi: float,
                       profiles) -> np.ndarray:
    """u_hat minus the perimeter average of the field (of u, or of psi
    mapped back to u, by ``variant``) over each tube's points, where the
    tubes' profiles are ``profiles[i]`` (``_perimeter_profiles``)."""
    q = _sources(tubes, u_hat)
    res = np.empty(len(tubes))
    for i, at_tube in enumerate(profiles):
        # the interface averages live on the line-source field, whose
        # own-tube log contribution vanishes on the tube wall; only the
        # neighbor terms and the constant remain, over all the points
        psi = np.full(at_tube.shape[1], c_psi)
        for j, profile in enumerate(at_tube):
            if j != i:
                psi -= q[j] * profile
        if variant == "u":
            avg = float(np.mean(law.inverse_transform(psi)))
        else:
            avg = float(law.inverse_transform(np.float64(np.mean(psi))))
        res[i] = u_hat[i] - avg
    return res


class AnalyticSolveError(RuntimeError):
    pass


#: the dense Newton of ``solve_multi_tube`` stops below this max-norm
#: residual, relative to max(1, |u_hat|, |u_e|), and fails after
#: ``_MAX_ITER`` steps or when ``_MAX_HALVINGS`` halvings of a step find
#: no lower residual
_TOL = 1e-12
_MAX_ITER = 100
_MAX_HALVINGS = 20
#: the forward-difference step of its Jacobian, relative to max(1, |z|)
_FD_STEP = 1e-7


def solve_multi_tube(tubes, law: DiffusionLaw, anchor: tuple[int, float],
                     variant: str = "u", k_ip: int = 64) -> MultiTubeSolution:
    """Find interface values and the harmonic constant by dense Newton.

    One interface unknown is pinned by ``anchor = (tube index, value)``;
    the remaining unknowns plus the constant make the square system of
    perimeter-average conditions. The dense Jacobian is approximated by
    forward differences. The residual is in the units of u, so the
    stopping test is relative to the largest interface or tube value: the
    round trip T^-1(T(u)) of a Van Genuchten pressure in Pa alone is off by
    more than 1e-12.
    """
    tubes = tuple(tubes)
    n = len(tubes)
    if variant not in ("u", "psi"):
        raise ValueError("variant must be 'u' or 'psi'")
    anchor_idx, anchor_val = anchor
    free = [i for i in range(n) if i != anchor_idx]
    # the residuals differ in the sources and the constant only: the
    # profiles at the perimeter points are evaluated once
    profiles = _perimeter_profiles(tubes, k_ip)

    def unpack(z):
        u_hat = np.empty(n)
        u_hat[anchor_idx] = anchor_val
        u_hat[free] = z[1:]
        return float(z[0]), u_hat

    def residual(z):
        c_psi, u_hat = unpack(z)
        return _average_residuals(tubes, law, variant, u_hat, c_psi,
                                  profiles)

    # initial guess: interface values at the tube unknowns, constant from
    # the anchor transform
    z = np.empty(n)
    z[0] = float(law.transform(np.float64(anchor_val)))
    z[1:] = [tubes[i].u_e for i in free]

    scale_e = max(abs(t.u_e) for t in tubes)
    history = []
    r = residual(z)
    for _ in range(_MAX_ITER):
        norm = float(np.max(np.abs(r)))
        history.append(norm)
        if norm < _TOL * max(1.0, np.max(np.abs(unpack(z)[1])), scale_e):
            break
        jac = np.empty((n, n))
        for col in range(n):
            step = _FD_STEP * max(1.0, abs(z[col]))
            zp = z.copy()
            zp[col] += step
            jac[:, col] = (residual(zp) - r) / step
        try:
            dz = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise AnalyticSolveError(
                f"singular dense Jacobian; residual history {history}"
            ) from exc
        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            r_new = residual(z + alpha * dz)
            if np.max(np.abs(r_new)) < norm:
                break
            alpha *= 0.5
        else:
            raise AnalyticSolveError(
                f"line search failed; residual history {history}")
        z = z + alpha * dz
        r = r_new
    else:
        raise AnalyticSolveError(
            f"dense Newton did not converge; residual history {history}")

    c_psi, u_hat = unpack(z)
    return MultiTubeSolution(tubes=tubes, law=law, u_hat=u_hat, c_psi=c_psi,
                             variant=variant, k_ip=k_ip)
