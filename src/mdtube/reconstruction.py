"""Reconstruction of the tube-bulk interface unknown and coupling source.

Given the regularized bulk value sampled at distance ``delta`` from a tube
centerline, the interface value is the root of a scalar nonlinear equation
built from the Kirchhoff transform and the radial kernel profile. The
coupling source then follows from the wall transmissibility. Inputs may
be arrays over segment cells, solved together; scalars return floats.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .laws import DiffusionLaw


#: a cell's interface equation is solved once its Newton step or its
#: bracket is at most this many times ``max(1, |u_e|, |u_b_delta|)``
_TOL = 1e-12


class ReconstructionError(RuntimeError):
    """Non-finite inputs, or the interface equation unsolved in time."""


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def kernel_profile_f(distance, tube_radius, kernel_radius):
    """Radial profile of the regularized logarithmic solution.

    ``(1/2pi) [d^2/(2 rho^2) + ln(rho/R) - 1/2]`` inside the kernel support
    and ``(1/2pi) ln(d/R)`` outside; continuous at ``d = rho`` and zero at
    the tube wall in the unregularized limit ``rho = R``.
    """
    if np.any(kernel_radius < tube_radius):
        raise ValueError("kernel radius must not be smaller than tube radius")
    d = np.asarray(distance, float)
    rho, radius = kernel_radius, tube_radius
    inside = (d ** 2 / (2.0 * rho ** 2) + np.log(rho / radius) - 0.5)
    with np.errstate(divide="ignore"):
        outside = np.log(np.maximum(d, 1e-300) / radius)
    return _scalar_or_array(np.where(d <= rho, inside, outside)
                            / (2.0 * np.pi))


@dataclass
class ReconstructionInput:
    """Inputs of the interface equation: floats for one segment cell, or
    arrays with one entry per segment cell."""

    u_b_delta: float | np.ndarray   # bulk value sampled at distance delta
    u_e: float | np.ndarray         # tube unknown
    tube_radius: float | np.ndarray
    kernel_radius: float | np.ndarray
    delta: float | np.ndarray
    gamma: float | np.ndarray       # wall permeability
    law: DiffusionLaw

    def __post_init__(self):
        """Check the geometry and compute ``coupling_factor``, |P| gamma
        f(delta), the linear coefficient of the interface term."""
        if not np.all((0.0 <= self.delta) & (self.delta < self.kernel_radius)):
            raise ValueError("require 0 <= delta < kernel radius")
        if np.any(self.tube_radius > self.kernel_radius):
            raise ValueError("require tube radius <= kernel radius")
        if np.any(np.log(self.kernel_radius / self.tube_radius) < 0.5):
            warnings.warn(
                "ln(rho/R) < 0.5: uniqueness of the interface equation is "
                "not guaranteed", stacklevel=2)
        self.coupling_factor = self.perimeter * self.gamma * kernel_profile_f(
            self.delta, self.tube_radius, self.kernel_radius)

    @property
    def perimeter(self):
        return 2.0 * np.pi * self.tube_radius

    def at(self, u_b_delta, u_e) -> ReconstructionInput:
        """The same tubes at other values of the sampled bulk and the tube:
        a copy that keeps the checked geometry and ``coupling_factor``."""
        state = copy.copy(self)
        state.u_b_delta, state.u_e = u_b_delta, u_e
        return state


def reconstruct_interface(inp: ReconstructionInput, max_iter: int = 100):
    """Solve the interface equation; returns ``(u_hat, q)``.

    ``u_hat`` satisfies ``g(u_hat) = T(u_b_delta) - T(u_hat) - |P| gamma
    f(delta) (u_hat - u_e) = 0`` and ``q = -|P| gamma (u_hat - u_e)`` is the
    source per unit tube length. As ``g' = -(D(u_hat) + |P| gamma f) < 0``,
    the root lies between ``u_e`` and ``u_b_delta``: Newton runs in that
    bracket, padded, and bisects when an iterate leaves it or stalls. A cell
    is done once its step or its bracket is at most ``_TOL * max(1, |u_e|,
    |u_b_delta|)``; :class:`ReconstructionError` is raised for non-finite
    inputs or after ``max_iter`` iterations.
    """
    law = inp.law
    u_b = np.asarray(inp.u_b_delta, float)
    u_e = np.asarray(inp.u_e, float)
    if not (np.all(np.isfinite(u_b)) and np.all(np.isfinite(u_e))):
        raise ReconstructionError(
            f"non-finite input to the interface equation: {inp!r}")
    pf = inp.coupling_factor
    psi_delta = law.transform(u_b)

    scale = np.maximum(1.0, np.maximum(np.abs(u_e), np.abs(u_b)))
    lo = np.minimum(u_e, u_b)
    hi = np.maximum(u_e, u_b)
    pad = 0.1 * np.maximum(hi - lo, 1e-12 * scale)
    lo, hi = lo - pad, hi + pad

    # the root of the equation linearized at u_b_delta, exact for D = const
    d_b = law.eval(u_b)
    u = np.clip((d_b * u_b + pf * u_e) / (d_b + pf), lo, hi)
    step = hi - lo
    active = np.ones(u.shape, bool)
    for _ in range(max_iter):
        g = psi_delta - law.transform(u) - pf * (u - u_e)
        lo = np.where(g > 0.0, u, lo)
        hi = np.where(g > 0.0, hi, u)
        newton = g / (law.eval(u) + pf)
        converged = np.abs(newton) <= _TOL * scale
        # bisect where Newton leaves the bracket or gains less than a
        # bisection would, as in a cycle on a law with non-monotone D
        take = converged | ((lo <= u + newton) & (u + newton <= hi)
                            & (np.abs(newton) <= 0.5 * np.abs(step)))
        step = np.where(take, newton, 0.5 * (lo + hi) - u)
        u = np.where(active, u + step, u)
        # a bracket narrower than the tolerance ends a cell whose Newton
        # step is held above it by rounding in g
        active &= ~(converged | (hi - lo <= _TOL * scale))
        if not np.any(active):
            break
    else:
        raise ReconstructionError(
            f"interface equation not solved in {max_iter} iterations; "
            f"inputs: {inp!r}")
    q = -inp.perimeter * inp.gamma * (u - u_e)
    return _scalar_or_array(u), _scalar_or_array(q)


def interface_derivatives(inp: ReconstructionInput, u_hat):
    """Partial derivatives (du_hat/du_b_delta, du_hat/du_e) at the root.

    Obtained from the implicit function theorem on the interface equation;
    both denominators share ``D(u_hat) + |P| gamma f(delta) > 0``.
    """
    pf = inp.coupling_factor
    denom = inp.law.eval(u_hat) + pf
    d_delta = inp.law.eval(inp.u_b_delta)
    return _scalar_or_array(d_delta / denom), _scalar_or_array(pf / denom)

