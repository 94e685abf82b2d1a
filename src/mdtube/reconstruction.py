"""Reconstruction of the tube-bulk interface unknown and coupling source.

Given the regularized bulk value in the Kirchhoff variable psi, sampled at
distance ``delta`` from a tube centerline, the interface value is the root
of a scalar nonlinear equation built from the Kirchhoff transform and the
radial kernel profile. The coupling source and its derivatives with respect
to the sampled psi and the tube value then follow from the wall
transmissibility. Inputs may be arrays over segment cells, solved
together; scalars return floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .laws import DiffusionLaw


#: a cell's interface equation is solved once its Newton step or its
#: bracket is at most this many times ``max(1, |u_e|, |T^-1(psi_bar)|)``
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
class Interface:
    """The tube-wall geometry of the interface equation: floats for one
    segment cell, or arrays with one entry per segment cell."""

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
        profile = kernel_profile_f(self.delta, self.tube_radius,
                                   self.kernel_radius)
        if np.any(np.log(self.kernel_radius / self.tube_radius) < 0.5):
            warnings.warn(
                "ln(rho/R) < 0.5: uniqueness of the interface equation is "
                "not guaranteed", stacklevel=2)
        self.perimeter = 2.0 * np.pi * self.tube_radius
        self.coupling_factor = self.perimeter * self.gamma * profile


def reconstruct_interface(interface: Interface, psi_bar, u_e,
                          max_iter: int = 100):
    """Solve the interface equation at the sampled bulk value ``psi_bar``
    (in psi) and the tube value ``u_e``; returns ``(u_hat, q, dq_dpsi,
    dq_due)``.

    ``u_hat`` satisfies ``g(u_hat) = psi_bar - T(u_hat) - |P| gamma
    f(delta) (u_hat - u_e) = 0`` and ``q = -|P| gamma (u_hat - u_e)`` is the
    source per unit tube length. As ``g' = -(T'(u_hat) + |P| gamma f) < 0``,
    the root lies between ``u_e`` and ``u_bar = T^-1(psi_bar)``: Newton runs
    in that bracket, padded, and bisects when an iterate leaves it or
    stalls. A cell is done once its step or its bracket is at most ``_TOL *
    max(1, |u_e|, |u_bar|)``; :class:`ReconstructionError` is raised for
    non-finite inputs or after ``max_iter`` iterations.

    The derivatives of q come from the implicit function theorem on g:
    ``dq/dpsi_bar = -|P| gamma / (T'(u_hat) + |P| gamma f)`` and ``dq/du_e
    = |P| gamma T'(u_hat) / (T'(u_hat) + |P| gamma f)``. The slope T' is
    the one ``law.transform_and_slope`` returns with T: D for a closed
    form, and for a tabled transform the slope of the table's piece at
    u_hat, so that a and b are the exact derivatives of the equation that
    is solved; Newton steps take the same slope.
    """
    law = interface.law
    psi_bar = np.asarray(psi_bar, float)
    u_e = np.asarray(u_e, float)
    u_bar = law.inverse_transform(psi_bar)
    if not (np.all(np.isfinite(psi_bar)) and np.all(np.isfinite(u_bar))
            and np.all(np.isfinite(u_e))):
        raise ReconstructionError(
            "non-finite input to the interface equation: "
            f"psi_bar={psi_bar!r}, u_e={u_e!r}")
    pf = interface.coupling_factor

    scale = np.maximum(1.0, np.maximum(np.abs(u_e), np.abs(u_bar)))
    lo = np.minimum(u_e, u_bar)
    hi = np.maximum(u_e, u_bar)
    pad = 0.1 * np.maximum(hi - lo, 1e-12 * scale)
    lo, hi = lo - pad, hi + pad

    # the root of the equation linearized at u_bar, exact for D = const
    d_bar = law.transform_and_slope(u_bar)[1]
    u = np.clip((d_bar * u_bar + pf * u_e) / (d_bar + pf), lo, hi)
    step = hi - lo
    tol = _TOL * scale
    active = np.ones(u.shape, bool)
    for _ in range(max_iter):
        t, d = law.transform_and_slope(u)
        g = psi_bar - t - pf * (u - u_e)
        rising = g > 0.0
        lo = np.where(rising, u, lo)
        hi = np.where(rising, hi, u)
        newton = g / (d + pf)
        target, size = u + newton, np.abs(newton)
        converged = size <= tol
        # bisect where Newton leaves the bracket or gains less than a
        # bisection would, as in a cycle on a law with non-monotone D
        take = converged | ((lo <= target) & (target <= hi)
                            & (size <= 0.5 * np.abs(step)))
        step = np.where(take, newton, 0.5 * (lo + hi) - u)
        u = np.where(active, u + step, u)
        # a bracket narrower than the tolerance ends a cell whose Newton
        # step is held above it by rounding in g
        active &= ~(converged | (hi - lo <= tol))
        if not np.any(active):
            break
    else:
        raise ReconstructionError(
            f"interface equation not solved in {max_iter} iterations; "
            f"inputs: psi_bar={psi_bar!r}, u_e={u_e!r}")
    pg = interface.perimeter * interface.gamma
    d_hat = law.transform_and_slope(u)[1]
    denom = d_hat + pf
    return tuple(_scalar_or_array(x) for x in
                 (u, -pg * (u - u_e), -pg / denom, pg * d_hat / denom))
