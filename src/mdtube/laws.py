"""Nonlinear bulk diffusion coefficients and their Kirchhoff transforms.

Each law provides the coefficient ``D(u)``, the Kirchhoff transform
``T(u) = integral_0^u D``, and its inverse. ``T`` is strictly increasing
because every law is floored at a positive ``d_min``, so the inverse is
globally defined. Each law has one transform path. The constant,
regularized-exponential and tabulated (piecewise-linear D) laws have
closed forms. The Van Genuchten-Mualem law has none: it builds a
``TransformTable`` at construction, by cumulative quadrature
(``quadrature``) over evenly spaced nodes: Gauss-Legendre on every panel
up to one node spacing below saturation, and tanh-sinh on the four panels
of half a spacing from there to one spacing above it, which meet the
infinite derivative of D at saturation or come within half a panel of it.

D is constant below the Van Genuchten floor kink and above saturation, so
T is affine there. The table's nodes run from the floor kink to 0, both
kinks among them, padded by one node beyond each, and it extrapolates
affinely with the tail slopes: a tabled transform and its inverse are one
``np.interp`` plus the tail terms, exact (to the table's interpolation
error) on all reals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (gauss_legendre_rule, piecewise_cumulative,
                         tanh_sinh_piecewise_cumulative)

#: the largest spacing of the Van Genuchten table's nodes, in Pa: 7,171
#: nodes for the loam of the root scenario, whose floor kink is -72,389 Pa
_TABLE_SPACING = 10.1

#: the width, in Pa, of the bracket whose midpoint is the floor kink
_FLOOR_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TransformTable:
    """Monotone samples of the Kirchhoff transform, with affine tails.

    ``u`` and ``psi`` are strictly increasing arrays of equal length. Their
    ends lie on the law's constant-D tails, where T is affine with slopes
    ``d_lo`` (below ``u[0]``) and ``d_hi`` (above ``u[-1]``); lookups
    interpolate linearly between nodes and extrapolate along the tails.
    ``roundtrip_error`` is the max abs error of ``u -> psi -> u`` over the
    probe grid (twice as fine as the nodes) the table was built from.
    """

    u: np.ndarray
    psi: np.ndarray
    d_lo: float
    d_hi: float
    roundtrip_error: float

    def __post_init__(self):
        if not (np.all(np.diff(self.u) > 0) and np.all(np.diff(self.psi) > 0)):
            raise ValueError("transform table must be strictly increasing")

    def psi_of_u(self, u):
        # np.interp holds the end values outside the nodes; add the tails
        return (np.interp(u, self.u, self.psi)
                + self.d_lo * np.minimum(u - self.u[0], 0.0)
                + self.d_hi * np.maximum(u - self.u[-1], 0.0))

    def u_of_psi(self, psi):
        return (np.interp(psi, self.psi, self.u)
                + np.minimum(psi - self.psi[0], 0.0) / self.d_lo
                + np.maximum(psi - self.psi[-1], 0.0) / self.d_hi)

    def covers_u(self, u) -> np.ndarray:
        """True where the table is exact: every finite ``u``."""
        return np.isfinite(u)

    def covers_psi(self, psi) -> np.ndarray:
        """True where the table is exact: every finite ``psi``."""
        return np.isfinite(psi)


class DiffusionLaw:
    """Base class; subclasses set ``d_min`` and implement ``eval``. A law
    with a closed-form transform overrides ``transform`` and
    ``inverse_transform``; a law without one sets ``table`` at
    construction, and these look it up."""

    d_min: float = 0.0
    #: the tabled transform of a law without a closed form, else None
    table: TransformTable | None = None

    def eval(self, u):
        raise NotImplementedError

    def transform(self, u):
        return self.table.psi_of_u(np.asarray(u, float))

    def inverse_transform(self, psi):
        return self.table.u_of_psi(np.asarray(psi, float))


@dataclass
class ConstantLaw(DiffusionLaw):
    """D(u) = d0."""

    d0: float

    def __post_init__(self):
        if self.d0 <= 0.0:
            raise ValueError("d0 must be positive")
        self.d_min = self.d0

    def eval(self, u):
        return np.full_like(np.asarray(u, float), self.d0)

    def transform(self, u):
        return self.d0 * np.asarray(u, float)

    def inverse_transform(self, psi):
        return np.asarray(psi, float) / self.d0


@dataclass
class ExponentialLaw(DiffusionLaw):
    """D(u) = max(d0 * exp(k (u - 1)), d_min), with closed-form transform.

    The floor makes the transform affine below the kink
    u_c = 1 + ln(d_min / d0) / k, keeping the inverse defined on all reals.
    """

    d0: float
    k: float
    d_min: float = 1e-6

    def __post_init__(self):
        if not (self.d0 > 0.0 and self.k > 0.0 and 0.0 < self.d_min < self.d0):
            raise ValueError("require d0 > 0, k > 0, 0 < d_min < d0")
        self.u_c = 1.0 + np.log(self.d_min / self.d0) / self.k
        self.psi_c = self.transform(np.float64(self.u_c))

    def _exp(self, u):
        return np.exp(self.k * (np.asarray(u, float) - 1.0))

    def eval(self, u):
        return np.maximum(self.d0 * self._exp(u), self.d_min)

    def transform(self, u):
        u = np.asarray(u, float)
        d0, k, uc = self.d0, self.k, self.u_c
        if uc <= 0.0:
            upper = d0 / k * (self._exp(u) - self._exp(0.0))
            lower = self.d_min * (u - uc) + d0 / k * (self._exp(uc)
                                                      - self._exp(0.0))
        else:
            upper = (d0 / k * (self._exp(u) - self._exp(uc))
                     + self.d_min * uc)
            lower = self.d_min * u
        out = np.where(u > uc, upper, lower)
        return float(out) if out.ndim == 0 else out

    def inverse_transform(self, psi):
        psi = np.asarray(psi, float)
        d0, k, uc = self.d0, self.k, self.u_c
        if uc <= 0.0:
            lower = (psi - d0 / k * (self._exp(uc) - self._exp(0.0))
                     ) / self.d_min + uc
            arg = np.maximum(k / d0 * psi + self._exp(0.0), 1e-300)
        else:
            lower = psi / self.d_min
            arg = np.maximum(k / d0 * (psi - self.d_min * uc)
                             + self._exp(uc), 1e-300)
        upper = 1.0 + np.log(arg) / k
        out = np.where(psi > self.psi_c, upper, lower)
        return float(out) if out.ndim == 0 else out


@dataclass
class VanGenuchtenLaw(DiffusionLaw):
    """Van Genuchten-Mualem conductivity as a diffusion coefficient.

    D(p) = K / mu * max(k_r(p), eps) with
    k_r(S_e) = S_e^lam * (1 - (1 - S_e^(1/m))^m)^2 (standard Mualem form),
    S_e(p_c) = (1 + (alpha p_c)^n)^(-m), p_c = -p.

    The unknown is the water pressure in Pa. D is d_sat = K / mu from
    saturation (p >= 0) up and d_min = eps d_sat below the floor kink,
    where k_r drops to eps; the transform is tabled between the two at
    construction (``_build_table``).
    """

    k_perm: float           # intrinsic permeability [m^2]
    mu: float = 1e-3        # viscosity [Pa s]
    theta_r: float = 0.08
    theta_s: float = 0.43
    alpha: float = 4.077e-4  # [1/Pa]
    n: float = 1.6
    lam: float = 0.5
    eps: float = 1e-6       # relative floor: d_min = eps * K / mu

    def __post_init__(self):
        for name in ("k_perm", "mu", "alpha"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"require {name} > 0, got "
                                 f"{getattr(self, name)!r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"require 0 < eps < 1, got {self.eps!r}")
        if not (0.0 < self.theta_r < self.theta_s <= 1.0):
            raise ValueError("require 0 < theta_r < theta_s <= 1")
        if self.n <= 1.0:
            raise ValueError("require n > 1")
        self.m = 1.0 - 1.0 / self.n
        self.d_sat = self.k_perm / self.mu
        self.d_min = self.eps * self.d_sat
        self._u_floor = self._find_floor_pressure()
        self.table = self._build_table()

    def effective_saturation(self, p):
        """S_e as a function of water pressure p (p <= 0 is unsaturated)."""
        pc = np.maximum(-np.asarray(p, float), 0.0)
        return (1.0 + (self.alpha * pc) ** self.n) ** (-self.m)

    def saturation_to_pressure(self, s_w: float) -> float:
        """Water pressure corresponding to a water saturation S_w."""
        theta = s_w * self.theta_s
        se = (theta - self.theta_r) / (self.theta_s - self.theta_r)
        if not 0.0 < se < 1.0:
            raise ValueError(f"saturation {s_w} outside invertible range")
        pc = (se ** (-1.0 / self.m) - 1.0) ** (1.0 / self.n) / self.alpha
        return -pc

    def relative_permeability(self, p):
        se = self.effective_saturation(p)
        inner = (1.0 - np.clip(se, 0.0, 1.0) ** (1.0 / self.m)) ** self.m
        return se ** self.lam * (1.0 - inner) ** 2

    def eval(self, u):
        return self.d_sat * np.maximum(self.relative_permeability(u), self.eps)

    def _find_floor_pressure(self) -> float:
        """Pressure below which the d_min floor is active: the root of
        k_r(p) = eps, which has one, since k_r increases with p from 0 to
        k_r(0) = 1 > eps.

        Decades [10 p_0, p_0], p_0 = -1, -10, ..., bracket the root, and a
        bisection narrows the bracket to ``_FLOOR_TOLERANCE`` (or to
        adjacent floats, far below 0) and returns its midpoint. Raises
        ``ValueError`` when k_r stays above eps down to -1e15 Pa.
        """
        above = lambda p: self.relative_permeability(p) > self.eps
        lo, hi = -1.0, 0.0
        while above(lo):
            lo, hi = 10.0 * lo, lo
            if lo < -1e15:
                raise ValueError(f"k_r stays above eps = {self.eps!r} down "
                                 "to -1e15 Pa; use a larger eps")
        while hi - lo > _FLOOR_TOLERANCE:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if above(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def _build_table(self) -> TransformTable:
        """Sample the transform between the floor kink and 0, where D varies.

        The nodes are evenly spaced, at most ``_TABLE_SPACING`` apart, with
        both kinks among them and one node beyond each, so the affine tails
        are exact beyond the table's ends (the floor kink moves with alpha,
        n, lam and eps). Cumulative quadrature over the nodes and their
        midpoints gives the node values (at the nodes) and the round-trip
        error (at all of them). D is smooth but at 0, where D' is infinite,
        so the panels up to one spacing below 0 take Gauss-Legendre and the
        four from there to one spacing above 0 take tanh-sinh. Gauss-Legendre
        on the panel from one to half a spacing below 0 too would move the
        loam's table by 2.5e-15 of its range, against 1.4e-16, from a table
        of tanh-sinh on every panel.

        Raises ``ValueError`` when the table would hold more than 1e6 nodes
        (a floor far below 0), and ``RuntimeError`` when the round-trip
        error exceeds a tenth of the spacing.
        """
        a = self._u_floor
        intervals = int(np.ceil(-a / _TABLE_SPACING))
        if intervals + 3 > 1_000_000:
            raise ValueError(f"a table from the floor kink {a} to 0 needs "
                             f"{intervals + 3} nodes at {_TABLE_SPACING} Pa "
                             "spacing, more than 1e6; a larger eps raises "
                             "the floor")
        # nodes at even indices, midpoints at odd ones: a - h, a - h/2, a,
        # ..., 0, h/2, h, with the kinks a and 0 exact
        h = -a / intervals
        points = a + 0.5 * h * np.arange(-2, 2 * intervals + 3)
        points[2], points[-3] = a, 0.0
        # Gauss-Legendre up to -h, tanh-sinh from -h to h
        cum = piecewise_cumulative(self.eval, points[:-4],
                                   gauss_legendre_rule())
        tail = tanh_sinh_piecewise_cumulative(self.eval, points[-5:])
        cum = np.append(cum, cum[-1] + tail[1:])
        psi_points = cum - cum[-3]                              # T(0) = 0
        u, psi = points[::2], psi_points[::2]
        err = float(np.max(np.abs(np.interp(psi_points, psi, u) - points)))
        if err > 0.1 * _TABLE_SPACING:
            raise RuntimeError(
                f"Kirchhoff table round trip error {err:.3e} exceeds a tenth "
                f"of the {_TABLE_SPACING} Pa spacing; use a finer spacing")
        return TransformTable(u, psi, self.d_min, self.d_sat,
                              roundtrip_error=err)


@dataclass
class TabulatedLaw(DiffusionLaw):
    """Piecewise-linear D(u) from (u, D) samples, clamped outside.

    T is piecewise quadratic, so it has a closed form. With 0 added as a
    knot, the trapezoid rule gives T exactly at the knots (T = 0 at 0);
    inside piece i, T = T_i + D_i s + slope_i s^2 / 2 with s = u - u_i;
    beyond the ends T is affine. The inverse inside a piece is the root
    ``s = 2 dpsi / (D_i + sqrt(D_i^2 + 2 slope_i dpsi))``, dpsi = psi - T_i,
    which is free of cancellation.
    """

    u_samples: np.ndarray
    d_samples: np.ndarray

    def __post_init__(self):
        self.u_samples = np.asarray(self.u_samples, float)
        self.d_samples = np.asarray(self.d_samples, float)
        if self.u_samples.ndim != 1 or self.u_samples.shape != self.d_samples.shape:
            raise ValueError("u and D samples must be 1D arrays of equal length")
        if np.any(np.diff(self.u_samples) <= 0.0):
            raise ValueError("u samples must be strictly increasing")
        if np.any(self.d_samples <= 0.0):
            raise ValueError("D samples must be positive")
        self.d_min = float(np.min(self.d_samples))
        knots = np.union1d(self.u_samples, 0.0)
        d = np.interp(knots, self.u_samples, self.d_samples)
        du = np.diff(knots)
        psi = np.concatenate([[0.0], np.cumsum(0.5 * du * (d[:-1] + d[1:]))])
        psi -= psi[np.searchsorted(knots, 0.0)]
        self._knots, self._psi_knots = knots, psi
        # piece j starts at knot j - 1; piece 0, the lower tail, is anchored
        # at the first knot, and the two tails have slope 0
        self._start = np.concatenate([knots[:1], knots])
        self._psi_start = np.concatenate([psi[:1], psi])
        self._d_start = np.concatenate([d[:1], d])
        self._slope = np.concatenate([[0.0], np.diff(d) / du, [0.0]])

    def eval(self, u):
        return np.interp(u, self.u_samples, self.d_samples)

    def transform(self, u):
        u = np.asarray(u, float)
        j = np.searchsorted(self._knots, u, side="right")
        s = u - self._start[j]
        return self._psi_start[j] + s * (self._d_start[j]
                                         + 0.5 * self._slope[j] * s)

    def inverse_transform(self, psi):
        psi = np.asarray(psi, float)
        j = np.searchsorted(self._psi_knots, psi, side="right")
        dpsi = psi - self._psi_start[j]
        d = self._d_start[j]
        return self._start[j] + 2.0 * dpsi / (
            d + np.sqrt(d * d + 2.0 * self._slope[j] * dpsi))
