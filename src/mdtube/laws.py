"""Nonlinear bulk diffusion coefficients and their Kirchhoff transforms.

Each law provides the coefficient ``D(u)``, the Kirchhoff transform
``T(u) = integral_0^u D``, and its inverse. ``T`` is strictly increasing
because every law is floored at a positive ``d_min``, so the inverse is
globally defined. Constant and regularized-exponential laws have closed
forms; the Van Genuchten-Mualem and tabulated laws integrate numerically
(tanh-sinh) and can be accelerated by a lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .quadrature import tanh_sinh, tanh_sinh_piecewise_cumulative


class TransformDomainError(ValueError):
    """Requested psi lies outside the representable range of the law."""


@dataclass(frozen=True)
class TransformTable:
    """Monotone samples of the Kirchhoff transform for fast lookup.

    ``u`` and ``psi`` are strictly increasing arrays of equal length;
    ``roundtrip_error`` is the max abs error of ``u -> psi -> u`` measured
    on a finer probe grid at construction time.
    """

    u: np.ndarray
    psi: np.ndarray
    roundtrip_error: float

    def __post_init__(self):
        if not (np.all(np.diff(self.u) > 0) and np.all(np.diff(self.psi) > 0)):
            raise ValueError("transform table must be strictly increasing")

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self.u[0]), float(self.u[-1])

    def psi_of_u(self, u):
        return np.interp(u, self.u, self.psi)

    def u_of_psi(self, psi):
        return np.interp(psi, self.psi, self.u)

    def covers_u(self, u) -> np.ndarray:
        return (u >= self.u[0]) & (u <= self.u[-1])

    def covers_psi(self, psi) -> np.ndarray:
        return (psi >= self.psi[0]) & (psi <= self.psi[-1])


class DiffusionLaw:
    """Base class; subclasses set ``d_min`` and implement ``eval``."""

    d_min: float = 0.0
    table: TransformTable | None = None

    # -- coefficient -------------------------------------------------------

    def eval(self, u):
        raise NotImplementedError

    def deriv(self, u, eps: float = 1e-6):
        """dD/du, central finite differences unless overridden."""
        u = np.asarray(u, float)
        h = eps * np.maximum(1.0, np.abs(u))
        return (self.eval(u + h) - self.eval(u - h)) / (2.0 * h)

    # -- Kirchhoff transform ----------------------------------------------

    def _breakpoints(self) -> tuple[float, ...]:
        """Interior kinks of D(u), used to split numerical integrals."""
        return ()

    def _transform_scalar(self, u: float) -> float:
        lo, hi = (u, 0.0) if u < 0.0 else (0.0, u)
        cuts = [c for c in self._breakpoints() if lo < c < hi]
        pieces = [lo] + sorted(cuts) + [hi]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += tanh_sinh(self.eval, a, b)
        return total if u >= 0.0 else -total

    def transform(self, u):
        u = np.asarray(u, float)
        if self.table is not None:
            inside = self.table.covers_u(u)
            if np.all(inside):
                return self.table.psi_of_u(u)
            out = np.array(self.table.psi_of_u(u))
            flat = np.atleast_1d(out)
            for i in np.flatnonzero(~np.atleast_1d(inside)):
                flat[i] = self._transform_scalar(float(np.atleast_1d(u)[i]))
            return out if out.ndim else float(flat[0])
        if u.ndim == 0:
            return self._transform_scalar(float(u))
        return np.array([self._transform_scalar(v) for v in u.ravel()]
                        ).reshape(u.shape)

    def _inverse_scalar(self, psi: float) -> float:
        g = lambda u: self.transform(np.float64(u)) - psi
        lo, hi, width = -1.0, 1.0, 2.0
        for _ in range(200):
            if g(lo) <= 0.0 <= g(hi):
                return brentq(g, lo, hi, xtol=1e-14, rtol=1e-15)
            width *= 2.0
            if g(lo) > 0.0:
                lo -= width
            if g(hi) < 0.0:
                hi += width
            if not (np.isfinite(lo) and np.isfinite(hi)):
                break
        raise TransformDomainError(f"cannot bracket psi={psi!r}")

    def inverse_transform(self, psi):
        psi = np.asarray(psi, float)
        if self.table is not None:
            inside = self.table.covers_psi(psi)
            if np.all(inside):
                return self.table.u_of_psi(psi)
            out = np.array(self.table.u_of_psi(psi))
            flat = np.atleast_1d(out)
            for i in np.flatnonzero(~np.atleast_1d(inside)):
                flat[i] = self._inverse_scalar(float(np.atleast_1d(psi)[i]))
            return out if out.ndim else float(flat[0])
        if psi.ndim == 0:
            return self._inverse_scalar(float(psi))
        return np.array([self._inverse_scalar(v) for v in psi.ravel()]
                        ).reshape(psi.shape)

    # -- lookup table ------------------------------------------------------

    def build_table(self, u_lo: float, u_hi: float,
                    samples: int = 100_000) -> TransformTable:
        """Sample the transform uniformly on [u_lo, u_hi].

        The round-trip error is probed on a grid twice as fine.
        """
        if not (u_lo < u_hi and samples >= 2):
            raise ValueError("need u_lo < u_hi and samples >= 2")
        u = np.linspace(u_lo, u_hi, samples)
        cuts = [c for c in self._breakpoints() if u_lo < c < u_hi]
        if cuts:
            u = np.unique(np.concatenate([u, np.asarray(cuts)]))
        psi = self._sample_transform(u)
        if np.any(np.diff(psi) <= 0.0):
            raise RuntimeError("sampled transform is not strictly increasing")
        table = TransformTable(u, psi, roundtrip_error=0.0)
        probe = np.linspace(u_lo, u_hi, 2 * samples - 1)
        err = float(np.max(np.abs(
            table.u_of_psi(self._sample_transform(probe)) - probe)))
        return TransformTable(u, psi, roundtrip_error=err)

    def _sample_transform(self, u: np.ndarray) -> np.ndarray:
        """Transform at many sorted points; piecewise quadrature by default."""
        base = self._transform_scalar(float(u[0]))
        return base + tanh_sinh_piecewise_cumulative(self.eval, u)

    def attach_table(self, u_lo: float, u_hi: float,
                     samples: int = 100_000) -> TransformTable:
        """Build a table and use it to accelerate (inverse) transforms."""
        self.table = self.build_table(u_lo, u_hi, samples)
        return self.table


@dataclass
class ConstantLaw(DiffusionLaw):
    """D(u) = d0."""

    d0: float
    table: TransformTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.d0 <= 0.0:
            raise ValueError("d0 must be positive")
        self.d_min = self.d0

    def eval(self, u):
        return np.full_like(np.asarray(u, float), self.d0)

    def deriv(self, u, eps: float = 1e-6):
        return np.zeros_like(np.asarray(u, float))

    def transform(self, u):
        return self.d0 * np.asarray(u, float)

    def inverse_transform(self, psi):
        return np.asarray(psi, float) / self.d0

    def _sample_transform(self, u):
        return self.d0 * u


@dataclass
class ExponentialLaw(DiffusionLaw):
    """D(u) = max(d0 * exp(k (u - 1)), d_min), with closed-form transform.

    The floor makes the transform affine below the kink
    u_c = 1 + ln(d_min / d0) / k, keeping the inverse defined on all reals.
    """

    d0: float
    k: float
    d_min: float = 1e-6
    table: TransformTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.d0 > 0.0 and self.k > 0.0 and 0.0 < self.d_min < self.d0):
            raise ValueError("require d0 > 0, k > 0, 0 < d_min < d0")
        self.u_c = 1.0 + np.log(self.d_min / self.d0) / self.k

    def _exp(self, u):
        return np.exp(self.k * (np.asarray(u, float) - 1.0))

    def eval(self, u):
        return np.maximum(self.d0 * self._exp(u), self.d_min)

    def deriv(self, u, eps: float = 1e-6):
        u = np.asarray(u, float)
        return np.where(u > self.u_c, self.k * self.d0 * self._exp(u), 0.0)

    def _breakpoints(self):
        return (self.u_c,)

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
        psi_c = self.transform(np.float64(uc))
        if uc <= 0.0:
            lower = (psi - d0 / k * (self._exp(uc) - self._exp(0.0))
                     ) / self.d_min + uc
            arg = np.maximum(k / d0 * psi + self._exp(0.0), 1e-300)
        else:
            lower = psi / self.d_min
            arg = np.maximum(k / d0 * (psi - self.d_min * uc)
                             + self._exp(uc), 1e-300)
        upper = 1.0 + np.log(arg) / k
        out = np.where(psi > psi_c, upper, lower)
        return float(out) if out.ndim == 0 else out

    def _sample_transform(self, u):
        return self.transform(u)


@dataclass
class VanGenuchtenLaw(DiffusionLaw):
    """Van Genuchten-Mualem conductivity as a diffusion coefficient.

    D(p) = K / mu * max(k_r(p), eps) with
    k_r(S_e) = S_e^lam * (1 - (1 - S_e^(1/m))^m)^2 (standard Mualem form),
    S_e(p_c) = (1 + (alpha p_c)^n)^(-m), p_c = -p.

    The unknown is the water pressure in Pa.
    """

    k_perm: float           # intrinsic permeability [m^2]
    mu: float = 1e-3        # viscosity [Pa s]
    theta_r: float = 0.08
    theta_s: float = 0.43
    alpha: float = 4.077e-4  # [1/Pa]
    n: float = 1.6
    lam: float = 0.5
    eps: float = 1e-6       # relative floor: d_min = eps * K / mu
    table: TransformTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 < self.theta_r < self.theta_s <= 1.0):
            raise ValueError("require 0 < theta_r < theta_s <= 1")
        if self.n <= 1.0:
            raise ValueError("require n > 1")
        self.m = 1.0 - 1.0 / self.n
        self.d_sat = self.k_perm / self.mu
        self.d_min = self.eps * self.d_sat
        self._u_floor = self._find_floor_pressure()

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
        """Pressure below which the d_min floor is active."""
        g = lambda p: self.relative_permeability(p) - self.eps
        lo = -1.0
        while g(lo) > 0.0:
            lo *= 10.0
            if lo < -1e15:
                return -np.inf
        return brentq(g, lo, lo / 10.0, xtol=1e-6)

    def _breakpoints(self):
        return (self._u_floor,) if np.isfinite(self._u_floor) else ()


@dataclass
class TabulatedLaw(DiffusionLaw):
    """Piecewise-linear D(u) from (u, D) samples, clamped outside."""

    u_samples: np.ndarray
    d_samples: np.ndarray
    table: TransformTable | None = field(default=None, repr=False)

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

    def eval(self, u):
        return np.interp(u, self.u_samples, self.d_samples)

    def _breakpoints(self):
        return tuple(self.u_samples)
