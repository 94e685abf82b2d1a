"""Nonlinear bulk diffusion coefficients and their Kirchhoff transforms.

Each law provides the coefficient ``D(u)``, the Kirchhoff transform
``T(u) = integral_0^u D``, and its inverse. ``T`` is strictly increasing
because every law is floored at a positive ``d_min``, so the inverse is
globally defined. Constant and regularized-exponential laws have closed
forms; the Van Genuchten-Mualem and tabulated laws integrate numerically
(tanh-sinh) unless a lookup table is attached.

A law declares its constant-D tails (``_tails``): the kinks beyond which D
is constant and the constant values there. Outside the kinks T is affine,
so a ``TransformTable`` holds nodes only where D varies, padded by one node
beyond each kink, and extrapolates affinely with the tail slopes: a tabled
transform and its inverse are one ``np.interp`` plus the tail terms, exact
(to the table's interpolation error) on all reals.
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

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self.u[0]), float(self.u[-1])

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

    def _tails(self) -> tuple[tuple[float, float] | None,
                              tuple[float, float] | None]:
        """Constant-D tails ``(lower, upper)``, each ``(kink, D)`` or None.

        ``lower = (a, d)`` declares D = d for u <= a, ``upper = (b, d)``
        declares D = d for u >= b.
        """
        return None, None

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
            return self.table.psi_of_u(u)
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
            return self.table.u_of_psi(psi)
        if psi.ndim == 0:
            return self._inverse_scalar(float(psi))
        return np.array([self._inverse_scalar(v) for v in psi.ravel()]
                        ).reshape(psi.shape)

    # -- lookup table ------------------------------------------------------

    def build_table(self, u_lo: float, u_hi: float,
                    samples: int = 100_000) -> TransformTable:
        """Sample the transform on the grid ``linspace(u_lo, u_hi, samples)``.

        Only the part of that grid where D varies is kept: the nodes
        between the tail kinks, one node beyond each kink and the kinks
        themselves. A range that stops short of a kink is extended to it
        at the same spacing, so the table is exact beyond its ends. One
        cumulative quadrature pass over the probe grid
        ``linspace(u_lo, u_hi, 2 * samples - 1)``, trimmed alike, gives the
        node values (every other probe point) and the round-trip error
        (all of them).

        Raises ``ValueError`` for a law without constant-D tails on both
        sides, and ``RuntimeError`` when the round-trip error exceeds
        ``1e-6 * (u_hi - u_lo)``.
        """
        if not (u_lo < u_hi and samples >= 2):
            raise ValueError("need u_lo < u_hi and samples >= 2")
        lower, upper = self._tails()
        if lower is None or upper is None:
            raise ValueError(f"{type(self).__name__} declares no constant-D "
                             "tails on both sides; a table needs them")
        (a, d_lo), (b, d_hi) = lower, upper
        # the probe lattice of np.linspace, from the last even (node) index
        # at or below a to the first at or above b
        n = 2 * samples - 2
        h = (u_hi - u_lo) / n
        i_lo = 2 * int(np.floor((a - u_lo) / (2.0 * h))) - 2
        i_hi = 2 * int(np.ceil((b - u_lo) / (2.0 * h))) + 2
        if (i_hi - i_lo) // 2 > 10 * samples:
            raise ValueError(f"a table from {u_lo} to {u_hi} at this spacing "
                             f"needs {(i_hi - i_lo) // 2} nodes to reach the "
                             f"kinks {a} and {b}; use fewer samples")
        i = np.arange(i_lo, i_hi + 1)
        probe = i * h + u_lo
        probe[i == n] = u_hi
        node = i % 2 == 0
        probe = probe[np.flatnonzero(node & (probe <= a))[-1]:
                      np.flatnonzero(node & (probe >= b))[0] + 1]
        # T at the anchor c is exact: 0 inside [a, b], affine on a tail
        c = min(max(0.0, a), b)
        psi_c = d_lo * max(a, 0.0) + d_hi * min(b, 0.0)
        kinks = np.array([a, b, c] + [k for k in self._breakpoints()
                                      if a < k < b])
        u = np.unique(np.concatenate([probe[::2], kinks]))
        points = np.unique(np.concatenate([probe, kinks]))
        cum = tanh_sinh_piecewise_cumulative(self.eval, points)
        psi_points = psi_c + (cum - cum[np.searchsorted(points, c)])
        psi = psi_points[np.searchsorted(points, u)]
        if np.any(np.diff(psi) <= 0.0):
            raise RuntimeError("sampled transform is not strictly increasing")
        table = TransformTable(u, psi, d_lo, d_hi, roundtrip_error=0.0)
        err = float(np.max(np.abs(table.u_of_psi(psi_points) - points)))
        if err > 1e-6 * (u_hi - u_lo):
            raise RuntimeError(
                f"Kirchhoff table round trip error {err:.3e} exceeds 1e-6 "
                f"of the range [{u_lo}, {u_hi}]; use more samples")
        return TransformTable(u, psi, d_lo, d_hi, roundtrip_error=err)

    def attach_table(self, u_lo: float, u_hi: float,
                     samples: int = 100_000) -> TransformTable:
        """Build a table and use it for every (inverse) transform."""
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
        self.psi_c = self.transform(np.float64(self.u_c))

    def _exp(self, u):
        return np.exp(self.k * (np.asarray(u, float) - 1.0))

    def eval(self, u):
        return np.maximum(self.d0 * self._exp(u), self.d_min)

    def deriv(self, u, eps: float = 1e-6):
        u = np.asarray(u, float)
        return np.where(u > self.u_c, self.k * self.d0 * self._exp(u), 0.0)

    def _breakpoints(self):
        return (self.u_c,)

    def _tails(self):
        return (self.u_c, self.d_min), None

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

    def _tails(self):
        # k_r = 1 for p >= 0; below the floor pressure D is held at d_min
        lower = ((self._u_floor, self.d_min) if np.isfinite(self._u_floor)
                 else None)
        return lower, (0.0, self.d_sat)


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

    def _tails(self):
        return ((self.u_samples[0], self.d_samples[0]),
                (self.u_samples[-1], self.d_samples[-1]))
