"""Tanh-sinh (double exponential) quadrature.

Used to compute Kirchhoff transforms of constitutive laws that have no
closed-form antiderivative. The rule clusters nodes exponentially towards
the interval endpoints, so integrands with steep but integrable behavior
near the endpoints converge quickly under level doubling.
"""

from __future__ import annotations

import numpy as np

# sinh(t) overflows cosh(pi/2*sinh t) far earlier than float range;
# beyond ~6.1 the weights underflow to zero anyway.
_T_MAX = 6.1

#: intervals evaluated at once by ``tanh_sinh_piecewise_cumulative``; at
#: the default level (97 nodes) one chunk holds 25 k points, 0.2 MB per
#: temporary, whatever the node count. Temporaries this small are reused
#: from the allocator's heap; 3 MB ones (4096 intervals) were mapped and
#: zero-filled afresh for every array unless an earlier large allocation
#: had raised the allocator's mapping threshold, which made a pass over
#: 2e5 intervals 1.1-1.7 times slower
_CHUNK_INTERVALS = 256


class QuadratureError(RuntimeError):
    """Raised when the quadrature does not reach the requested tolerance.

    Carries the best value and the achieved error estimate.
    """

    def __init__(self, value: float, error_estimate: float):
        super().__init__(
            f"tanh-sinh quadrature did not converge "
            f"(value={value!r}, error estimate={error_estimate:.3e})"
        )
        self.value = value
        self.error_estimate = error_estimate


def _nodes_weights(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on [-1, 1] with spacing h."""
    n = int(np.floor(_T_MAX / h))
    t = h * np.arange(-n, n + 1)
    st = np.sinh(t)
    x = np.tanh(0.5 * np.pi * st)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(0.5 * np.pi * st) ** 2
    return x, w


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12,
              max_level: int = 12) -> float:
    """Integrate ``f`` over [a, b] with level-doubled tanh-sinh quadrature.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with an ndarray of abscissae.
    a, b : float
        Integration bounds (finite).
    tol : float
        Tolerance on the difference between consecutive levels, relative
        to the level's integral of |f| (``half * sum(w |f|)``).
    max_level : int
        Maximum number of level doublings.

    Raises
    ------
    QuadratureError
        If the level-to-level difference does not drop below ``tol``.
    """
    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    prev = None
    h = 1.0
    for _ in range(max_level + 1):
        x, w = _nodes_weights(h)
        fx = np.asarray(f(mid + half * x), float)
        val = half * float(np.sum(w * fx))
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * abs(half) * float(np.sum(w * np.abs(fx))):
                return val
        prev = val
        h *= 0.5
    raise QuadratureError(prev, abs(val - prev) if prev is not None else np.inf)


def tanh_sinh_piecewise_cumulative(f, nodes: np.ndarray,
                                   level: int = 3) -> np.ndarray:
    """Cumulative integral of ``f`` from ``nodes[0]`` along a node array.

    Applies one fixed tanh-sinh rule per interval, vectorized over chunks
    of ``_CHUNK_INTERVALS`` intervals so the temporaries stay small for
    dense tables. Intended for building dense lookup tables where the
    per-interval integrand is smooth.

    Returns an array ``F`` with ``F[0] = 0`` and
    ``F[i] = integral from nodes[0] to nodes[i]``.
    """
    nodes = np.asarray(nodes, float)
    x, w = _nodes_weights(2.0 ** (-level))
    per_interval = np.empty(nodes.size - 1, float)
    for start in range(0, per_interval.size, _CHUNK_INTERVALS):
        stop = min(start + _CHUNK_INTERVALS, per_interval.size)
        lo = nodes[start:stop]
        hi = nodes[start + 1:stop + 1]
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        # (intervals, points) evaluation grid
        pts = mid[:, None] + half[:, None] * x[None, :]
        vals = np.asarray(f(pts.ravel()), float).reshape(pts.shape)
        per_interval[start:stop] = half * (vals @ w)
    out = np.empty(nodes.shape, float)
    out[0] = 0.0
    np.cumsum(per_interval, out=out[1:])
    return out
