"""Piecewise cumulative quadrature: tanh-sinh and Gauss-Legendre panels.

One chunked pass (``piecewise_cumulative``) applies a fixed rule on [-1, 1]
per interval of a node array and sums along it. It builds the Kirchhoff
table of the one law without a closed-form antiderivative, Van
Genuchten-Mualem, with two rules:

- Gauss-Legendre, ``_GAUSS_POINTS`` nodes, on every interval where the
  integrand is smooth: all but the few next to saturation.
- Tanh-sinh (double exponential, ``tanh_sinh_piecewise_cumulative``) on
  those. The rule clusters its nodes exponentially towards the interval's
  ends, so an integrand with an infinite derivative at an end, as Van
  Genuchten's D has at saturation, costs it no accuracy. Its 51 nodes lie
  strictly inside the interval: it never evaluates the integrand at an end.
"""

from __future__ import annotations

import numpy as np

#: the tanh-sinh rule's spacing in t
_H = 0.125

#: the largest |t| of the tanh-sinh rule's nodes: at t = 6.1
#: cosh(pi/2 sinh t) still fits a float, and the weights have long
#: underflowed
_T_MAX = 6.1

#: nodes of the Gauss-Legendre rule, exact for polynomials of degree 11
_GAUSS_POINTS = 6

#: integrand values evaluated at once by ``piecewise_cumulative``: 0.1 MB
#: per temporary, whatever the rule (256 intervals of the tanh-sinh rule).
#: Temporaries this small are reused from the allocator's heap; 3 MB ones
#: (4096 tanh-sinh intervals) were mapped and zero-filled afresh for every
#: array unless an earlier large allocation had raised the allocator's
#: mapping threshold, which made a pass over 2e5 intervals 1.1-1.7 times
#: slower
_CHUNK_POINTS = 256 * 51


def _nodes_weights() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on [-1, 1], spacing ``_H``.

    Of the 97 nodes up to ``_T_MAX``, the 46 with |t| > 3.125 round to
    exactly -1 or 1, and their weights sum to 2.8e-17 of the rule's; they
    are dropped, which leaves 51 nodes strictly inside the interval.
    """
    n = int(np.floor(_T_MAX / _H))
    t = _H * np.arange(-n, n + 1)
    v = 0.5 * np.pi * np.sinh(t)
    x, w = np.tanh(v), _H * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2
    inside = np.abs(x) < 1.0
    return x[inside], w[inside]


def gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_GAUSS_POINTS``-node Gauss-Legendre rule
    on [-1, 1]."""
    return np.polynomial.legendre.leggauss(_GAUSS_POINTS)


def piecewise_cumulative(f, nodes: np.ndarray, rule) -> np.ndarray:
    """Cumulative integral of ``f`` from ``nodes[0]`` along a node array.

    Applies the rule ``(x, w)`` on [-1, 1] per interval, vectorized over
    chunks of ``_CHUNK_POINTS`` integrand values, so the temporaries stay
    small for dense tables. Intended for building dense lookup tables
    where the per-interval integrand is smooth, or, with the tanh-sinh
    rule, has an infinite derivative at an interval's end.

    Returns an array ``F`` with ``F[0] = 0`` and
    ``F[i] = integral from nodes[0] to nodes[i]``.
    """
    nodes = np.asarray(nodes, float)
    x, w = rule
    per_interval = np.empty(nodes.size - 1, float)
    step = max(1, _CHUNK_POINTS // x.size)
    for start in range(0, per_interval.size, step):
        stop = min(start + step, per_interval.size)
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


def tanh_sinh_piecewise_cumulative(f, nodes: np.ndarray) -> np.ndarray:
    """``piecewise_cumulative`` with the tanh-sinh rule."""
    return piecewise_cumulative(f, nodes, _nodes_weights())
