"""Tanh-sinh (double exponential) quadrature.

One fixed rule, applied per interval and summed along a node array
(``tanh_sinh_piecewise_cumulative``), builds the Kirchhoff table of the one
law without a closed-form antiderivative, Van Genuchten-Mualem. The rule
clusters its nodes exponentially towards the interval's ends, so an
integrand with an infinite derivative at an end, as Van Genuchten's D has
at saturation, costs it no accuracy. Its 51 nodes lie strictly inside the
interval: it never evaluates the integrand at an end.
"""

from __future__ import annotations

import numpy as np

#: the rule's spacing in t
_H = 0.125

#: the largest |t| of the rule's nodes: at t = 6.1 cosh(pi/2 sinh t)
#: still fits a float, and the weights have long underflowed
_T_MAX = 6.1

#: intervals evaluated at once by ``tanh_sinh_piecewise_cumulative``; at
#: 51 nodes per interval one chunk holds 13 k points, 0.1 MB per
#: temporary, whatever the node count. Temporaries this small are reused
#: from the allocator's heap; 3 MB ones (4096 intervals) were mapped and
#: zero-filled afresh for every array unless an earlier large allocation
#: had raised the allocator's mapping threshold, which made a pass over
#: 2e5 intervals 1.1-1.7 times slower
_CHUNK_INTERVALS = 256


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


def tanh_sinh_piecewise_cumulative(f, nodes: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``f`` from ``nodes[0]`` along a node array.

    Applies one fixed tanh-sinh rule per interval, vectorized over chunks
    of ``_CHUNK_INTERVALS`` intervals so the temporaries stay small for
    dense tables. Intended for building dense lookup tables where the
    per-interval integrand is smooth.

    Returns an array ``F`` with ``F[0] = 0`` and
    ``F[i] = integral from nodes[0] to nodes[i]``.
    """
    nodes = np.asarray(nodes, float)
    x, w = _nodes_weights()
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
