"""Tanh-sinh (double exponential) quadrature.

One fixed rule, applied per interval and summed along a node array
(``tanh_sinh_piecewise_cumulative``), builds the Kirchhoff table of the one
law without a closed-form antiderivative, Van Genuchten-Mualem. The rule
clusters its nodes exponentially towards the interval's ends, so an
integrand with an infinite derivative at an end, as Van Genuchten's D has
at saturation, costs it no accuracy.
"""

from __future__ import annotations

import numpy as np

# sinh(t) overflows cosh(pi/2*sinh t) far earlier than float range;
# beyond ~6.1 the weights underflow to zero anyway.
_T_MAX = 6.1

#: the rule's spacing in t: 97 nodes per interval
_H = 0.125

#: intervals evaluated at once by ``tanh_sinh_piecewise_cumulative``; at
#: 97 nodes per interval one chunk holds 25 k points, 0.2 MB per
#: temporary, whatever the node count. Temporaries this small are reused
#: from the allocator's heap; 3 MB ones (4096 intervals) were mapped and
#: zero-filled afresh for every array unless an earlier large allocation
#: had raised the allocator's mapping threshold, which made a pass over
#: 2e5 intervals 1.1-1.7 times slower
_CHUNK_INTERVALS = 256


def _nodes_weights(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on [-1, 1] with spacing h."""
    n = int(np.floor(_T_MAX / h))
    t = h * np.arange(-n, n + 1)
    v = 0.5 * np.pi * np.sinh(t)
    return np.tanh(v), h * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2


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
    x, w = _nodes_weights(_H)
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
