"""Kernel weights and sampling stencils tying segment cells to bulk cells.

``build_coupling`` builds the coupling of all segment cells of a grid in
one pass. It lists the candidate boxes of every cell, the grid cells that
meet its support's bounding box, one cell after another and each with
its owner, and integrates the uniform kernel over them from the geometry
of the support:

- In 2D the support is a disc. Its overlap with a cell is the
  closed-form area of a disc and a rectangle, for all boxes at once.
- In 3D the support is a finite cylinder. One parallel to a grid axis
  gives a disc area times an axial overlap, for all such boxes at once.
- An oblique cylinder is integrated along rays, one segment cell at a
  time, over those of its boxes that pass the near test (made for all
  boxes at once): closer to the segment than the kernel radius plus
  half their diagonal. The boxes go ``_BOX_CHUNK`` (64) at a time. In
  the cylinder's frame the axial chord through a box is piecewise linear
  along every radial ray, so the radial integral is exact, and a fixed
  periodic trapezoid rule integrates over the angle. Most breakpoints of
  the chord fall outside the support and leave pieces of zero width; the
  chord is evaluated only on the others, about an eighth of them.

The reconstruction samples the bulk field through a stencil: all cells
whose closure contains the segment-cell midpoint, averaged with equal
weights so midpoints on faces or corners are treated symmetrically. The
mean minimum distance of a stencil cell to its segment provides the
optional delta correction. It is computed for the stencil cells of all
segment cells together, ``_DISTANCE_CHUNK`` (16) cells of 512 sample
points at a time, so that no temporary holds more than 192 KiB.

Each value is computed from its own segment cell's data alone, by
elementwise operations or by sums of a fixed layout per cell. So a
cell's coupling is the same, to the bit, whichever cells share the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BulkGrid, index_boxes
from .network import SegmentCell


class CouplingError(RuntimeError):
    pass


def point_segment_distance(points: np.ndarray, p0: np.ndarray,
                           p1: np.ndarray) -> np.ndarray:
    """Distance from points (..., d) to the segments p0-p1 (..., d), the
    three broadcast against each other; a degenerate segment is a point."""
    points = np.atleast_2d(np.asarray(points, float))
    p0 = np.asarray(p0, float)
    axis = np.asarray(p1, float) - p0
    l2 = np.sum(axis * axis, axis=-1, keepdims=True)
    t = np.sum((points - p0) * axis, axis=-1, keepdims=True)
    np.divide(t, l2, out=t, where=l2 > 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    return np.linalg.norm(points - (p0 + t * axis), axis=-1)


def _disc_primitive(x, rho):
    """Integral of sqrt(rho^2 - s^2) over s in [0, x], for 0 <= x <= rho;
    elementwise, as are the two functions below."""
    return 0.5 * (x * np.sqrt(np.maximum(rho * rho - x * x, 0.0))
                  + rho * rho * np.arcsin(np.minimum(x / rho, 1.0)))


def _cap_integral(a0, a1, b, rho):
    """Integral of max(0, sqrt(rho^2 - x^2) - b) over x in [a0, a1].

    Requires 0 <= a0 <= a1 and b >= 0: the integrand is positive on
    x < sqrt(rho^2 - b^2), where it integrates through ``_disc_primitive``.
    """
    c = np.sqrt(np.maximum(rho * rho - b * b, 0.0))
    u0 = np.minimum(a0, c)
    u1 = np.minimum(a1, c)
    return (_disc_primitive(u1, rho) - _disc_primitive(u0, rho)
            - b * (u1 - u0))


def _disc_rect_area(x0, x1, y0, y1, rho):
    """Area of the disc of radius rho at the origin inside [x0,x1]x[y0,y1].

    Each quadrant's part of the rectangle is mirrored into the first
    quadrant, [a0,a1]x[b0,b1] with a0, b0 >= 0, where the overlap is the
    integral of clip(sqrt(rho^2 - x^2), b0, b1) - b0 over [a0, a1]. Working
    per quadrant keeps every term of the size of the result.
    """
    area = 0.0
    for a0, a1 in ((np.maximum(x0, 0.0), np.maximum(x1, 0.0)),
                   (np.maximum(-x1, 0.0), np.maximum(-x0, 0.0))):
        for b0, b1 in ((np.maximum(y0, 0.0), np.maximum(y1, 0.0)),
                       (np.maximum(-y1, 0.0), np.maximum(-y0, 0.0))):
            area = (area + _cap_integral(a0, a1, b0, rho)
                    - _cap_integral(a0, a1, b1, rho))
    return area


#: angles of the periodic trapezoid rule over a cylinder's cross-section
_N_ANGLES = 128
#: candidate boxes integrated at once. Per box and angle the ray holds 26
#: breakpoints and 50 Gauss-node terms (1.7 and 3.3 MB at 64 boxes). The
#: chord is evaluated on the pieces of positive width alone, about an
#: eighth of the 25 per ray: its ~10 temporaries hold two floats per such
#: piece (about 0.4 MB each at 64 boxes)
_BOX_CHUNK = 64
#: two-point Gauss nodes at mid +- half / sqrt(3) of each piece
_GAUSS_NODE = 1.0 / np.sqrt(3.0)
#: the six pairs of the four lines (three axes and the caps) in a ray's
#: (r, z) plane, whose crossings are the breakpoints of the chord
_LINE_PAIRS = np.triu_indices(4, 1)
#: a smaller share of the support is the rounding residue of a cell that
#: the support only touches (a shared face computed twice, say)
_NEGLIGIBLE_SHARE = 1e-12


def _ray_volumes(lo: np.ndarray, hi: np.ndarray, e: np.ndarray,
                 d: np.ndarray, length: float, rho: float) -> np.ndarray:
    """Volumes of boxes inside the cylinder r <= rho, 0 <= z <= length.

    ``lo``/``hi`` (m, 3) are relative to the cylinder's start point, ``e``
    is its unit axis and ``d`` (angles, 3) the unit radial directions. On
    the ray at angle theta and radius r the box holds the axial chord
    {z in [0, length]: lo <= r d + z e <= hi}. In the (r, z) plane every
    face of the box and each cap is a line d_a r + e_a z = c, so the chord
    is piecewise linear in r with breakpoints where two such lines cross;
    two-point Gauss per piece integrates chord(r) r dr exactly. Most of
    the 24 crossings fall outside [0, rho] and are clipped onto its ends,
    so the chord is evaluated only on the pieces of positive width.
    """
    m = len(lo)
    n_angles = len(d)
    # lines d_g r + e_g z = c: the two faces of each axis, then the caps
    line_d = np.concatenate([d, np.zeros((n_angles, 1))], axis=1)
    line_e = np.append(e, 1.0)
    line_c = np.stack([np.concatenate([lo, np.zeros((m, 1))], axis=1),
                       np.concatenate([hi, np.full((m, 1), length)],
                                      axis=1)], axis=-1)     # (m, 4, 2)
    g, h = _LINE_PAIRS
    det = line_d[:, g] * line_e[h] - line_d[:, h] * line_e[g]   # (angles, 6)
    num = (line_c[:, g, :, None] * line_e[h, None, None]
           - line_c[:, h, None, :] * line_e[g, None, None])     # (m, 6, 2, 2)
    r = np.empty((m, n_angles, 2 + num[0].size))
    r[..., 0] = 0.0
    r[..., 1] = rho
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num.reshape(m, 1, -1), np.repeat(det, 4, axis=1),
                  out=r[..., 2:])
    # parallel lines never cross: fmax and fmin put a non-finite crossing
    # on 0 or rho, where it adds no piece
    np.fmin(np.fmax(r, 0.0, out=r), rho, out=r)
    r.sort(axis=-1)
    n_breaks = r.shape[-1]
    r = r.reshape(-1)
    # each ray runs from 0 to rho, so no piece of positive width spans
    # two rays
    left = np.flatnonzero(r[1:] > r[:-1])
    r0, r1 = r[left], r[left + 1]
    half = 0.5 * (r1 - r0)
    mid = 0.5 * (r1 + r0)
    ray = left // n_breaks
    box, angle = np.divmod(ray, n_angles)
    r = np.stack([mid - _GAUSS_NODE * half, mid + _GAUSS_NODE * half])

    lower = np.zeros(r.shape)
    upper = np.full(r.shape, length)
    for a in range(3):
        base = r * d[:, a].take(angle)
        lo_a = lo[:, a].take(box)
        hi_a = hi[:, a].take(box)
        if e[a] == 0.0:
            # the axis is normal to the segment: the ray is in the slab or
            # the chord is empty
            upper = np.where((base >= lo_a) & (base <= hi_a), upper, -np.inf)
            continue
        z0 = (lo_a - base) / e[a]
        z1 = (hi_a - base) / e[a]
        if e[a] < 0.0:
            z0, z1 = z1, z0
        np.maximum(lower, z0, out=lower)
        np.minimum(upper, z1, out=upper)
    chord = np.maximum(upper - lower, 0.0)
    # each node's term goes to its place among the ray's 50 (the pieces'
    # first nodes, then their second ones) and every other place holds 0,
    # so the pairwise sum per box is, to the bit, the sum over all pieces
    terms = np.zeros((m, n_angles, 2, n_breaks - 1))
    slot = left + ray * (n_breaks - 2)
    flat = terms.reshape(-1)
    flat[slot] = chord[0] * r[0] * half
    flat[slot + (n_breaks - 1)] = chord[1] * r[1] * half
    return (2.0 * np.pi / n_angles) * np.sum(terms.reshape(m, -1), axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


#: cosine and sine of the angles of the trapezoid rule
_COS, _SIN = (f(2.0 * np.pi * (np.arange(_N_ANGLES) + 0.5) / _N_ANGLES)
              for f in (np.cos, np.sin))


def _oblique_volumes(rel_lo: np.ndarray, rel_hi: np.ndarray,
                     axis: np.ndarray, rho: float) -> np.ndarray:
    """Volumes of the boxes [rel_lo, rel_hi] (n, 3), relative to the
    cylinder's start point, inside the finite cylinder of radius rho along
    ``axis``, which is parallel to no grid axis."""
    length = float(np.linalg.norm(axis))
    e = axis / length
    n1 = _cross(e, np.eye(3)[np.argmin(np.abs(e))])
    n1 /= np.linalg.norm(n1)
    n2 = _cross(e, n1)
    d = _COS[:, None] * n1 + _SIN[:, None] * n2
    volumes = np.empty(len(rel_lo))
    for s in range(0, len(rel_lo), _BOX_CHUNK):
        volumes[s:s + _BOX_CHUNK] = _ray_volumes(
            rel_lo[s:s + _BOX_CHUNK], rel_hi[s:s + _BOX_CHUNK], e, d, length,
            rho)
    return volumes


#: stencil cells whose mean distances are computed at once: 512 sample
#: points each, so each temporary holds 8192 points (192 KiB in 3D)
_DISTANCE_CHUNK = 16


def mean_distance(grid: BulkGrid, cells, p0, p1, samples: int = 8):
    """Mean minimum distance between bulk cells and segments.

    ``cells`` is one cell index, which gives a float, or an array of
    them, which gives an array of the same shape. ``p0``/``p1`` are one
    segment, or one per cell (``cells.shape + (dim,)``). Fixed-order
    midpoint quadrature over each cell volume, ``_DISTANCE_CHUNK`` cells
    at a time; for the radial grid the annular measure integral is
    closed-form.
    """
    cells = np.asarray(cells)
    lo = grid.origin + np.stack(np.unravel_index(cells, grid.shape),
                                axis=-1) * grid.spacing
    hi = lo + grid.spacing
    if grid.dimension == "radial":
        r1, r2 = lo[..., 0], hi[..., 0]
        out = (2.0 / 3.0) * (r2 ** 3 - r1 ** 3) / (r2 ** 2 - r1 ** 2)
        return float(out) if out.ndim == 0 else out
    dim = lo.shape[-1]
    lo, hi = lo.reshape(-1, dim), hi.reshape(-1, dim)
    p0, p1 = (np.broadcast_to(np.asarray(p, float),
                              cells.shape + (dim,)).reshape(-1, 1, dim)
              for p in (p0, p1))
    # midpoints along each axis, then their tensor grid, per cell
    t = np.arange(samples) + 0.5
    idx = np.indices((samples,) * dim).reshape(dim, -1)
    width = hi - lo
    out = np.empty(len(lo))
    for s in range(0, len(lo), _DISTANCE_CHUNK):
        part = slice(s, s + _DISTANCE_CHUNK)
        axes = lo[part, :, None] + width[part, :, None] * t / samples
        # C order, so that each cell's mean is the same pairwise sum in a
        # chunk of any size
        pts = np.empty(axes.shape[:1] + idx.shape[1:] + (dim,))
        for a in range(dim):
            pts[..., a] = axes[:, a, idx[a]]
        out[part] = np.mean(point_segment_distance(pts, p0[part], p1[part]),
                            axis=-1)
    return float(out[0]) if cells.ndim == 0 else out.reshape(cells.shape)


@dataclass
class SegmentCoupling:
    """Kernel weights and sampling data for one segment cell."""

    cells: np.ndarray           # bulk cells receiving kernel source
    weights: np.ndarray         # fractions, sum = inside_fraction
    inside_fraction: float      # 1 for fully interior kernel supports
    clipped: bool               # support truncated by the domain boundary
    stencil: np.ndarray         # bulk cells sampled for reconstruction
    delta: float                # effective sampling distance


def _name(segs: list[SegmentCell], i: int) -> str:
    return f"segment cell {i} (segment {segs[i].segment_id})"


def _radial_weights(grid: BulkGrid, segs: list[SegmentCell]):
    """``(owner, cells, weights)`` of the annuli inside each kernel disc."""
    edges = grid.origin[0] + grid.spacing[0] * np.arange(grid.shape[0] + 1)
    owner, cells, weights = [], [], []
    for i, seg in enumerate(segs):
        rho = seg.kernel_radius
        r1 = np.minimum(edges[:-1], rho)
        r2 = np.minimum(edges[1:], rho)
        w = (r2 ** 2 - r1 ** 2) / rho ** 2
        keep = np.flatnonzero(w > 0.0)
        owner.append(np.full(keep.size, i))
        cells.append(keep)
        weights.append(w[keep])
    return (np.concatenate(owner), np.concatenate(cells),
            np.concatenate(weights))


def _candidate_boxes(grid: BulkGrid, p0: np.ndarray, p1: np.ndarray,
                     rho: np.ndarray):
    """Cells of the grid that meet each support's bounding box:
    ``(owner, cells, lo, hi)``, one segment cell's after another, with its
    index and the cells' lower and upper corners (n, dim)."""
    rho = rho[:, None]
    i0 = np.floor((np.minimum(p0, p1) - rho - grid.origin)
                  / grid.spacing).astype(int)
    i1 = np.ceil((np.maximum(p0, p1) + rho - grid.origin)
                 / grid.spacing).astype(int)
    i0 = np.maximum(i0, 0)
    i1 = np.maximum(np.minimum(i1, grid.shape), i0)
    owner, multi = index_boxes(i0, i1)
    return (owner, np.ravel_multi_index(multi.T, grid.shape),
            grid.origin + multi * grid.spacing,
            grid.origin + (multi + 1) * grid.spacing)


#: the two axes across a cylinder parallel to each grid axis
_ACROSS = np.array([[1, 2], [0, 2], [0, 1]])


def _support_measures(grid: BulkGrid, segs: list[SegmentCell],
                      p0: np.ndarray, p1: np.ndarray, rho: np.ndarray,
                      owner: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Measure of the kernel support of segment cell ``owner`` inside
    each of the boxes [lo, hi]."""
    axis = p1 - p0
    moving = np.count_nonzero(axis, axis=1)
    rel_lo, rel_hi = lo - p0[owner], hi - p0[owner]
    if grid.dimension == "2d":
        if np.any(moving):
            raise CouplingError("2D kernel supports are discs: "
                                f"{_name(segs, np.argmax(moving))} must be "
                                "degenerate")
        return _disc_rect_area(rel_lo[:, 0], rel_hi[:, 0], rel_lo[:, 1],
                               rel_hi[:, 1], rho[owner])
    if not np.all(moving):
        raise CouplingError("3D kernel supports are cylinders: "
                            f"{_name(segs, np.argmin(moving))} must have a "
                            "length")
    measures = np.zeros(len(owner))
    # parallel to a grid axis k: cross-section area times axial overlap
    par = np.flatnonzero(moving[owner] == 1)
    k = np.argmax(axis != 0.0, axis=1)[owner[par]]
    i, j = _ACROSS[k].T
    area = _disc_rect_area(rel_lo[par, i], rel_hi[par, i], rel_lo[par, j],
                           rel_hi[par, j], rho[owner[par]])
    overlap = (np.minimum(hi[par, k], np.maximum(p0, p1)[owner[par], k])
               - np.maximum(lo[par, k], np.minimum(p0, p1)[owner[par], k]))
    measures[par] = area * np.maximum(overlap, 0.0)

    # oblique: a box farther than rho from the segment holds no chord on
    # any ray
    center = 0.5 * (lo + hi)
    half_diag = 0.5 * np.linalg.norm(hi - lo, axis=-1)
    near = np.flatnonzero((moving[owner] > 1)
                          & (point_segment_distance(center, p0[owner],
                                                    p1[owner])
                             < rho[owner] + half_diag))
    bounds = np.searchsorted(owner[near], np.arange(len(segs) + 1))
    for c in np.flatnonzero(bounds[1:] > bounds[:-1]):
        boxes = near[bounds[c]:bounds[c + 1]]
        measures[boxes] = _oblique_volumes(rel_lo[boxes], rel_hi[boxes],
                                           axis[c], float(rho[c]))
    return measures


def build_coupling(grid: BulkGrid, seg_cells,
                   delta_correction: bool = False) -> list[SegmentCoupling]:
    """The coupling of every segment cell of ``seg_cells`` to ``grid``,
    built in one pass over all of them (see the module docstring)."""
    segs = list(seg_cells)
    if not segs:
        return []
    if grid.dimension == "radial":
        owner, cells, weights = _radial_weights(grid, segs)
        # every stencil is the axis cell, whose mean distance to the tube
        # does not depend on the segment
        p0 = p1 = np.zeros((len(segs), 1))
        stencil_owner, stencils = np.arange(len(segs)), np.zeros(len(segs),
                                                                  int)
    else:
        p0 = np.array([s.p0 for s in segs], float)
        p1 = np.array([s.p1 for s in segs], float)
        rho = np.array([s.kernel_radius for s in segs], float)
        owner, cells, lo, hi = _candidate_boxes(grid, p0, p1, rho)
        _ends(segs, owner, "{} lies outside the bulk grid")
        # the cylinder's volume; a disc's area in 2D
        support = np.array([np.pi * s.kernel_radius ** 2
                            * (float(np.linalg.norm(s.p1 - s.p0)) or 1.0)
                            for s in segs])
        weights = (_support_measures(grid, segs, p0, p1, rho, owner, lo, hi)
                   / support[owner])
        keep = weights > _NEGLIGIBLE_SHARE
        owner, cells, weights = owner[keep], cells[keep], weights[keep]
        stencil_owner, stencils = grid.stencils(0.5 * (p0 + p1))

    ends = _ends(segs, owner,
                 "kernel support of {} does not intersect the grid")
    stencil_ends = _ends(segs, stencil_owner,
                         "midpoint of {} lies outside the bulk grid")
    deltas = (mean_distance(grid, stencils, p0[stencil_owner],
                            p1[stencil_owner])
              if delta_correction else np.zeros(len(stencils)))
    out = []
    for seg, bulk_cells, seg_weights, stencil, seg_deltas in zip(
            segs, np.split(cells, ends), np.split(weights, ends),
            np.split(stencils, stencil_ends), np.split(deltas, stencil_ends)):
        inside = float(np.sum(seg_weights))
        delta = 0.0
        if delta_correction:
            # f(delta) is affine in delta^2 inside the support, so the RMS
            # distance reproduces the stencil average of f exactly
            delta = float(np.sqrt(np.mean(seg_deltas ** 2)))
            delta = min(delta, seg.kernel_radius * (1.0 - 1e-6))
        # conservative deposition: the bulk always sees the full source,
        # also when the support is truncated by the domain boundary
        out.append(SegmentCoupling(cells=bulk_cells,
                                   weights=seg_weights / inside,
                                   inside_fraction=inside,
                                   clipped=inside < 1.0 - 1e-6,
                                   stencil=stencil, delta=delta))
    return out


def _ends(segs: list[SegmentCell], owner: np.ndarray,
          message: str) -> np.ndarray:
    """Where the entries of each segment cell in ``owner``, which is
    sorted, end, but for the last; raise ``CouplingError`` with
    ``message`` naming the first segment cell that has none."""
    counts = np.bincount(owner, minlength=len(segs))
    if not np.all(counts):
        raise CouplingError(message.format(_name(segs, np.argmin(counts))))
    return np.cumsum(counts)[:-1]
