"""Kernel weights and sampling stencils tying segment cells to bulk cells.

``build_coupling`` builds the coupling of all segment cells of a grid, of
any kind, in one pass. It lists the candidate boxes of every cell, the
grid cells that meet its support's bounding box, one cell after another
and each with its owner, and integrates the uniform kernel over them from
the geometry of the support:

- On a radial grid the tube is the axis r = 0, and the support is the
  disc around it. Its part in the annulus [r_lo, r_hi] is
  pi (min(r_hi, rho)^2 - min(r_lo, rho)^2).
- In 2D the support is a disc. Its overlap with a cell is the
  closed-form area of a disc and a rectangle, for all boxes at once.
- In 3D the support is a finite cylinder. One parallel to a grid axis
  gives a disc area times an axial overlap, for all such boxes at once.
- An oblique cylinder's volume in a box is exact up to rounding. It is
  computed for the boxes of all oblique cells that pass the near test
  (closer to the segment than the kernel radius plus half their
  diagonal), ``_OBLIQUE_CHUNK`` (256) boxes at a time. In the cylinder's
  frame, z along its axis e and x + iy across it, the divergence theorem
  with the field (0, 0, z - s) gives the box's volume inside the
  half-infinite cylinder r <= rho, z >= s. It is a signed sum over the
  box faces that are not parallel to e: the integral of z - s over the
  face's part above z = s, projected along e onto the cross-section and
  cut by the disc r <= rho. The lateral surface and the cap at z = s add
  nothing. The finite cylinder is the difference of the levels s = 0 and
  s = length. On a face the height z - s is affine in x and y, and its
  part above the level is a polygon of at most five edges, so the
  integral follows from the area and first moment of the polygon inside
  the disc. By Green's theorem these are sums over its edges: the part
  inside the disc of the triangle between the axis and the edge, a
  triangle and up to two circular sectors in closed form. Each box edge
  is an edge of two faces, run in opposite directions, so its part above
  the level is integrated once and added to one face and taken from the
  other; an edge wholly below the level has no part. A face that the
  level cuts adds one more edge, the chord along the level. The rounding
  grows like eps / |e_a| for an axis component e_a near zero, about
  1e-13 of the cylinder at |e_a| = 1e-3 (the smallest nonzero |e_a| of
  the synthetic root networks is 1.5e-3). Faces with |e_a| below
  ``_PARALLEL`` (sqrt(eps)) count as parallel to the axis, which bounds
  the error near 1e-7 of the cylinder.

The reconstruction samples the bulk field through a stencil: all cells
whose closure contains the segment-cell midpoint, averaged with equal
weights so midpoints on faces or corners are treated symmetrically; on a
radial grid, the innermost cell, also where the grid leaves a hole
around the axis. The
mean minimum distance of a stencil cell to its segment provides the
optional delta correction. It is computed for the stencil cells of all
segment cells together, ``_DISTANCE_CHUNK`` (32) cells of 512 sample
points at a time, from the 8 midpoint coordinates along each axis: the
squared distances to the segment's ends and the projection onto it are
sums of per-axis terms, and each component of the cross product that
gives the distance to its line takes the terms of two axes. So no sample
point is formed as a vector, and no temporary holds more than 128 KiB.

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
    elementwise, as are the two functions below. Near x = rho, arcsin(x /
    rho) and rho^2 - x^2 would turn a one-ulp error into sqrt(eps); the
    half chord as sqrt((rho - x)(rho + x)) and the angle as its arctan2
    keep the rounding of their own size."""
    s = np.sqrt(np.maximum((rho - x) * (rho + x), 0.0))
    return 0.5 * (x * s + rho * rho * np.arctan2(x, s))


def _cap_integral(a0, a1, b, rho):
    """Integral of max(0, sqrt(rho^2 - x^2) - b) over x in [a0, a1].

    Requires 0 <= a0 <= a1 and b >= 0: the integrand is positive on
    x < sqrt(rho^2 - b^2), where it integrates through ``_disc_primitive``.
    """
    c = np.sqrt(np.maximum((rho - b) * (rho + b), 0.0))
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


#: a smaller share of the support is the rounding residue of a cell that
#: the support only touches (a shared face computed twice, say)
_NEGLIGIBLE_SHARE = 1e-12
#: oblique boxes integrated at once: each box has 24 box edges (two
#: levels, twelve edges) and 48 face-edge entries, so the largest
#: temporaries hold 12,288 values (96 KiB as floats, 192 KiB as complex
#: points)
_OBLIQUE_CHUNK = 256
#: the corners of each box face, corner i + 2j + 4k at offsets (i, j, k)
#: along the grid axes: face 2a is the lower face of axis a, 2a + 1 the
#: upper, each as the cycle (lo_b, lo_c), (hi_b, lo_c), (hi_b, hi_c),
#: (lo_b, hi_c) with b = a + 1 and c = a + 2 (mod 3). Projected along the
#: axis e, the cycle turns counterclockwise where e_a > 0, so its signed
#: area and moments carry the sign of e_a
_FACES = np.array([[sum(o << ax for o, ax in ((side, a), (ob, (a + 1) % 3),
                                              (oc, (a + 2) % 3)))
                    for ob, oc in ((0, 0), (1, 0), (1, 1), (0, 1))]
                   for a in range(3) for side in (0, 1)])
#: the next corner of each face's cycle
_NEXT = np.array([1, 2, 3, 0])
#: the twelve box edges, each from its corner u to u + 2^a along axis a
_EDGES = np.array([(u, u | 1 << a) for a in range(3) for u in range(8)
                   if not u >> a & 1])
#: the box edge of each step of each face's cycle, and +1 where the cycle
#: runs along it from u, -1 where it runs back: each edge is shared by two
#: faces, which run it in opposite directions
_FACE_EDGES = np.array([[_EDGES.tolist().index(sorted((p, q)))
                         for p, q in zip(face, face[_NEXT])]
                        for face in _FACES])
_FACE_EDGE_SIGN = np.where(_FACES < _FACES[:, _NEXT], 1.0, -1.0)
#: the sign of each face's outward normal along its axis
_FACE_SIGN = np.tile([-1.0, 1.0], 3)
#: a box face whose normal has a smaller component e_a along the axis
#: counts as parallel to it. Its flux, dropped, is about |e_a| length / rho
#: of the cylinder's volume; computed, it would carry a rounding of about
#: 4 eps / |e_a|. The two balance near sqrt(eps).
_PARALLEL = np.sqrt(np.finfo(float).eps)


def _sector_moments(u, v, rho):
    """Signed area and first moment (the integrals of 1 and of x + iy) of
    the sector of the disc of radius rho at the origin from the direction
    of the point u to that of v, the shorter way round. Points are complex
    numbers x + iy; elementwise, as is ``_fan_moments``."""
    return (0.5 * rho * rho * np.angle(np.conj(u) * v),
            (-1j * rho ** 3 / 3.0) * (v / np.abs(v) - u / np.abs(u)))


def _fan_moments(a, b, rho):
    """Signed area and first moment of the triangle (0, a, b) inside the
    disc of radius rho at the origin.

    Where the segment ab crosses the circle, at P1 on entry and P2 on exit,
    the part is the triangle (0, P1, P2) and the sectors (a, P1) and
    (P2, b), each sector only where the segment lies outside the disc: an
    end inside the disc is its own P1 or P2, so no sector is taken from a
    point near the origin. A segment that misses the disc leaves the
    sector (a, b); one of zero length leaves nothing.
    """
    d = b - a
    dd = d.real * d.real + d.imag * d.imag
    ad = a.real * d.real + a.imag * d.imag
    disc = ad * ad - dd * (a.real * a.real + a.imag * a.imag - rho * rho)
    root = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-ad - root) / dd
        t2 = (-ad + root) / dd
        hit = (disc > 0.0) & (t1 < 1.0) & (t2 > 0.0)
        enter = hit & (t1 > 0.0)
        leave = hit & (t2 < 1.0)
        p1 = np.where(enter, a + t1 * d, a)
        p2 = np.where(leave, a + t2 * d, b)
        area = np.where(hit, 0.5 * (np.conj(p1) * p2).imag, 0.0)
        moment = area * (p1 + p2) / 3.0
        for sector, part in ((enter | (~hit & (dd > 0.0)),
                              _sector_moments(a, np.where(hit, p1, b), rho)),
                             (leave, _sector_moments(p2, b, rho))):
            area = area + np.where(sector, part[0], 0.0)
            moment = moment + np.where(sector, part[1], 0.0)
    return area, moment


def _cylinder_volumes(rel_lo: np.ndarray, rel_hi: np.ndarray,
                      axis: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Volumes of the boxes [rel_lo, rel_hi] (m, 3) inside the cylinders
    of radius rho (m,) from the origin along ``axis`` (m, 3), each parallel
    to no grid axis (see the module docstring)."""
    m = len(axis)
    length = np.linalg.norm(axis, axis=1)
    e = axis / length[:, None]
    n1 = np.cross(e, np.eye(3)[np.argmin(np.abs(e), axis=1)])
    n1 /= np.linalg.norm(n1, axis=1)[:, None]
    # x + iy across the axis, with (n1, n2, e) right-handed
    across = n1 + 1j * np.cross(e, n1)

    def at_corners(frame):
        """p . frame at the corners (m, 8), the steps along the axes added
        one after the other: along each face edge of the last axis that
        spans the face, the values keep the order of exact arithmetic, so
        no level cuts a face's cycle more than twice."""
        out = np.sum(rel_lo * frame, axis=1)[:, None]
        step = (rel_hi - rel_lo) * frame
        for a in range(3):
            out = (out[:, None, :] + np.arange(2.0)[:, None]
                   * step[:, a, None, None]).reshape(m, -1)
        return out

    z, xy = at_corners(e), at_corners(across)
    # the heights of the corners above the level s = 0 and s = length
    w = np.stack([z, z - length[:, None]], axis=1)           # (m, 2, 8)
    above = w >= 0.0
    # the part of each box edge above the level, from u towards v, where
    # there is one: it ends where the edge crosses the level, a point
    # computed from the edge's corner above the level
    u, v = _EDGES.T
    box, level, edge = np.nonzero(above[..., u] | above[..., v])
    u, v = u[edge], v[edge]
    w_u, w_v = w[box, level, u], w[box, level, v]
    xy_u, xy_v = xy[box, u], xy[box, v]
    above_u, above_v = w_u >= 0.0, w_v >= 0.0
    w_in, w_out = np.where(above_u, w_u, w_v), np.where(above_u, w_v, w_u)
    xy_in = np.where(above_u, xy_u, xy_v)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = xy_in + w_in / (w_in - w_out) * (np.where(above_u, xy_v, xy_u)
                                               - xy_in)
    edge_area = np.zeros((m, 2, len(_EDGES)))
    edge_moment = np.zeros((m, 2, len(_EDGES)), complex)
    edge_area[box, level, edge], edge_moment[box, level, edge] = _fan_moments(
        np.where(above_u, xy_u, cut), np.where(above_v, xy_v, cut), rho[box])
    cuts = np.zeros((m, 2, len(_EDGES)), complex)
    cuts[box, level, edge] = cut
    # each face's polygon above the level: its edges' parts, each run in
    # the face's direction, and where the level cuts the face, the chord
    # along the level from the cycle's exit to its entry
    area, moment = (np.sum(_FACE_EDGE_SIGN * part[..., _FACE_EDGES], axis=-1)
                    for part in (edge_area, edge_moment))    # (m, 2, 6)
    corner_above = above[..., _FACES]                        # (m, 2, 6, 4)
    leaves = corner_above & ~corner_above[..., _NEXT]
    enters = ~corner_above & corner_above[..., _NEXT]
    box, level, face = np.nonzero(np.any(leaves, axis=-1))
    at = cuts[box[:, None], level[:, None], _FACE_EDGES[face]]
    chord_area, chord_moment = _fan_moments(
        np.sum(np.where(leaves[box, level, face], at, 0.0), axis=-1),
        np.sum(np.where(enters[box, level, face], at, 0.0), axis=-1),
        rho[box])
    area[box, level, face] += chord_area
    moment[box, level, face] += chord_moment
    # on the face p_a = c the height is z = (c - Re(conj(across_a) (x +
    # iy))) / e_a; faces parallel to the axis add nothing
    c = np.stack([rel_lo, rel_hi], axis=-1).reshape(m, 6)
    e_face = np.repeat(e, 2, axis=1)
    parallel = np.abs(e_face) <= _PARALLEL
    height = ((c[:, None] * area
               - (np.conj(np.repeat(across, 2, axis=1))[:, None]
                  * moment).real)
              / np.where(parallel, 1.0, e_face)[:, None])
    height[:, 1] -= length[:, None] * area[:, 1]
    return np.sum(np.where(parallel, 0.0,
                           _FACE_SIGN * (height[:, 0] - height[:, 1])),
                  axis=1)


#: midpoint samples per axis of a cell in ``mean_distance``
_DISTANCE_SAMPLES = 8
#: stencil cells whose mean distances are computed at once: 512 sample
#: points each, so each temporary holds 16,384 values (128 KiB in 3D)
_DISTANCE_CHUNK = 32


def _on_axis(values, a, dim):
    """Per-axis values (n, s) shaped to broadcast along axis a of the
    tensor grid of the sample indices (n, s, ..., s)."""
    return values.reshape((len(values),) + (1,) * a + (-1,)
                          + (1,) * (dim - 1 - a))


def _outer_sum(parts):
    """The sums of per-axis terms (n, dim, s) over the tensor grid of the
    sample indices, parts[:, 0, i] + parts[:, 1, j] (+ parts[:, 2, k])."""
    dim = parts.shape[1]
    out = 0.0
    for a in range(dim):
        out = out + _on_axis(parts[:, a], a, dim)
    return out


def mean_distance(grid: BulkGrid, cells, p0, p1):
    """Mean minimum distance between bulk cells and segments.

    ``cells`` is one cell index, which gives a float, or an array of
    them, which gives an array of the same shape. ``p0``/``p1`` are one
    segment, or one per cell (``cells.shape + (dim,)``). Fixed-order
    midpoint quadrature over each cell volume, ``_DISTANCE_SAMPLES``
    points per axis and ``_DISTANCE_CHUNK`` cells at a time; for the
    radial grid the annular measure integral is closed-form.

    The squared distance of a midpoint x is |x - p0|^2 before the segment,
    |x - p1|^2 beyond it, and |(x - p0) x (p1 - p0)|^2 / |p1 - p0|^2 beside
    it; the projection (x - p0) . (p1 - p0) tells the three apart. The
    squares and the projection are sums of per-axis terms, and each
    component of the cross product takes the terms of two axes, so all of
    them come from the midpoints' coordinates along each axis. Beside the
    segment the cross product keeps the distance to the rounding of its
    own size, where |x - p0|^2 less the projection's square would cancel.
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
                              cells.shape + (dim,)).reshape(-1, dim)
              for p in (p0, p1))
    axis = p1 - p0
    l2 = np.sum(axis * axis, axis=1).reshape((-1,) + (1,) * dim)
    # the midpoints' coordinates along each axis (n, dim, samples)
    coords = lo[..., None] + (hi - lo)[..., None] * (
        (np.arange(_DISTANCE_SAMPLES) + 0.5) / _DISTANCE_SAMPLES)
    out = np.empty(len(lo))
    for s in range(0, len(lo), _DISTANCE_CHUNK):
        part = slice(s, s + _DISTANCE_CHUNK)
        rel0 = coords[part] - p0[part, :, None]
        rel1 = coords[part] - p1[part, :, None]
        ax = axis[part, :, None]
        along = _outer_sum(rel0 * ax)
        beside = 0.0
        for a in range(dim):
            for b in range(a + 1, dim):
                cross = (_on_axis(rel0[:, a] * ax[:, b], a, dim)
                         - _on_axis(rel0[:, b] * ax[:, a], b, dim))
                beside = beside + cross * cross
        # a degenerate segment is its point p0: no midpoint lies beside it
        square = np.where(
            along <= 0.0, _outer_sum(rel0 * rel0),
            np.where(along >= l2[part], _outer_sum(rel1 * rel1),
                     beside / np.where(l2[part] > 0.0, l2[part], 1.0)))
        # C order, so that each cell's mean is the same pairwise sum in a
        # chunk of any size
        out[part] = np.mean(np.sqrt(square).reshape(len(rel0), -1), axis=-1)
    return float(out[0]) if cells.ndim == 0 else out.reshape(cells.shape)


@dataclass
class SegmentCoupling:
    """Kernel weights and sampling data for one segment cell."""

    cells: np.ndarray           # bulk cells receiving kernel source
    weights: np.ndarray         # fractions of the source, sum = 1
    inside_fraction: float      # share of the support inside the domain
    stencil: np.ndarray         # bulk cells sampled for reconstruction
    delta: float                # effective sampling distance
    #: delta is the kernel radius times (1 - 1e-6), not the RMS stencil
    #: distance, which reaches the radius
    delta_clamped: bool = False


def _name(segs: list[SegmentCell], i: int) -> str:
    return f"segment cell {i} (segment {segs[i].segment_id})"


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
    if grid.dimension == "radial":
        # the kernel disc around the axis r = 0 inside each annulus
        r_lo, r_hi = (np.minimum(r[:, 0], rho[owner]) for r in (lo, hi))
        return np.pi * (r_hi * r_hi - r_lo * r_lo)
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

    # oblique: a box farther than rho from the segment holds none of the
    # support
    center = 0.5 * (lo + hi)
    half_diag = 0.5 * np.linalg.norm(hi - lo, axis=-1)
    near = np.flatnonzero((moving[owner] > 1)
                          & (point_segment_distance(center, p0[owner],
                                                    p1[owner])
                             < rho[owner] + half_diag))
    for s in range(0, len(near), _OBLIQUE_CHUNK):
        boxes = near[s:s + _OBLIQUE_CHUNK]
        c = owner[boxes]
        measures[boxes] = _cylinder_volumes(rel_lo[boxes], rel_hi[boxes],
                                            axis[c], rho[c])
    return measures


def build_coupling(grid: BulkGrid, seg_cells,
                   delta_correction: bool = False) -> list[SegmentCoupling]:
    """The coupling of every segment cell of ``seg_cells`` to ``grid``,
    built in one pass over all of them (see the module docstring)."""
    segs = list(seg_cells)
    if not segs:
        return []
    rho = np.array([s.kernel_radius for s in segs], float)
    if grid.dimension == "radial":
        # the tube is the grid's axis, and every stencil the innermost
        # cell, whose mean distance to the tube does not depend on the
        # segment
        p0 = p1 = np.zeros((len(segs), 1))
        stencil_owner, stencils = np.arange(len(segs)), np.zeros(len(segs),
                                                                  int)
    else:
        p0 = np.array([s.p0 for s in segs], float)
        p1 = np.array([s.p1 for s in segs], float)
        stencil_owner, stencils = grid.stencils(0.5 * (p0 + p1))
    owner, cells, lo, hi = _candidate_boxes(grid, p0, p1, rho)
    _groups(segs, owner, "{} lies outside the bulk grid")
    # the cylinder's volume; a disc's area in 2D and on a radial grid
    length = np.linalg.norm(p1 - p0, axis=1)
    support = np.pi * rho ** 2 * np.where(length > 0.0, length, 1.0)
    weights = (_support_measures(grid, segs, p0, p1, rho, owner, lo, hi)
               / support[owner])
    keep = weights > _NEGLIGIBLE_SHARE
    owner, cells, weights = owner[keep], cells[keep], weights[keep]

    starts, counts = _groups(
        segs, owner, "kernel support of {} does not intersect the grid")
    stencil_starts, stencil_counts = _groups(
        segs, stencil_owner, "midpoint of {} lies outside the bulk grid")
    inside = np.add.reduceat(weights, starts)
    # conservative deposition: the bulk always sees the full source, also
    # when the support is truncated by the domain boundary
    weights = weights / np.repeat(inside, counts)
    delta = np.zeros(len(segs))
    clamped = np.zeros(len(segs), bool)
    if delta_correction:
        # f(delta) is affine in delta^2 inside the support, so the RMS
        # distance reproduces the stencil average of f exactly; the
        # interface equation needs delta < rho, so it is clamped below
        square = mean_distance(grid, stencils, p0[stencil_owner],
                               p1[stencil_owner]) ** 2
        rms = np.sqrt(np.add.reduceat(square, stencil_starts)
                      / stencil_counts)
        clamped = rms > rho * (1.0 - 1e-6)
        delta = np.minimum(rms, rho * (1.0 - 1e-6))
    return [SegmentCoupling(cells=cells[a:a + n], weights=weights[a:a + n],
                            inside_fraction=f, stencil=stencils[b:b + k],
                            delta=d, delta_clamped=c)
            for a, n, b, k, f, d, c in zip(
                starts.tolist(), counts.tolist(), stencil_starts.tolist(),
                stencil_counts.tolist(), inside.tolist(), delta.tolist(),
                clamped.tolist())]


def _groups(segs: list[SegmentCell], owner: np.ndarray,
            message: str) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of each segment cell in ``owner``, which is
    sorted, start, and how many there are; raise ``CouplingError`` with
    ``message`` naming the first segment cell that has none."""
    counts = np.bincount(owner, minlength=len(segs))
    if not np.all(counts):
        raise CouplingError(message.format(_name(segs, np.argmin(counts))))
    return np.cumsum(counts) - counts, counts
