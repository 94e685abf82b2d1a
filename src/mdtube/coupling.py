"""Kernel weights and sampling stencils tying segment cells to bulk cells.

For every segment cell the uniform kernel is integrated over the bulk
cells it touches, from the geometry of the support. In 2D the support is
a disc and its overlap with a cell is the closed-form area of a disc and
a rectangle. In 3D the support is a finite cylinder: in the cylinder's
frame the axial chord through a cell is piecewise linear along every
radial ray, so the radial integral is exact, and a fixed periodic
trapezoid rule integrates over the angle. Most breakpoints of the chord
fall outside the support and leave pieces of zero width; the chord is
evaluated only on the others, about an eighth of them. A cylinder
parallel to a grid axis is a disc area times an axial overlap.

The reconstruction samples the bulk field through a stencil: all cells
whose closure contains the segment-cell midpoint, averaged with equal
weights so midpoints on faces or corners are treated symmetrically. The
mean minimum distance of a cell to the segment provides the optional
delta correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BulkGrid
from .network import SegmentCell


class CouplingError(RuntimeError):
    pass


def point_segment_distance(points: np.ndarray, p0: np.ndarray,
                           p1: np.ndarray) -> np.ndarray:
    """Distance from points (n, d) to the segment p0-p1 (degenerate ok)."""
    points = np.atleast_2d(np.asarray(points, float))
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    axis = p1 - p0
    l2 = float(axis @ axis)
    if l2 == 0.0:
        return np.linalg.norm(points - p0, axis=-1)
    t = np.clip((points - p0) @ axis / l2, 0.0, 1.0)
    return np.linalg.norm(points - (p0 + t[:, None] * axis), axis=-1)


def _disc_primitive(x, rho: float):
    """Integral of sqrt(rho^2 - s^2) over s in [0, x], for 0 <= x <= rho."""
    return 0.5 * (x * np.sqrt(np.maximum(rho * rho - x * x, 0.0))
                  + rho * rho * np.arcsin(np.minimum(x / rho, 1.0)))


def _cap_integral(a0, a1, b, rho: float):
    """Integral of max(0, sqrt(rho^2 - x^2) - b) over x in [a0, a1].

    Requires 0 <= a0 <= a1 and b >= 0: the integrand is positive on
    x < sqrt(rho^2 - b^2), where it integrates through ``_disc_primitive``.
    """
    c = np.sqrt(np.maximum(rho * rho - b * b, 0.0))
    u0 = np.minimum(a0, c)
    u1 = np.minimum(a1, c)
    return (_disc_primitive(u1, rho) - _disc_primitive(u0, rho)
            - b * (u1 - u0))


def _disc_rect_area(x0, x1, y0, y1, rho: float):
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


def _cylinder_box_volumes(lo: np.ndarray, hi: np.ndarray, p0: np.ndarray,
                          p1: np.ndarray, rho: float) -> np.ndarray:
    """Volumes of the boxes [lo, hi] (n, 3) inside the finite cylinder of
    radius rho around the segment p0-p1."""
    axis = p1 - p0
    length = float(np.linalg.norm(axis))
    along = np.flatnonzero(axis)
    if along.size == 1:
        # parallel to a grid axis: cross-section area times axial overlap
        k = int(along[0])
        i, j = [a for a in range(3) if a != k]
        area = _disc_rect_area(lo[:, i] - p0[i], hi[:, i] - p0[i],
                               lo[:, j] - p0[j], hi[:, j] - p0[j], rho)
        z0, z1 = min(p0[k], p1[k]), max(p0[k], p1[k])
        overlap = np.minimum(hi[:, k], z1) - np.maximum(lo[:, k], z0)
        return area * np.maximum(overlap, 0.0)

    e = axis / length
    n1 = _cross(e, np.eye(3)[np.argmin(np.abs(e))])
    n1 /= np.linalg.norm(n1)
    n2 = _cross(e, n1)
    theta = 2.0 * np.pi * (np.arange(_N_ANGLES) + 0.5) / _N_ANGLES
    d = np.cos(theta)[:, None] * n1 + np.sin(theta)[:, None] * n2

    volumes = np.zeros(len(lo))
    # a box farther than rho from the segment holds no chord on any ray
    center = 0.5 * (lo + hi)
    half_diag = 0.5 * np.linalg.norm(hi - lo, axis=-1)
    near = np.flatnonzero(point_segment_distance(center, p0, p1)
                          < rho + half_diag)
    for s in range(0, near.size, _BOX_CHUNK):
        idx = near[s:s + _BOX_CHUNK]
        volumes[idx] = _ray_volumes(lo[idx] - p0, hi[idx] - p0, e, d,
                                    length, rho)
    return volumes


def mean_distance(grid: BulkGrid, cells, p0, p1, samples: int = 8):
    """Mean minimum distance between bulk cells and a segment.

    ``cells`` is one cell index, which gives a float, or an array of
    them, which gives an array of the same shape. Fixed-order midpoint
    quadrature over each cell volume; for the radial grid the annular
    measure integral is closed-form.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    cells = np.asarray(cells)
    lo = grid.origin + np.stack(np.unravel_index(cells, grid.shape),
                                axis=-1) * grid.spacing
    hi = lo + grid.spacing
    if grid.dimension == "radial":
        r1, r2 = lo[..., 0], hi[..., 0]
        out = (2.0 / 3.0) * (r2 ** 3 - r1 ** 3) / (r2 ** 2 - r1 ** 2)
    else:
        dim = lo.shape[-1]
        # midpoints along each axis, then their tensor grid, per cell
        t = np.arange(samples) + 0.5
        axes = lo[..., None] + (hi - lo)[..., None] * t / samples
        idx = np.indices((samples,) * dim).reshape(dim, -1)
        pts = np.stack([axes[..., a, idx[a]] for a in range(dim)], axis=-1)
        dist = point_segment_distance(pts.reshape(-1, dim), p0, p1)
        out = np.mean(dist.reshape(pts.shape[:-1]), axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass
class SegmentCoupling:
    """Kernel weights and sampling data for one segment cell."""

    cells: np.ndarray           # bulk cells receiving kernel source
    weights: np.ndarray         # fractions, sum = inside_fraction
    inside_fraction: float      # 1 for fully interior kernel supports
    clipped: bool               # support truncated by the domain boundary
    stencil: np.ndarray         # bulk cells sampled for reconstruction
    delta: float                # effective sampling distance


def _radial_weights(grid: BulkGrid, seg: SegmentCell):
    rho = seg.kernel_radius
    edges = grid.origin[0] + grid.spacing[0] * np.arange(grid.shape[0] + 1)
    r1 = np.minimum(edges[:-1], rho)
    r2 = np.minimum(edges[1:], rho)
    w = (r2 ** 2 - r1 ** 2) / rho ** 2
    cells = np.flatnonzero(w > 0.0)
    return cells, w[cells]


def _candidate_boxes(grid: BulkGrid, seg: SegmentCell):
    """Cells of the grid that meet the support's bounding box, with their
    lower and upper corners (n, dim); none if the box misses the grid."""
    rho = seg.kernel_radius
    i0 = np.floor((np.minimum(seg.p0, seg.p1) - rho - grid.origin)
                  / grid.spacing).astype(int)
    i1 = np.ceil((np.maximum(seg.p0, seg.p1) + rho - grid.origin)
                 / grid.spacing).astype(int)
    i0 = np.maximum(i0, 0)
    i1 = np.maximum(np.minimum(i1, grid.shape), i0)
    multi = i0 + np.indices(i1 - i0).reshape(len(i0), -1).T
    return (np.ravel_multi_index(multi.T, grid.shape),
            grid.origin + multi * grid.spacing,
            grid.origin + (multi + 1) * grid.spacing)


def _support_measures(grid: BulkGrid, seg: SegmentCell, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Measure of the kernel support inside each of the boxes [lo, hi]."""
    if grid.dimension == "2d":
        if not np.array_equal(seg.p0, seg.p1):
            raise CouplingError("2D kernel supports are discs: the segment "
                                "cell must be degenerate")
        return _disc_rect_area(lo[:, 0] - seg.p0[0], hi[:, 0] - seg.p0[0],
                               lo[:, 1] - seg.p0[1], hi[:, 1] - seg.p0[1],
                               seg.kernel_radius)
    if np.array_equal(seg.p0, seg.p1):
        raise CouplingError("3D kernel supports are cylinders: the segment "
                            "cell must have a length")
    return _cylinder_box_volumes(lo, hi, seg.p0, seg.p1, seg.kernel_radius)


def build_segment_coupling(grid: BulkGrid, seg: SegmentCell,
                           delta_correction: bool = False) -> SegmentCoupling:
    rho = seg.kernel_radius
    if grid.dimension == "radial":
        cells, weights = _radial_weights(grid, seg)
        stencil = np.array([0])
    else:
        candidates, lo, hi = _candidate_boxes(grid, seg)
        if candidates.size == 0:
            raise CouplingError("segment cell lies outside the bulk grid")
        seg_len = float(np.linalg.norm(seg.p1 - seg.p0))
        support_measure = np.pi * rho ** 2 * (seg_len if seg_len > 0.0 else 1.0)
        weights = _support_measures(grid, seg, lo, hi) / support_measure
        keep = weights > _NEGLIGIBLE_SHARE
        cells, weights = candidates[keep], weights[keep]
        if cells.size == 0:
            raise CouplingError("kernel support does not intersect the grid")
        stencil = grid.cells_containing(seg.midpoint)

    inside = float(np.sum(weights))
    clipped = inside < 1.0 - 1e-6
    # conservative deposition: the bulk always sees the full source, also
    # when the support is truncated by the domain boundary
    weights = weights / inside

    if delta_correction:
        deltas = mean_distance(grid, stencil, seg.p0, seg.p1)
        # f(delta) is affine in delta^2 inside the support, so the RMS
        # distance reproduces the stencil average of f exactly
        delta = float(np.sqrt(np.mean(deltas ** 2)))
        delta = min(delta, rho * (1.0 - 1e-6))
    else:
        delta = 0.0

    return SegmentCoupling(cells=cells, weights=weights,
                           inside_fraction=inside, clipped=clipped,
                           stencil=stencil, delta=delta)


def build_coupling(grid: BulkGrid, seg_cells,
                   delta_correction: bool = False) -> list[SegmentCoupling]:
    return [build_segment_coupling(grid, seg, delta_correction)
            for seg in seg_cells]
