"""Network parsing/discretization and kernel-weight coupling.

Geometric reference values are frozen from Monte Carlo estimates (sample
counts and seeds stated next to each use).
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import mdtube.coupling as coupling
from mdtube.coupling import (CouplingError, build_coupling, mean_distance,
                             point_segment_distance)
from mdtube.grid import BulkGrid
from mdtube.network import (NetworkFormatError, Segment, SegmentCell,
                            TubeNetwork, discretize_network, parse_network,
                            synthetic_root_network)
from mdtube.scenarios import parallel_level_coupling, three_tube_specs


def simple_network():
    nodes = np.array([[0.0, 0.0, 0.0],
                      [0.0, 0.0, -0.06],
                      [0.03, 0.0, -0.09]])
    segments = [Segment(0, 1, 2e-3, 3.0, 2e-11, 5e-13),
                Segment(1, 2, 1e-3, 3.0, 2e-11, 5e-14)]
    return TubeNetwork(nodes=nodes, segments=segments)


def make_cell(p0, p1, radius=0.01, rho=0.05):
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    return SegmentCell(p0=p0, p1=p1, length=float(np.linalg.norm(p1 - p0)),
                       radius=radius, kernel_radius=rho, gamma=1.0, d_e=1.0,
                       segment_id=0, joint_a=0, joint_b=1)


def build_one(grid, cell, delta_correction=False):
    """The coupling of one segment cell alone."""
    return build_coupling(grid, [cell], delta_correction)[0]


def ray_volumes(lo, hi, axis, rho, n_angles, chunk=128):
    """Oracle of ``coupling._cylinder_volumes`` that shares none of its
    algebra: volumes of the boxes [lo, hi] (m, 3) inside the cylinder of
    radius rho from the origin along ``axis`` by a periodic trapezoid rule
    of ``n_angles`` over the angle. In the (r, z) plane of each ray every
    box face and each cap is a line, so the axial chord is piecewise linear
    in r with breakpoints where two lines cross, and two-point Gauss on
    each piece integrates chord(r) r dr exactly. Pieces of zero width add
    nothing and are skipped."""
    axis = np.asarray(axis, float)
    length = float(np.linalg.norm(axis))
    e = axis / length
    n1 = np.cross(e, np.eye(3)[np.argmin(np.abs(e))])
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(e, n1)
    theta = 2.0 * np.pi * (np.arange(n_angles) + 0.5) / n_angles
    m = len(lo)
    total = np.zeros(m)
    # lines d_g r + e_g z = c: the two faces of each axis, then the caps
    line_e = np.append(e, 1.0)
    line_c = np.stack([np.concatenate([lo, np.zeros((m, 1))], axis=1),
                       np.concatenate([hi, np.full((m, 1), length)], axis=1)],
                      axis=-1)                                # (m, 4, 2)
    g, h = np.triu_indices(4, 1)
    num = (line_c[:, g, :, None] * line_e[h, None, None]
           - line_c[:, h, None, :] * line_e[g, None, None]).reshape(m, 1, -1)
    for s in range(0, n_angles, chunk):
        t = theta[s:s + chunk]
        d = np.cos(t)[:, None] * n1 + np.sin(t)[:, None] * n2
        line_d = np.concatenate([d, np.zeros((len(t), 1))], axis=1)
        det = np.repeat(line_d[:, g] * line_e[h] - line_d[:, h] * line_e[g],
                        4, axis=1)
        # the rays whose rectangle r <= rho, 0 <= z <= length meets the
        # box's slab of every axis
        ends = (np.array([0.0, rho])[:, None, None] * d
                + np.array([0.0, length])[:, None, None, None] * e)
        box, angle = np.nonzero(np.all(
            (ends.min(axis=(0, 1)) <= hi[:, None])
            & (ends.max(axis=(0, 1)) >= lo[:, None]), axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.concatenate([np.zeros((box.size, 1)),
                                np.full((box.size, 1), rho),
                                num[box, 0] / det[angle]], axis=-1)
        # parallel lines never cross: their non-finite crossing goes to 0
        # or rho, where it adds no piece
        r = np.sort(np.fmin(np.fmax(r, 0.0), rho), axis=-1)
        ray, left = np.nonzero(r[:, 1:] > r[:, :-1])
        r0, r1 = r[ray, left], r[ray, left + 1]
        half, mid = 0.5 * (r1 - r0), 0.5 * (r1 + r0)
        box, angle = box[ray], angle[ray]
        r = np.stack([mid - half / np.sqrt(3.0), mid + half / np.sqrt(3.0)])
        lower, upper = np.zeros(r.shape), np.full(r.shape, length)
        for a in range(3):
            base = r * d[angle, a]
            lo_a, hi_a = lo[box, a], hi[box, a]
            if e[a] == 0.0:
                upper = np.where((base >= lo_a) & (base <= hi_a), upper,
                                 -np.inf)
                continue
            z0, z1 = (lo_a - base) / e[a], (hi_a - base) / e[a]
            if e[a] < 0.0:
                z0, z1 = z1, z0
            lower, upper = np.maximum(lower, z0), np.minimum(upper, z1)
        terms = np.sum(np.maximum(upper - lower, 0.0) * r, axis=0) * half
        total += np.bincount(box, terms, m)
    return (2.0 * np.pi / n_angles) * total


class TestGeometryHelpers:
    def test_point_segment_distance_clamps_ends(self):
        d = point_segment_distance(np.array([[2.0, 1.0]]),
                                   np.array([0.0, 0.0]),
                                   np.array([1.0, 0.0]))
        assert d[0] == pytest.approx(np.sqrt(2.0))

    def test_point_segment_distance_degenerate(self):
        d = point_segment_distance(np.array([[3.0, 4.0]]),
                                   np.array([0.0, 0.0]),
                                   np.array([0.0, 0.0]))
        assert d[0] == pytest.approx(5.0)

    def test_mean_distance_axis_segment_through_cube(self):
        # MC oracle 0.38271 +- 7e-5 (unit cube, axial segment through the
        # center); the fixed-order midpoint rule is within a percent
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (1, 1, 1))
        val = mean_distance(g, 0, [0.5, 0.5, 0.0], [0.5, 0.5, 1.0])
        assert val == pytest.approx(0.38271, rel=0.02)

    def test_mean_distance_short_interior_segment(self):
        # MC oracle 0.43663 (same cube, segment z in [0.4, 0.6])
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (1, 1, 1))
        val = mean_distance(g, 0, [0.5, 0.5, 0.4], [0.5, 0.5, 0.6])
        assert val == pytest.approx(0.43663, rel=0.02)

    @pytest.mark.parametrize("dimension, shape, p0, p1", [
        ("3d", (3, 4, 5), [0.2, 0.3, 0.1], [0.7, 0.45, 0.8]),
        ("2d", (6, 5), [0.4, 0.4], [0.4, 0.4]),
        ("radial", (10,), [0.0], [0.0])], ids=["3d", "2d", "radial"])
    def test_mean_distance_of_cell_array_is_per_cell(self, dimension, shape,
                                                      p0, p1):
        g = BulkGrid(dimension, [0.0] * len(shape), [1.0] * len(shape),
                     shape)
        cells = np.array([[0, 7], [g.n_cells - 1, 3]])
        per_cell = [[mean_distance(g, int(c), p0, p1) for c in row]
                    for row in cells]
        assert all(type(v) is float for row in per_cell for v in row)
        assert np.array_equal(mean_distance(g, cells, p0, p1), per_cell)

    @pytest.mark.parametrize("dimension, p0, p1", [
        ("3d", [0.2, 0.3, 0.1], [0.55, 0.45, 0.6]),
        # on the cell edge x = h, y = 2h and far beyond the grid: there
        # |x - p0|^2 less the square of the projection loses 4e-12 of the
        # mean distance
        ("3d", [0.175, 0.35, -30.1], [0.175, 0.35, 49.9]),
        ("3d", [0.175, 0.35, 0.1], [0.175, 0.35, 0.6]),
        ("3d", [0.3, 0.2, 0.45], [0.3, 0.2, 0.45]),
        ("2d", [0.1, 0.4], [0.65, 0.5]),
        ("2d", [0.4, 0.3], [0.4, 0.3])],
        ids=["3d", "on_an_edge_long", "on_an_edge", "3d_degenerate", "2d",
             "2d_degenerate"])
    def test_mean_distance_matches_the_midpoints(self, dimension, p0, p1):
        # every cell of the grid against the distances of its 8 midpoints
        # per axis, listed one by one
        shape = (4, 4, 4)[:len(p0)]
        g = BulkGrid(dimension, [0.0] * len(p0), [0.7] * len(p0), shape)
        cells = np.arange(g.n_cells)
        lo = np.stack(np.unravel_index(cells, shape), axis=-1) * g.spacing
        t = (np.arange(8) + 0.5) / 8
        expect = []
        for corner in lo:
            pts = np.stack(np.meshgrid(*(corner[a] + g.spacing[a] * t
                                         for a in range(len(shape))),
                                       indexing="ij"), axis=-1)
            expect.append(np.mean(point_segment_distance(
                pts.reshape(-1, len(shape)), np.array(p0), np.array(p1))))
        got = mean_distance(g, cells, p0, p1)
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)

    def test_mean_distance_radial_closed_form(self):
        # annulus [0.2, 0.3]: (2/3)(r2^3 - r1^3)/(r2^2 - r1^2) = 0.2533...
        g = BulkGrid("radial", [0.0], [1.0], (10,))
        assert mean_distance(g, 2, [0.0], [0.0]) == pytest.approx(
            19.0 / 75.0, rel=1e-12)


class TestSegmentCoupling:
    def test_weights_partition_unity_2d(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (16, 16))
        cpl = build_one(g, make_cell([0.53, 0.47], [0.53, 0.47], rho=0.11))
        assert np.sum(cpl.weights) == pytest.approx(1.0, abs=1e-9)
        assert cpl.inside_fraction == pytest.approx(1.0, rel=0, abs=1e-6)

    def test_disc_inside_one_cell_exact(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cpl = build_one(g, make_cell([0.6, 0.4], [0.6, 0.4], rho=0.05))
        assert cpl.cells.tolist() == [9]
        assert cpl.inside_fraction == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_disc_at_four_cell_corner_is_symmetric(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cpl = build_one(g, make_cell([0.5, 0.5], [0.5, 0.5], rho=0.1))
        assert len(cpl.cells) == 4
        assert np.allclose(cpl.weights, 0.25, rtol=0, atol=1e-14)
        assert cpl.inside_fraction == pytest.approx(1.0, rel=0, abs=1e-14)
        # the midpoint sits on the corner: all four cells in the stencil
        assert len(cpl.stencil) == 4

    def test_clipped_support_renormalized(self):
        # support hangs over the domain boundary; deposition stays total
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (8, 8))
        cpl = build_one(g, make_cell([0.02, 0.5], [0.02, 0.5], rho=0.1))
        assert cpl.inside_fraction < 1.0 - 1e-6
        assert np.sum(cpl.weights) == pytest.approx(1.0, abs=1e-9)

    def test_half_clipped_disc_inside_fraction_exact(self):
        # centred on the left boundary: exactly half the disc is inside
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (8, 8))
        cpl = build_one(g, make_cell([0.0, 0.5], [0.0, 0.5], rho=0.1))
        assert cpl.inside_fraction == pytest.approx(0.5, rel=0, abs=1e-14)
        assert np.sum(cpl.weights) == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_disc_cell_overlaps_match_quadrature(self):
        # off-centre disc on an 8x8 grid: every cell's overlap area
        # against adaptive quadrature of the vertical chord
        center, rho = np.array([0.437, 0.561]), 0.19
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (8, 8))
        cpl = build_one(g, make_cell(center, center, rho=rho))
        weights = dict(zip(cpl.cells.tolist(), cpl.weights))
        for c in range(g.n_cells):
            lo = g.origin + np.array(np.unravel_index(c, g.shape)) * g.spacing
            hi = lo + g.spacing

            def chord(x):
                s = np.sqrt(max(rho ** 2 - (x - center[0]) ** 2, 0.0))
                return max(0.0, min(hi[1], center[1] + s)
                           - max(lo[1], center[1] - s))

            kinks = [center[0] + sgn * np.sqrt(rho ** 2 - (y - center[1]) ** 2)
                     for y in (lo[1], hi[1]) if abs(y - center[1]) < rho
                     for sgn in (-1.0, 1.0)]
            area, _ = quad(chord, lo[0], hi[0], epsabs=1e-15, epsrel=1e-13,
                           points=[k for k in kinks if lo[0] < k < hi[0]]
                           or None, limit=200)
            assert weights.get(c, 0.0) * np.pi * rho ** 2 == pytest.approx(
                area, rel=1e-11, abs=1e-15)

    def test_interior_support_captured_under_refinement_3d(self):
        # fully interior cylinder supports, axis-aligned and oblique: the
        # integration over cells must recover the whole kernel mass on
        # either grid
        cells = (make_cell([0.4, 0.5, 0.3], [0.4, 0.5, 0.7], rho=0.15),
                 make_cell([0.35, 0.52, 0.3], [0.61, 0.4, 0.66], rho=0.12))
        for cell in cells:
            for n in (4, 8):
                g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (n, n, n))
                cpl = build_one(g, cell)
                assert cpl.inside_fraction == pytest.approx(1.0, rel=0,
                                                            abs=1e-12)

    def test_axis_aligned_cylinder_closed_form(self):
        # z-aligned cylinder centred on a vertical cell edge: each of the
        # four cell columns holds a quarter disc times its axial overlap
        # with z in [0.1, 0.6] (0.15, 0.25 and 0.1 for the three layers)
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        cpl = build_one(g, make_cell([0.5, 0.5, 0.1], [0.5, 0.5, 0.6],
                                     rho=0.1))
        expect = {}
        for i in (1, 2):
            for j in (1, 2):
                for k, overlap in ((0, 0.15), (1, 0.25), (2, 0.1)):
                    expect[np.ravel_multi_index((i, j, k), g.shape)] = (
                        0.25 * overlap / 0.5)
        assert sorted(cpl.cells.tolist()) == sorted(expect)
        got = dict(zip(cpl.cells.tolist(), cpl.weights))
        for c, w in expect.items():
            assert got[c] == pytest.approx(w, rel=0, abs=1e-14)
        assert cpl.inside_fraction == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_oblique_cylinder_matches_monte_carlo(self):
        # oracle: 1.6e7 points uniform in the cylinder (seed 12345) binned
        # into the 4x4x4 cells; standard error sqrt(w (1 - w) / N) per
        # cell, at most 1.2e-4. Tolerance: 4 standard errors plus 1e-5, a
        # margin for an angular rule; the weights are exact to rounding.
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        cpl = build_one(g, make_cell(
            [0.38, 0.41, 0.30], [0.62, 0.55, 0.68], rho=0.09))
        oracle = {20: 2.75e-05, 21: 0.357878, 22: 0.0466107, 25: 0.0603424,
                  26: 0.0348099, 37: 0.0747551, 38: 0.1476, 41: 0.0330297,
                  42: 0.244947}
        n_samples = 1.6e7
        assert sorted(cpl.cells.tolist()) == sorted(oracle)
        assert cpl.inside_fraction == pytest.approx(1.0, rel=0, abs=1e-12)
        for c, w in zip(cpl.cells.tolist(), cpl.weights):
            sigma = np.sqrt(oracle[c] * (1.0 - oracle[c]) / n_samples)
            assert abs(w - oracle[c]) <= 4.0 * sigma + 1e-5

    @pytest.mark.parametrize("p0, p1, rho", [
        ([0.38, 0.45, 0.30], [0.62, 0.55, 0.68], 0.09),
        ([0.38, 0.45, 0.30], [0.62, 0.45, 0.68], 0.09),
        ([0.38, 0.45, 0.30], [0.30, 0.41, 0.10], 0.09),
        ([0.05, 0.1, 0.2], [0.2, 0.03, 0.5], 0.12),
        ([0.3, 0.35, 0.3], [0.52, 0.49, 0.51], 0.09),
        ([0.5, 0.5, 0.5], [0.3, 0.62, 0.71], 0.09),
        ([0.4, 0.45, 0.2], [0.4 + 4e-13, 0.46, 0.7], 0.09)],
        ids=["oblique", "normal_to_y", "all_negative", "clipped",
             "cap_near_a_node", "starts_on_a_node", "tiny_e_x"])
    def test_cylinder_volumes_match_ray_integration(self, p0, p1, rho):
        # every cell of the grid, box by box, against the periodic
        # trapezoid rule over 2^15 angles, which converges slowly: it is
        # 4e-10 of the cylinder off for e_y = 0, below 1e-12 at 2^20
        # angles. The cases: the support leaves the domain ("clipped"); the
        # top cap cuts the eight cells at a grid node; the start is a grid
        # node, where a clipped face corner lands on the axis; e_x = 8e-13,
        # below ``_PARALLEL``, where the x faces would carry a rounding of
        # 3e-5 of the cylinder
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        p0 = np.array(p0)
        axis = np.array(p1) - p0
        lo = np.stack(np.unravel_index(np.arange(g.n_cells), g.shape),
                      axis=-1) * g.spacing - p0
        hi = lo + g.spacing
        m = g.n_cells
        got = coupling._cylinder_volumes(lo, hi, np.tile(axis, (m, 1)),
                                         np.full(m, rho))
        volume = np.pi * rho ** 2 * np.linalg.norm(axis)
        expect = ray_volumes(lo, hi, axis, rho, 2 ** 15)
        assert np.count_nonzero(expect) >= 5
        assert np.max(np.abs(got - expect)) <= 1e-9 * volume
        cpl = build_one(g, make_cell(p0, p1, rho=rho))
        assert np.all(cpl.weights > 0.0)
        assert (cpl.inside_fraction < 1.0 - 1e-6) == (p0[0] == 0.05)

    @pytest.mark.parametrize("band, bound", [
        ((1e-3, 1e-2), 5e-13), ((1e-2, 1e-1), 1e-13),
        ((1e-1, 1.0 / np.sqrt(3.0)), 1e-13), (None, 1e-13)],
        ids=["e_a_1e-3", "e_a_1e-2", "e_a_1e-1", "generic"])
    def test_random_oblique_supports_sum_to_their_cylinder(self, band, bound):
        # 300 supports inside the domain, whose smallest axis component
        # |e_a| lies in the band, or of random direction with every |e_a|
        # at least 1e-3. The volumes are fanned from the axis, so their
        # rounding grows like eps / |e_a| (ROADMAP Fix first 4): 2e-13 in
        # the first band, below 1e-13 above it
        rng = np.random.default_rng(7)
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        cells = []
        while len(cells) < 300:
            if band is None:
                e = rng.normal(size=3)
                e /= np.linalg.norm(e)
            else:
                small = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(
                    *np.log10(band))
                phi = rng.uniform(0.0, 2.0 * np.pi)
                e = np.roll([small, np.sqrt(1.0 - small ** 2) * np.cos(phi),
                             np.sqrt(1.0 - small ** 2) * np.sin(phi)],
                            rng.integers(3))
            if np.min(np.abs(e)) < (band or (1e-3,))[0]:
                continue
            rho = rng.uniform(0.02, 0.15)
            p0 = rng.uniform(rho, 1.0 - rho, 3)
            p1 = p0 + rng.uniform(0.05, 0.4) * e
            if np.all((p1 > rho) & (p1 < 1.0 - rho)):
                cells.append(make_cell(p0, p1, rho=rho))
        worst = max(abs(1.0 - c.inside_fraction)
                    for c in build_coupling(g, cells))
        assert worst <= bound

    # The oblique cases below pin the closed-form weights at rounding
    # level. Each pinned value agrees within 1e-12 with the same build from
    # ``ray_volumes`` at 2^20 angles.

    def test_oblique_cylinder_normal_to_an_axis_pinned(self):
        # e_y = 0: every ray is in or out of each y slab as a whole
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        cpl = build_one(g, make_cell(
            [0.38, 0.45, 0.30], [0.62, 0.45, 0.68], rho=0.09))
        pinned = {21: 0.3456182262359536, 22: 0.07164788634045001,
                  25: 0.07292274447934677, 26: 0.009811142944249555,
                  37: 0.09360926068657643, 38: 0.3236568518898274,
                  41: 0.01416555807180728, 42: 0.068568329351789}
        assert sorted(cpl.cells.tolist()) == sorted(pinned)
        assert cpl.inside_fraction == pytest.approx(1.0, rel=1e-13, abs=0.0)
        for c, w in zip(cpl.cells.tolist(), cpl.weights):
            assert w == pytest.approx(pinned[c], rel=1e-13, abs=0.0)

    def test_clipped_oblique_cylinder_pinned(self):
        # the support leaves the domain through the x = 0 and y = 0 faces
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        cpl = build_one(g, make_cell(
            [0.05, 0.1, 0.2], [0.2, 0.03, 0.5], rho=0.12))
        # cell 18 holds 8.9e-9 of the support, so a rounding of the size of
        # the support moves it by a relative 1e-8: it is held to its exact
        # value within 1e-15 (of the support inside the domain). The oracle
        # is mpmath at 40 digits on the exact binary inputs: the volumes of
        # cell 18 and of the domain as integrals along the axis of the area
        # of the disc and the box's convex cross-section (closed form per
        # slice), by tanh-sinh split at every event of the slice (a box
        # corner, a polygon vertex on the circle, a polygon edge tangent to
        # it); 30 and 50 digits agree
        pinned = {0: 0.1827303885964687, 1: 0.7363365460713877,
                  2: 0.0444673390121895, 17: 0.03646571738678302}
        exact_18 = 8.933170963159244e-09
        assert sorted(cpl.cells.tolist()) == sorted(pinned) + [18]
        assert cpl.inside_fraction == pytest.approx(0.7928547577929391,
                                                    rel=1e-13, abs=0.0)
        for c, w in zip(cpl.cells.tolist(), cpl.weights):
            if c == 18:
                assert w == pytest.approx(exact_18, rel=0.0, abs=1e-15)
            else:
                assert w == pytest.approx(pinned[c], rel=1e-13, abs=0.0)

    def test_oblique_delta_correction_pinned(self):
        # the midpoint (0.45, 0.475, 0.5) is on a z face: a two-cell
        # stencil, whose RMS mean distance is below the kernel radius
        g = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (8, 8, 8))
        cpl = build_one(g, make_cell(
            [0.3, 0.45, 0.3], [0.6, 0.5, 0.7], rho=0.3),
            delta_correction=True)
        assert cpl.stencil.tolist() == [219, 220]
        assert cpl.delta == pytest.approx(0.06717029163685365, rel=1e-13,
                                          abs=0.0)
        assert cpl.cells.size == 161
        assert np.sum(cpl.weights * cpl.cells) == pytest.approx(
            228.29907042917932, rel=1e-13, abs=0.0)

    def test_support_outside_grid_rejected(self):
        # the support's bounding box misses the grid beyond one face
        g3 = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        with pytest.raises(CouplingError, match="outside the bulk grid"):
            build_one(g3, make_cell([-2.0, 0.5, 0.5], [-2.1, 0.5, 0.6]))
        g2 = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        with pytest.raises(CouplingError, match="outside the bulk grid"):
            build_one(g2, make_cell([3.0, 0.5], [3.0, 0.5]))

    def test_support_must_match_grid_dimension(self):
        g2 = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        with pytest.raises(CouplingError, match="degenerate"):
            build_one(g2, make_cell([0.3, 0.5], [0.6, 0.5]))
        g3 = BulkGrid("3d", [0, 0, 0], [1, 1, 1], (4, 4, 4))
        with pytest.raises(CouplingError, match="length"):
            build_one(g3, make_cell([0.5] * 3, [0.5] * 3))

    def test_clipped_large_kernel_builds_without_warnings(self):
        # kernel factor 12 on 16x16: every support is cut by the boundary
        specs = three_tube_specs(0.2, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, cpl = parallel_level_coupling(specs, 16)
        assert all(c.inside_fraction < 1.0 - 1e-6 for c in cpl)
        for c in cpl:
            assert np.sum(c.weights) == pytest.approx(1.0, abs=1e-12)

    def test_radial_weights_closed_form(self):
        g = BulkGrid("radial", [0.0], [1.0], (10,))
        cell = make_cell([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], rho=0.25)
        cpl = build_one(g, cell)
        # annular overlap fractions of the 0.25-radius disc: full cells
        # up to 0.2, a partial ring [0.2, 0.25], nothing beyond
        expect = np.array([0.1 ** 2, 0.2 ** 2 - 0.1 ** 2,
                           0.25 ** 2 - 0.2 ** 2]) / 0.25 ** 2
        assert np.allclose(cpl.weights, expect, atol=1e-12)

    @pytest.mark.parametrize("rho", [0.25, 0.05])
    def test_radial_grid_off_the_axis(self, rho):
        # inner radius 0.01: the tube stays on r = 0, inside the hole, and
        # the stencil stays the innermost cell. The weights are the annular
        # shares (r_hi^2 - r_lo^2) / rho^2 renormalized by the share of the
        # disc outside the hole, 1 - 0.01^2 / rho^2
        g = BulkGrid("radial", [0.01], [0.99], (10,))
        cpl = build_one(g, make_cell([0.0] * 3, [0.0, 0.0, 1.0], rho=rho),
                        delta_correction=True)
        edges = np.minimum(0.01 + 0.099 * np.arange(11), rho)
        shares = (edges[1:] ** 2 - edges[:-1] ** 2) / rho ** 2
        assert cpl.cells.tolist() == np.flatnonzero(shares).tolist()
        assert np.allclose(cpl.weights, shares[cpl.cells] / np.sum(shares),
                           rtol=0.0, atol=2e-16)
        assert cpl.inside_fraction == pytest.approx(1.0 - 0.01 ** 2 / rho ** 2,
                                                    rel=0.0, abs=4e-16)
        assert cpl.stencil.tolist() == [0]
        # the RMS distance of the one stencil cell, clamped inside the disc
        assert cpl.delta == min(mean_distance(g, 0, [0.0], [0.0]),
                                rho * (1.0 - 1e-6))

    def test_near_tangent_disc_inside_fraction(self):
        # criterion 5's kernel study at factor 5, the second tube on 16^2:
        # rho = 5 * 0.15000000000000002 = 0.7500000000000001 meets the grid
        # lines 0.75 from the centre (0.5, -0.5). The oracle integrates the
        # vertical chord of the disc clipped to [-1, 1]^2 in closed form
        # with mpmath at 40 digits, split where the chord meets y = -1
        specs = three_tube_specs(0.2, 5.0)
        assert specs[1].kernel_radius == 0.7500000000000001
        _, _, cpl = parallel_level_coupling(specs, 16)
        assert cpl[1].inside_fraction == pytest.approx(
            0.7819200418176051009, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("axis", [None, 0, 1, 2],
                             ids=["2d", "3d_x", "3d_y", "3d_z"])
    def test_near_tangent_supports_have_no_negative_box(self, axis):
        # rho = k h (1 + delta) around a grid node: the disc meets, or just
        # misses, the grid lines k h away. No box may hold less than
        # -1e-15 of the support: the arcsine of x / rho and
        # sqrt(rho^2 - x^2) turned a one-ulp gap into sqrt(eps)
        if axis is None:
            g = BulkGrid("2d", [-1.0, -1.0], [2.0, 2.0], (16, 16))
            p0 = p1 = np.array([[0.5, -0.5]])
        else:
            g = BulkGrid("3d", [-1.0] * 3, [2.0] * 3, (16, 16, 8))
            p0 = np.array([[0.5, -0.5, 0.25]])
            p1 = p0.copy()
            p1[0, axis] -= 0.8
        length = np.linalg.norm(p1 - p0) or 1.0
        for k in range(1, 7):
            for delta in (0.0, 2e-16, -2e-16, 4e-16, -4e-16, 1e-15, -1e-15,
                          1e-13, -1e-13, 1e-10, -1e-10):
                rho = np.array([k * 0.125 * (1.0 + delta)])
                owner, _, lo, hi = coupling._candidate_boxes(g, p0, p1, rho)
                measures = coupling._support_measures(
                    g, [make_cell(p0[0], p1[0])], p0, p1, rho, owner, lo, hi)
                support = np.pi * rho[0] ** 2 * length
                assert np.min(measures) / support >= -1e-15, (k, delta)

    def test_delta_correction_bounded_by_kernel(self):
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cpl = build_one(g, make_cell([0.5, 0.5], [0.5, 0.5], rho=0.3),
                        delta_correction=True)
        assert 0.0 < cpl.delta < 0.3

    def test_build_coupling_maps_all_cells(self):
        net = simple_network()
        mesh = discretize_network(net, 0.01)
        g = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                     (8, 8, 15))
        cpls = build_coupling(g, mesh.cells, delta_correction=True)
        assert len(cpls) == mesh.n_cells
        for cpl in cpls:
            assert np.sum(cpl.weights) == pytest.approx(1.0, abs=1e-6)
        # fingerprints, pinned as in the oblique cases above: the second
        # segment is oblique with e_y = 0; every delta is clamped just
        # below its kernel radius
        assert sum(np.sum(c.weights * c.cells) for c in cpls) == (
            pytest.approx(6201.5, rel=1e-13, abs=0.0))
        assert sum(np.sum(c.weights ** 2) for c in cpls) == (
            pytest.approx(3.0789265731515405, rel=1e-13, abs=0.0))
        assert sum(c.delta for c in cpls) == pytest.approx(
            0.05099994899999999, rel=1e-13, abs=0.0)


def assert_same_couplings(got, expect):
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert np.array_equal(g.cells, e.cells)
        assert g.cells.dtype == e.cells.dtype
        assert np.array_equal(g.weights, e.weights)
        assert g.inside_fraction == e.inside_fraction
        assert np.array_equal(g.stencil, e.stencil)
        assert g.delta == e.delta


class TestOnePassBuild:
    """``build_coupling`` builds all segment cells of a grid at once; each
    cell's coupling is the one it gets alone, to the bit."""

    MIXED_3D = (
        make_cell([0.5, 0.5, 0.1], [0.5, 0.5, 0.6], rho=0.1),      # along z
        make_cell([0.38, 0.41, 0.30], [0.62, 0.55, 0.68], rho=0.09),
        make_cell([0.38, 0.45, 0.30], [0.62, 0.45, 0.68], rho=0.09),  # e_y 0
        make_cell([0.05, 0.1, 0.2], [0.2, 0.03, 0.5], rho=0.12),   # clipped
        # midpoint on a z face: a two-cell stencil
        make_cell([0.3, 0.45, 0.3], [0.6, 0.5, 0.7], rho=0.3),
        make_cell([0.9, 0.2, 0.55], [0.7, 0.2, 0.55], rho=0.05),   # along -x
    )
    MIXED_2D = tuple(make_cell(c, c, rho=r) for c, r in (
        ([0.53, 0.47], 0.11), ([0.5, 0.5], 0.1), ([0.0, 0.5], 0.1),
        ([0.437, 0.561], 0.19), ([0.6, 0.4], 0.05)))

    @pytest.mark.parametrize("delta_correction", [False, True])
    @pytest.mark.parametrize("dimension, shape, cells", [
        ("3d", (8, 8, 8), MIXED_3D), ("3d", (5, 7, 6), MIXED_3D),
        ("2d", (8, 8), MIXED_2D),
        ("radial", (10,), tuple(make_cell([0.0] * 3, [0.0, 0.0, 1.0], rho=r)
                                for r in (0.25, 0.1, 0.5)))],
        ids=["3d", "3d_uneven", "2d", "radial"])
    def test_batch_equals_cells_alone(self, dimension, shape, cells,
                                      delta_correction):
        g = BulkGrid(dimension, [0.0] * len(shape), [1.0] * len(shape),
                     shape)
        alone = [build_one(g, c, delta_correction) for c in cells]
        assert_same_couplings(build_coupling(g, cells, delta_correction),
                              alone)
        # and in another order
        assert_same_couplings(
            build_coupling(g, cells[::-1], delta_correction), alone[::-1])

    def test_root_network_fingerprints(self):
        # seed 2024 on 16x16x30 with the delta correction, as the root
        # workloads build it: 262 segment cells, 1278 weights and 362
        # stencil cells, so every chunk of the mean distances is full but
        # the last.
        mesh = discretize_network(synthetic_root_network(seed=2024), 0.005)
        g = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                     (16, 16, 30))
        cpls = build_coupling(g, mesh.cells, delta_correction=True)
        assert sum(c.cells.size for c in cpls) == 1278
        assert sum(c.stencil.size for c in cpls) == 362
        assert sum(np.sum(c.weights * c.cells) for c in cpls) == (
            pytest.approx(925536.9068414826, rel=1e-13, abs=0.0))
        assert sum(np.sum(c.weights ** 2) for c in cpls) == (
            pytest.approx(139.50801221590564, rel=1e-13, abs=0.0))
        assert sum(c.delta for c in cpls) == pytest.approx(
            0.38021416962066773, rel=1e-13, abs=0.0)

    def test_memory_peak_of_a_root_network_build(self):
        # the oblique boxes and the mean distances go in chunks: the
        # traced peak on 32x32x60 is about 3.2 MiB, where one chunk of all
        # stencil cells would take about 11, and one of all oblique boxes 23
        mesh = discretize_network(synthetic_root_network(seed=2024), 0.005)
        g = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                     (32, 32, 60))
        tracemalloc.start()
        try:
            build_coupling(g, mesh.cells, delta_correction=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    def test_error_names_the_cell_outside_the_grid(self):
        mesh = discretize_network(simple_network(), 0.01)
        g = BulkGrid("3d", [-0.04, -0.04, -0.15], [0.08, 0.08, 0.15],
                     (8, 8, 15))
        cells = list(mesh.cells)
        cells[5] = replace(cells[5], p0=cells[5].p0 + [1.0, 0.0, 0.0],
                           p1=cells[5].p1 + [1.0, 0.0, 0.0])
        name = rf"segment cell 5 \(segment {cells[5].segment_id}\)"
        with pytest.raises(CouplingError,
                           match=f"^{name} lies outside the bulk grid$"):
            build_coupling(g, cells)

    def test_error_names_the_cell_whose_support_misses_the_grid(self):
        # the second disc's bounding box overlaps the corner cell, the disc
        # does not: it is 0.0566 from the corner, its radius 0.05
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cells = [replace(make_cell(c, c, rho=0.05), segment_id=i + 10)
                 for i, c in enumerate(([0.5, 0.5], [-0.04, 1.04],
                                        [0.2, 0.3]))]
        with pytest.raises(CouplingError, match=r"^kernel support of segment "
                           r"cell 1 \(segment 11\) does not intersect"):
            build_coupling(g, cells)

    def test_error_names_the_cell_whose_midpoint_is_outside(self):
        # the disc reaches into the grid, its center does not
        g = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        cells = [make_cell(c, c, rho=0.1) for c in ([0.5, 0.5], [-0.02, 0.5])]
        with pytest.raises(CouplingError, match=r"^midpoint of segment cell 1 "
                           r"\(segment 0\) lies outside the bulk grid"):
            build_coupling(g, cells)


class TestNetworkFormat:
    def test_round_trip(self, tmp_path):
        net = simple_network()
        path = tmp_path / "net.txt"
        path.write_text("node 0 0 0 0\nnode 1 0 0 -0.06\nnode 2 0.03 0 -0.09\n"
                        "seg 0 0 1 0.002 3 2e-11 5e-13\n"
                        "seg 1 1 2 0.001 3 2e-11 5e-14\n")
        back = parse_network(path)
        assert np.allclose(back.nodes, net.nodes)
        assert back.segments == net.segments

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# comment\n\nnode 0 0 0 0\nnode 1 0 0 -1 # inline\n"
                        "seg 0 0 1 0.002 3 2e-11 5e-13\n")
        net = parse_network(path)
        assert len(net.nodes) == 2 and len(net.segments) == 1

    def test_bad_record_reports_line_number(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("node 0 0 0 0\nnode 1 0 0 -1\nseg 0 0 1 oops 3 1 1\n")
        with pytest.raises(NetworkFormatError, match=r"net\.txt:3"):
            parse_network(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("vertex 0 0 0 0\n")
        with pytest.raises(NetworkFormatError, match=":1"):
            parse_network(path)

    def test_non_contiguous_node_ids_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("node 0 0 0 0\nnode 2 0 0 -1\n")
        with pytest.raises(NetworkFormatError, match="0..n-1"):
            parse_network(path)

    def test_validation_of_segment_geometry(self):
        nodes = np.zeros((2, 3))
        with pytest.raises(ValueError, match="zero-length"):
            TubeNetwork(nodes=nodes,
                        segments=[Segment(0, 1, 1e-3, 3.0, 1.0, 1.0)])


class TestDiscretization:
    def test_cell_lengths_sum_to_network_length(self):
        net = simple_network()
        mesh = discretize_network(net, 0.01)
        assert sum(c.length for c in mesh.cells) == pytest.approx(
            sum(net.segment_length(s) for s in net.segments), rel=1e-12)

    def test_target_length_respected(self):
        net = simple_network()
        mesh = discretize_network(net, 0.01)
        assert max(c.length for c in mesh.cells) <= 0.01 + 1e-12

    def test_joint_connectivity(self):
        net = simple_network()
        mesh = discretize_network(net, 0.01)
        # every interior joint joins exactly two cell ends here (no branch)
        degrees = np.bincount([c.joint_a for c in mesh.cells]
                              + [c.joint_b for c in mesh.cells],
                              minlength=mesh.n_joints).tolist()
        assert degrees.count(1) == 2            # collar + tip
        assert all(d in (1, 2) for d in degrees)

    def test_target_length_must_be_finite_and_positive(self):
        # ceil(length / target), clamped to 1, would give a non-positive
        # target one cell per segment
        net = simple_network()
        for target in (-0.005, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                discretize_network(net, target)

    def test_collar_node_is_topmost(self):
        net = simple_network()
        assert net.collar_node() == 0


class TestSyntheticRoot:
    def test_deterministic_for_seed(self):
        a = synthetic_root_network(seed=2024)
        b = synthetic_root_network(seed=2024)
        assert np.allclose(a.nodes, b.nodes)
        assert a.segments == b.segments

    def test_stays_inside_soil_column(self):
        net = synthetic_root_network(seed=2024)
        assert np.all(np.abs(net.nodes[:, :2]) <= 0.04)
        assert np.all(net.nodes[:, 2] >= -0.15)
        assert net.collar_node() == 0

    def test_radii_taper_towards_tips(self):
        net = synthetic_root_network(seed=2024)
        taproot = [s for s in net.segments if s.radius > 1e-3]
        assert taproot[0].radius > taproot[-1].radius
