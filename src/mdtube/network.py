"""Embedded 1D tube networks: geometry, file format, discretization.

The native plain-text format has one record per line::

    node <id> <x> <y> <z>
    seg <id> <node_a> <node_b> <R> <rho_factor> <gamma> <D_e>

with ``#`` comments. The kernel radius of a segment is
``rho = rho_factor * R``. Boundary conditions live on the joints of the
discretized network: the caller sets Dirichlet values on
``NetworkMesh.joint_dirichlet`` (e.g. the root collar, whose node index is
its joint); all other terminal joints are zero-flux.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Segment:
    node_a: int
    node_b: int
    radius: float
    rho_factor: float
    gamma: float
    d_e: float

    @property
    def kernel_radius(self) -> float:
        return self.rho_factor * self.radius


@dataclass
class TubeNetwork:
    nodes: np.ndarray                    # (n, 3) positions [m]
    segments: list[Segment]

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, float).reshape(-1, 3)
        for s in self.segments:
            if s.radius <= 0.0:
                raise ValueError("segment radius must be positive")
            if s.rho_factor < 1.0:
                raise ValueError("kernel radius must be >= tube radius")
            if self.segment_length(s) <= 0.0:
                raise ValueError("zero-length segment")

    def segment_length(self, seg: Segment) -> float:
        return float(np.linalg.norm(self.nodes[seg.node_b]
                                    - self.nodes[seg.node_a]))

    def collar_node(self) -> int:
        """Node with the maximum z coordinate (the root collar)."""
        return int(np.argmax(self.nodes[:, 2]))


class NetworkFormatError(ValueError):
    pass


def parse_network(path) -> TubeNetwork:
    """Read a network file in the native format. Raises
    ``NetworkFormatError``, naming the file and line, for a record that is
    malformed, repeats a node or segment id, holds a non-finite number or
    a negative gamma or D_e, or joins a node that the file does not hold;
    and, naming the file, for node ids other than 0..n-1 and for a network
    that ``TubeNetwork`` refuses."""
    nodes: dict[int, tuple[int, tuple[float, ...]]] = {}
    segments: dict[int, tuple[int, Segment]] = {}     # id: (line, record)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "node" and len(parts) == 5:
                    table = nodes
                    record = numbers = tuple(map(float, parts[2:5]))
                elif parts[0] == "seg" and len(parts) == 8:
                    table, numbers = segments, tuple(map(float, parts[4:8]))
                    record = Segment(int(parts[2]), int(parts[3]), *numbers)
                    if record.gamma < 0.0 or record.d_e < 0.0:
                        raise ValueError("gamma and D_e must be >= 0")
                else:
                    raise ValueError("unknown record")
                if not all(map(np.isfinite, numbers)):
                    raise ValueError("numbers must be finite")
                ident = int(parts[1])
                if ident in table:
                    raise ValueError(f"{parts[0]} id {ident} repeats line "
                                     f"{table[ident][0]}")
                table[ident] = (lineno, record)
            except (ValueError, IndexError) as exc:
                raise NetworkFormatError(
                    f"{path}:{lineno}: bad record {line!r}: {exc}") from exc
    if not nodes:
        raise NetworkFormatError(f"{path}: no nodes")
    ids = sorted(nodes)
    if ids != list(range(len(ids))):
        raise NetworkFormatError(f"{path}: node ids must be 0..n-1")
    for lineno, seg in segments.values():
        for node in (seg.node_a, seg.node_b):
            if not 0 <= node < len(ids):
                raise NetworkFormatError(
                    f"{path}:{lineno}: node {node} is not among the file's "
                    f"nodes 0..{len(ids) - 1}")
    try:
        return TubeNetwork(
            nodes=np.array([nodes[i][1] for i in ids]),
            segments=[segments[i][1] for i in sorted(segments)])
    except ValueError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from exc


@dataclass
class SegmentCell:
    """One 1D finite-volume cell of the discretized network."""

    p0: np.ndarray
    p1: np.ndarray
    length: float
    radius: float
    kernel_radius: float
    gamma: float
    d_e: float
    segment_id: int
    joint_a: int                # joint index at p0 end
    joint_b: int                # joint index at p1 end

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p0 + self.p1)


@dataclass
class NetworkMesh:
    """Discretized network: cells plus joint connectivity for axial TPFA.

    Joints are the original network nodes, joints 0..n-1 in node order,
    plus subdivision points; each cell end attaches to a joint. Dirichlet
    joints carry a fixed value, set by the caller; joints with a single
    attached cell end and no Dirichlet value are zero-flux.
    """

    cells: list[SegmentCell]
    n_joints: int
    joint_dirichlet: dict[int, float] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def discretize_network(net: TubeNetwork, target_length: float) -> NetworkMesh:
    """Split segments into cells of roughly ``target_length``, a finite
    positive length. The network's n nodes are joints 0..n-1, node i
    joint i; the subdivision points are numbered after them."""
    if not (np.isfinite(target_length) and target_length > 0.0):
        raise ValueError(f"target cell length {target_length!r} must be "
                         "finite and positive")
    cells: list[SegmentCell] = []
    n_joints = len(net.nodes)

    for sid, seg in enumerate(net.segments):
        a, b = net.nodes[seg.node_a], net.nodes[seg.node_b]
        length = net.segment_length(seg)
        n_sub = max(1, int(np.ceil(length / target_length)))
        ts = np.linspace(0.0, 1.0, n_sub + 1)
        # the cells' end points, row i the start of cell i and the end of
        # cell i - 1
        ends = a + ts[:, None] * (b - a)
        joints = ([seg.node_a] + list(range(n_joints, n_joints + n_sub - 1))
                  + [seg.node_b])
        n_joints += n_sub - 1
        for i in range(n_sub):
            cells.append(SegmentCell(p0=ends[i], p1=ends[i + 1],
                                     length=length / n_sub,
                                     radius=seg.radius,
                                     kernel_radius=seg.kernel_radius,
                                     gamma=seg.gamma, d_e=seg.d_e,
                                     segment_id=sid,
                                     joint_a=joints[i], joint_b=joints[i + 1]))

    return NetworkMesh(cells=cells, n_joints=n_joints)


def synthetic_root_network(n_laterals: int = 24,
                           depth: float = 0.12,
                           lateral_length: float = 0.035,
                           taproot_radius: float = 2.0e-3,
                           lateral_radius: float = 5.0e-4,
                           rho_factor: float = 3.0,
                           gamma_taproot: float = 2.0e-11,
                           gamma_lateral: float = 2.0e-11,
                           d_e_taproot: float = 5.0e-13,
                           d_e_lateral: float = 5.0e-14,
                           segments_per_branch: int = 6,
                           seed: int = 2024) -> TubeNetwork:
    """Branched taproot-plus-laterals root system for self-contained runs.

    The collar sits at the origin; the taproot grows straight down to
    ``-depth`` and laterals branch off at random azimuths with a downward
    tilt. Radii taper towards the tips. All lengths are in meters.
    """
    rng = np.random.default_rng(seed)
    nodes = [np.zeros(3)]
    segments: list[Segment] = []

    # taproot, tapering with depth
    n_tap = 2 * segments_per_branch
    zs = np.linspace(0.0, -depth, n_tap + 1)
    for i in range(n_tap):
        nodes.append(np.array([0.0, 0.0, zs[i + 1]]))
        taper = 1.0 - 0.6 * (i / n_tap)
        segments.append(Segment(len(nodes) - 2, len(nodes) - 1,
                                taproot_radius * taper, rho_factor,
                                gamma_taproot, d_e_taproot))

    # laterals from interior taproot nodes, kept inside an 8x8 cm column
    column_lo = np.array([-0.037, -0.037, -0.148])
    column_hi = np.array([0.037, 0.037, -0.002])
    n_sub = segments_per_branch
    steps = np.arange(1, n_sub + 1)[:, None]
    for il in range(n_laterals):
        base = 1 + int(rng.integers(1, n_tap - 1))
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = rng.uniform(0.2, 0.7)          # radians below horizontal
        direction = np.array([np.cos(azimuth) * np.cos(tilt),
                              np.sin(azimuth) * np.cos(tilt),
                              -np.sin(tilt)])
        length = lateral_length * rng.uniform(0.6, 1.3)
        prev, first = base, len(nodes)
        nodes.extend(np.clip(nodes[base] + direction * length * steps / n_sub,
                             column_lo, column_hi))
        for i in range(n_sub):
            taper = 1.0 - 0.5 * (i / n_sub)
            segments.append(Segment(prev, first + i,
                                    lateral_radius * taper, rho_factor,
                                    gamma_lateral, d_e_lateral))
            prev = first + i

    return TubeNetwork(nodes=np.array(nodes), segments=segments)
