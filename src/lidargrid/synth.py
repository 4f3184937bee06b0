"""Synthetic scenes with exact ground truth for pipeline testing.

A multi-beam sensor at the origin scans a (possibly sloped) ground plane
by ray casting, which reproduces the characteristic ring pattern.  Box
obstacles are modeled as volumetric scatterers: each box contributes
returns sampled over its volume, culled against occlusion by nearer
boxes and the ground.  A single-scan surface model would only ever see
one or two faces of a box, leaving footprints too thin for any
grid-based detector to retain; the volumetric model emulates the
aggregated coverage the downstream pipeline is specified against while
keeping inter-object occlusion physical.

Every point carries a label (ground or the index of its source box), so
detection quality can be scored exactly.  Only a frame's random draws
use its seed, noise and density, so both cached tables are keyed on the
scene with those three set to zero.  ``_scan`` holds the rays whose
ground hit is in range, keyed without the boxes too; ``_ground_returns``
cuts from it, on its own cache miss, the rays that return from the
ground.  The last eight of each are kept, about 0.4 MB each for the
default sensor.  A frame then draws only its random parts: range noise
on those hits, and the box samples.  A box's samples are tested only
against the boxes that ``_may_hide`` them, a conservative test on the
boxes' circumscribed circles; in the bench scene 2 of the 12 pairs are
kept.  Frames are byte-identical to testing every ray and every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import MAX_CELLS, ObstacleEstimate, PointCloudFrame, check_real, check_tuple, check_whole

GROUND_LABEL = -1

GROUND_INTENSITY = 0.5
OBSTACLE_INTENSITY = 0.8


@dataclass(frozen=True)
class BoxSpec:
    """An upright box obstacle resting ``clearance`` meters above the ground."""

    center_x: float
    center_y: float
    length: float = 5.0
    width: float = 2.0
    height: float = 2.0
    yaw: float = 0.0
    clearance: float = 0.3

    def __post_init__(self):
        for name in ("center_x", "center_y", "yaw", "clearance"):
            check_real(name, getattr(self, name))
        for name in ("length", "width", "height"):
            check_real(name, getattr(self, name), 0.0, open_low=True)


@dataclass(frozen=True)
class SceneSpec:
    """Scene content plus the sensor model.

    The ground plane passes ``sensor_height`` below the sensor at x = 0;
    ``ground_slope`` tilts it about the y axis (height grows with x).
    ``obstacle_density`` sets box returns per square meter of footprint.
    """

    ground_slope: float = 0.0
    noise_sigma: float = 0.02
    obstacles: tuple = ()
    beam_count: int = 16
    vertical_fov_deg: tuple = (-15.0, 15.0)
    azimuth_resolution_deg: float = 0.2
    max_range: float = 100.0
    sensor_height: float = 1.8
    rng_seed: int = 0
    obstacle_density: float = 150.0

    def __post_init__(self):
        check_whole("beam_count", self.beam_count, 1)
        check_real("azimuth_resolution_deg", self.azimuth_resolution_deg, 0.0, open_low=True)
        per_beam = 360.0 / self.azimuth_resolution_deg  # float: it may not fit an int
        if self.beam_count > MAX_CELLS or self.beam_count * per_beam > MAX_CELLS:
            raise ValueError(f"the scan has more than {MAX_CELLS} rays")
        fov = check_tuple("vertical_fov_deg", self.vertical_fov_deg, 2)
        for v in fov:
            check_real("vertical_fov_deg", v)
        object.__setattr__(self, "vertical_fov_deg", fov)
        check_real("noise_sigma", self.noise_sigma, 0.0)
        check_real("obstacle_density", self.obstacle_density, 0.0)
        check_real("max_range", self.max_range, 0.0, open_low=True)
        check_real("ground_slope", self.ground_slope)
        check_real("sensor_height", self.sensor_height, 0.0, open_low=True)
        check_whole("rng_seed", self.rng_seed)
        object.__setattr__(self, "obstacles", check_tuple("obstacles", self.obstacles))
        for box in self.obstacles:
            if not isinstance(box, BoxSpec):
                raise ValueError(f"obstacles must be BoxSpec boxes, got {box!r}")
        if any(self.obstacle_density * b.length * b.width > MAX_CELLS for b in self.obstacles):
            raise ValueError(f"a box takes more than {MAX_CELLS} samples")

    @property
    def ray_count(self) -> int:
        return self.beam_count * math.ceil(360.0 / self.azimuth_resolution_deg)


@dataclass(frozen=True, eq=False)
class LabeledFrame:
    """A frame plus a per-point label: GROUND_LABEL or the source box index."""

    frame: PointCloudFrame
    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.shape[0] != len(self.frame):
            raise ValueError("labels must cover every point")
        object.__setattr__(self, "labels", lab)


def _ray_directions(spec: SceneSpec) -> np.ndarray:
    """Unit direction per (beam, azimuth) ray, beams-major, shape (R, 3)."""
    lo, hi = spec.vertical_fov_deg
    if spec.beam_count == 1:
        els = np.array([math.radians((lo + hi) / 2.0)])
    else:
        els = np.radians(np.linspace(lo, hi, spec.beam_count))
    azs = np.radians(np.arange(0.0, 360.0, spec.azimuth_resolution_deg))
    ce, se = np.cos(els), np.sin(els)
    ca, sa = np.cos(azs), np.sin(azs)
    dirs = np.empty((els.size, azs.size, 3))
    dirs[:, :, 0] = ce[:, None] * ca[None, :]
    dirs[:, :, 1] = ce[:, None] * sa[None, :]
    dirs[:, :, 2] = se[:, None]
    return dirs.reshape(-1, 3)


def _ground_hit_t(spec: SceneSpec, dirs: np.ndarray) -> np.ndarray:
    """Ray parameter of the ground intersection, +inf where there is none."""
    s = math.tan(spec.ground_slope)
    denom = dirs[:, 2] - s * dirs[:, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -spec.sensor_height / denom
    t = np.where((np.abs(denom) > 1e-12) & (t > 0.0), t, np.inf)
    return t


@lru_cache(maxsize=8)
def _scan(ground: SceneSpec):
    """Read-only directions of the rays whose ground hit is in range, and
    those hits.  ``ground`` is a scene with no boxes and its seed, noise
    and density set to zero, so every scene of one sensor and ground
    shares the table."""
    dirs = _ray_directions(ground)
    t_ground = _ground_hit_t(ground, dirs)
    # only a ray whose ground hit is in range can return from the ground
    in_range = t_ground <= ground.max_range
    dirs, t_ground = np.compress(in_range, dirs, axis=0), np.compress(in_range, t_ground)
    dirs.flags.writeable = t_ground.flags.writeable = False
    return dirs, t_ground


def _box_z_span(spec: SceneSpec, box: BoxSpec) -> tuple[float, float]:
    base = -spec.sensor_height + math.tan(spec.ground_slope) * box.center_x + box.clearance
    return base, base + box.height


def _box_entry_t(spec: SceneSpec, box: BoxSpec, dirs: np.ndarray) -> np.ndarray:
    """Ray parameter where each origin ray enters the box, +inf on a miss."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = c * dirs[:, 0] + s * dirs[:, 1]
    dy = -s * dirs[:, 0] + c * dirs[:, 1]
    dz = dirs[:, 2]
    ox = -(c * box.center_x + s * box.center_y)
    oy = -(-s * box.center_x + c * box.center_y)
    z_lo, z_hi = _box_z_span(spec, box)

    t_in = np.zeros(dirs.shape[0])
    t_out = np.full(dirs.shape[0], np.inf)
    for o, d, lo, hi in (
        (ox, dx, -box.length / 2.0, box.length / 2.0),
        (oy, dy, -box.width / 2.0, box.width / 2.0),
        (0.0, dz, z_lo, z_hi),
    ):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        parallel = np.abs(d) <= 1e-12
        inside = lo <= o <= hi
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        t_in = np.maximum(t_in, near)
        t_out = np.minimum(t_out, far)
    hit = (t_in <= t_out) & (t_out > 0.0)
    return np.where(hit, np.maximum(t_in, 0.0), np.inf)


def _circle(box: BoxSpec) -> tuple[float, float]:
    """Distance of the box centre from the sensor, and the radius of the
    box's circumscribed circle, padded against rounding."""
    dist = math.hypot(box.center_x, box.center_y)
    radius = math.hypot(box.length, box.width) / 2.0
    return dist, radius + 1e-9 * (radius + dist) + 1e-9


def _may_enter(box: BoxSpec, dirs: np.ndarray) -> np.ndarray:
    """Directions that can enter the box: a superset of those that do.

    A ray enters the box only where its horizontal part passes the box's
    ``_circle`` ahead of the sensor.  With the sensor inside the circle
    every direction is kept.
    """
    dist, radius = _circle(box)
    if dist <= radius:
        return np.ones(dirs.shape[0], dtype=bool)
    cx, cy = box.center_x, box.center_y
    hx, hy = dirs[:, 0], dirs[:, 1]
    cross = hx * cy - hy * cx
    return ((hx * cx + hy * cy >= 0.0)
            & (cross * cross <= radius * radius * (hx * hx + hy * hy)))


def _nearest_entry_t(spec: SceneSpec, boxes, dirs: np.ndarray) -> np.ndarray:
    """Ray parameter of the first entry into any of ``boxes``, +inf where
    none is entered: the minimum of ``_box_entry_t`` over the boxes, each
    slab-testing only the directions that may enter it."""
    t = np.full(dirs.shape[0], np.inf)
    for box in boxes:
        rows = np.flatnonzero(_may_enter(box, dirs))
        if rows.size:
            t[rows] = np.minimum(t[rows], _box_entry_t(spec, box, dirs[rows]))
    return t


@lru_cache(maxsize=8)
def _ground_returns(scene: SceneSpec):
    """Read-only directions and ground hits of the rays that return from
    the ground: the rays of ``_scan`` not shadowed by a box.  ``scene``
    has its seed, noise and density set to zero, so frames that differ
    only in those share the table; it holds nothing drawn from the seed."""
    dirs, t_ground = _scan(replace(scene, obstacles=()))
    ground = _nearest_entry_t(scene, scene.obstacles, dirs) >= t_ground
    dirs, t_ground = np.compress(ground, dirs, axis=0), np.compress(ground, t_ground)
    dirs.flags.writeable = t_ground.flags.writeable = False
    return dirs, t_ground


def _may_hide(other: BoxSpec, box: BoxSpec) -> bool:
    """Whether ``other`` can stand between the sensor and a point of
    ``box``: False only where no ray to ``box`` enters ``other`` first.

    Both are taken as their circumscribed circles.  A ray enters
    ``other`` no nearer than the near edge of its circle and reaches
    ``box`` no farther than the far edge of its own, and the two circles
    must overlap in azimuth.  With the sensor inside either circle the
    pair is kept.
    """
    d, r = _circle(box)
    d_other, r_other = _circle(other)
    if d <= r or d_other <= r_other:
        return True
    if d_other - r_other > d + r:
        return False
    gap = abs(math.atan2(box.center_x * other.center_y - box.center_y * other.center_x,
                         box.center_x * other.center_x + box.center_y * other.center_y))
    return gap <= math.asin(r / d) + math.asin(r_other / d_other) + 1e-9


def _sample_box_points(box: BoxSpec, z_lo: float, z_hi: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    local = rng.uniform(-0.5, 0.5, size=(count, 2))
    local[:, 0] *= box.length
    local[:, 1] *= box.width
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    pts = np.empty((count, 3))
    pts[:, 0] = box.center_x + c * local[:, 0] - s * local[:, 1]
    pts[:, 1] = box.center_y + s * local[:, 0] + c * local[:, 1]
    pts[:, 2] = rng.uniform(z_lo, z_hi, size=count)
    return pts


def _table_key(spec: SceneSpec) -> SceneSpec:
    """``spec`` with its seed, noise and density set to zero: the scene the
    tables are keyed on.  ``spec`` passed its checks and the zeros are
    valid, so they are not run again."""
    key = object.__new__(type(spec))
    key.__dict__.update(spec.__dict__, rng_seed=0, noise_sigma=0.0, obstacle_density=0.0)
    return key


def generate_frame(spec: SceneSpec, frame_id: int = 0,
                   timestamp: float = 0.0) -> LabeledFrame:
    """Generate one labeled frame; bit-identical for identical spec and seed.

    Ground returns are ray cast per beam (shadowed by boxes); box returns
    are volumetric samples culled by nearer boxes and the ground.  Total
    output never exceeds one return per sensor ray.
    """
    rng = np.random.default_rng(spec.rng_seed)
    boxes = spec.obstacles
    dirs, t_ground = _ground_returns(_table_key(spec))
    t_hit = t_ground + rng.normal(0.0, spec.noise_sigma, size=t_ground.size)
    box_pts = []
    for b, box in enumerate(boxes):
        z_lo, z_hi = _box_z_span(spec, box)
        count = max(1, int(round(spec.obstacle_density * box.length * box.width)))
        pts = _sample_box_points(box, z_lo, z_hi, count, rng)
        dist = np.sqrt(np.add.reduce(pts * pts, axis=1))  # np.linalg.norm's bits
        keep = (dist > 1e-9) & (dist <= spec.max_range)
        pts, dist = np.compress(keep, pts, axis=0), np.compress(keep, dist)
        pdirs = pts / dist[:, None]
        others = [o for j, o in enumerate(boxes) if j != b and _may_hide(o, box)]
        visible = np.minimum(_ground_hit_t(spec, pdirs),
                             _nearest_entry_t(spec, others, pdirs)) >= dist - 1e-9
        pts, pdirs = np.compress(visible, pts, axis=0), np.compress(visible, pdirs, axis=0)
        pts += pdirs * rng.normal(0.0, spec.noise_sigma, size=pts.shape[0])[:, None]
        box_pts.append(pts)

    # one return per ray: the ground rows (one per ray at most) come
    # first, then box 0's returns, box 1's, ... until the rays run out
    n = min(spec.ray_count, t_hit.size + sum(map(len, box_pts)))
    points, labels = np.empty((n, 4)), np.empty(n, dtype=np.int64)
    start = t_hit.size
    np.multiply(dirs, t_hit[:, None], out=points[:start, :3])
    points[:start, 3], labels[:start] = GROUND_INTENSITY, GROUND_LABEL
    for b, pts in enumerate(box_pts):
        stop = min(start + len(pts), n)
        points[start:stop, :3] = pts[:stop - start]
        points[start:stop, 3], labels[start:stop] = OBSTACLE_INTENSITY, b
        start = stop
    frame = PointCloudFrame(points=points, timestamp=timestamp, frame_id=frame_id)
    return LabeledFrame(frame=frame, labels=labels)


def expected_obstacles(spec: SceneSpec) -> list[ObstacleEstimate]:
    """Ground-truth boxes as obstacle estimates (exact centers and sizes)."""
    out = []
    for box in spec.obstacles:
        out.append(ObstacleEstimate(
            center_x=box.center_x,
            center_y=box.center_y,
            length=max(box.length, box.width),
            width=min(box.length, box.width),
            height=box.height,
        ))
    return out
