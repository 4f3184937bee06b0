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
detection quality can be scored exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObstacleEstimate, PointCloudFrame

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
        if min(self.length, self.width, self.height) <= 0.0:
            raise ValueError("box dimensions must be > 0")


@dataclass(frozen=True)
class SceneSpec:
    """Scene content plus the sensor model.

    ``ground_z`` is the ground plane height at x = 0 in the sensor frame;
    None places it ``sensor_height`` below the sensor.  ``ground_slope``
    tilts the plane about the y axis (height grows with x).
    ``obstacle_density`` sets box returns per square meter of footprint.
    """

    ground_z: float | None = None
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
        if self.beam_count < 1:
            raise ValueError("beam_count must be >= 1")
        if self.azimuth_resolution_deg <= 0.0:
            raise ValueError("azimuth_resolution_deg must be > 0")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.obstacle_density < 0.0:
            raise ValueError("obstacle_density must be >= 0")
        if self.max_range <= 0.0:
            raise ValueError("max_range must be > 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    @property
    def ground_offset(self) -> float:
        return self.ground_z if self.ground_z is not None else -self.sensor_height

    @property
    def ray_count(self) -> int:
        return self.beam_count * int(round(360.0 / self.azimuth_resolution_deg))

    def ground_height_at(self, x) -> np.ndarray:
        return self.ground_offset + math.tan(self.ground_slope) * np.asarray(x, dtype=float)


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
        t = spec.ground_offset / denom
    t = np.where((np.abs(denom) > 1e-12) & (t > 0.0), t, np.inf)
    return t


def _box_z_span(spec: SceneSpec, box: BoxSpec) -> tuple[float, float]:
    base = float(spec.ground_height_at(box.center_x)) + box.clearance
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
        inside = (o >= lo) & (o <= hi) if np.ndim(o) else (lo <= o <= hi)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        t_in = np.maximum(t_in, near)
        t_out = np.minimum(t_out, far)
    hit = (t_in <= t_out) & (t_out > 0.0)
    return np.where(hit, np.maximum(t_in, 0.0), np.inf)


def _may_enter(box: BoxSpec, dirs: np.ndarray) -> np.ndarray:
    """Directions that can enter the box: a superset of those that do.

    A ray enters the box only where its horizontal part passes the box's
    circumscribed circle (padded against rounding) ahead of the sensor.
    With the sensor inside the circle every direction is kept.
    """
    radius = math.hypot(box.length, box.width) / 2.0
    radius += 1e-9 * radius + 1e-9
    cx, cy = box.center_x, box.center_y
    if math.hypot(cx, cy) <= radius:
        return np.ones(dirs.shape[0], dtype=bool)
    hx, hy = dirs[:, 0], dirs[:, 1]
    cross = hx * cy - hy * cx
    return ((hx * cx + hy * cy >= 0.0)
            & (cross * cross <= radius * radius * (hx * hx + hy * hy)))


def _entry_t(spec: SceneSpec, box: BoxSpec, dirs: np.ndarray) -> np.ndarray:
    """``_box_entry_t``, slab-testing only the directions that may enter."""
    t = np.full(dirs.shape[0], np.inf)
    rows = np.flatnonzero(_may_enter(box, dirs))
    if rows.size:
        t[rows] = _box_entry_t(spec, box, dirs[rows])
    return t


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


def generate_frame(spec: SceneSpec, frame_id: int = 0,
                   timestamp: float = 0.0) -> LabeledFrame:
    """Generate one labeled frame; bit-identical for identical spec and seed.

    Ground returns are ray cast per beam (shadowed by boxes); box returns
    are volumetric samples culled by nearer boxes and the ground.  Total
    output never exceeds one return per sensor ray.
    """
    rng = np.random.default_rng(spec.rng_seed)
    dirs = _ray_directions(spec)
    t_ground = _ground_hit_t(spec, dirs)

    # only a ray whose ground hit is in range can return from the ground
    in_range = t_ground <= spec.max_range
    dirs, t_ground = dirs[in_range], t_ground[in_range]
    blocked = np.zeros(t_ground.size, dtype=bool)
    for box in spec.obstacles:
        blocked |= _entry_t(spec, box, dirs) < t_ground

    ground_mask = ~blocked
    t_hit = t_ground[ground_mask] + rng.normal(0.0, spec.noise_sigma,
                                               size=int(ground_mask.sum()))
    ground_pts = dirs[ground_mask] * t_hit[:, None]

    chunks = [ground_pts]
    labels = [np.full(ground_pts.shape[0], GROUND_LABEL, dtype=np.int64)]
    intensities = [np.full(ground_pts.shape[0], GROUND_INTENSITY)]

    for b, box in enumerate(spec.obstacles):
        z_lo, z_hi = _box_z_span(spec, box)
        count = max(1, int(round(spec.obstacle_density * box.length * box.width)))
        pts = _sample_box_points(box, z_lo, z_hi, count, rng)
        dist = np.linalg.norm(pts, axis=1)
        keep = (dist > 1e-9) & (dist <= spec.max_range)
        pts, dist = pts[keep], dist[keep]
        pdirs = pts / dist[:, None]
        visible = _ground_hit_t(spec, pdirs) >= dist - 1e-9
        for j, other in enumerate(spec.obstacles):
            if j == b:
                continue
            visible &= _entry_t(spec, other, pdirs) >= dist - 1e-9
        pts, dist, pdirs = pts[visible], dist[visible], pdirs[visible]
        noise = rng.normal(0.0, spec.noise_sigma, size=pts.shape[0])
        pts = pts + pdirs * noise[:, None]
        chunks.append(pts)
        labels.append(np.full(pts.shape[0], b, dtype=np.int64))
        intensities.append(np.full(pts.shape[0], OBSTACLE_INTENSITY))

    xyz = np.vstack(chunks)
    lab = np.concatenate(labels)
    inten = np.concatenate(intensities)

    # one return per ray; ground rows (one per ray at most) come first
    budget = spec.ray_count
    xyz, lab, inten = xyz[:budget], lab[:budget], inten[:budget]

    points = np.hstack([xyz, inten[:, None]])
    frame = PointCloudFrame(points=points, timestamp=timestamp, frame_id=frame_id)
    return LabeledFrame(frame=frame, labels=lab)


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
