"""Stage composition for the two detection routes, plus the benchmark.

Both routes share one front half: validate -> RANSAC ground fit -> level
(z becomes the signed height above the plane, computed once, in the copy
that validation makes), and each route projects the whole levelled cloud.
Every frame is validated there, whatever its source.  Geometric: grid
(its z crop leaves the ground out) -> occupancy thresholds -> morphology
-> connected components -> obstacle extraction.  BEV: channel extraction
-> ``height_gap_detector`` (heights from the same plane) -> output-grid
clustering -> confidence and size filters, both scores cut at 0.5.  Another
detector is composed from ``front_half`` and the public stages of ``bev``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import bev as bev_mod
from .cluster import extract_obstacles, label_components
from .config import PipelineConfig
from .core import ObstacleEstimate, PointCloudFrame, check_whole, validate_frame
from .grid import morph_open_close, occupancy_from_counts, project_to_grid
# split_ground is not called here, but perfbench/tracing.py wraps it
# under this module's name
from .ground import PlaneModel, fit_plane_ransac, split_ground  # noqa: F401
from .synth import BoxSpec, SceneSpec, generate_frame

# each route's laps, in order; the tests hold the routes to them
GEOMETRIC_STAGES = ("validate", "fit_plane", "project", "occupancy",
                    "morphology", "label", "extract")
BEV_STAGES = ("validate", "fit_plane", "channels", "detector", "cluster", "postprocess")

FRAME_RATE_HZ = 20.0  # the sensor's frame rate; spaces frame timestamps


@dataclass(frozen=True, eq=False)
class PipelineResult:
    obstacles: list[ObstacleEstimate]
    timings: dict[str, float]  # stage -> seconds, insertion-ordered
    plane: PlaneModel | None = None
    dropped_points: int = 0  # rows this run's validation dropped


class _StageClock:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings[stage] = now - self._last
        self._last = now


def front_half(frame: PointCloudFrame, cfg: PipelineConfig,
               clock: _StageClock | None = None):
    """Validate ``frame``, fit the ground plane and level the heights.

    Returns ``(dropped_points, plane, levelled)``: ``levelled`` is the
    column-major array ``validate_frame`` returned, with z replaced by the
    signed height above ``plane``, so the fit reads it without a copy and
    the routes read contiguous columns.  It shares no memory with
    ``frame``, which is left as it was.  ``dropped_points`` counts the
    rows this call's validation dropped: 0 for a frame validated already.
    The ``fit_plane`` lap includes the levelling.
    """
    clock = clock or _StageClock()
    valid = validate_frame(frame)
    clock.lap("validate")

    levelled = valid.points
    plane = fit_plane_ransac(levelled, cfg.ransac)
    levelled[:, 2] = plane.signed_distance(levelled)
    clock.lap("fit_plane")
    return valid.dropped_points, plane, levelled


def run_geometric(frame: PointCloudFrame, cfg: PipelineConfig) -> PipelineResult:
    """Run the geometric route; the grid's z crop leaves the ground out."""
    clock = _StageClock()
    dropped, plane, levelled = front_half(frame, cfg, clock)

    hist = project_to_grid(levelled, cfg.grid)
    clock.lap("project")

    occ = occupancy_from_counts(hist, cfg.profile)
    clock.lap("occupancy")

    cleaned = morph_open_close(occ, cfg.kernel_radius)
    clock.lap("morphology")

    labels = label_components(cleaned, cfg.cluster.connectivity)
    clock.lap("label")

    obstacles = extract_obstacles(labels, hist, cfg.cluster.min_cells)
    clock.lap("extract")

    return PipelineResult(obstacles=obstacles, timings=clock.timings,
                          plane=plane, dropped_points=dropped)


def run_bev(frame: PointCloudFrame, cfg: PipelineConfig) -> PipelineResult:
    """Run channel extraction, ``bev.height_gap_detector`` and its output's
    clustering and post-processing."""
    clock = _StageClock()
    dropped, plane, levelled = front_half(frame, cfg, clock)

    channels = bev_mod.extract_channels(levelled, cfg.bev)
    clock.lap("channels")

    attr = bev_mod.height_gap_detector(channels)
    clock.lap("detector")

    # the detector scores 0 or 1, so any threshold and minimum confidence
    # in (0, 1] keep the same clusters
    clusters = bev_mod.cluster_output_grid(attr, 0.5, cfg.cluster.connectivity)
    clock.lap("cluster")

    obstacles = bev_mod.postprocess_clusters(clusters, 0.5, cfg.bev, cfg.cluster.min_cells)
    clock.lap("postprocess")

    return PipelineResult(obstacles=obstacles, timings=clock.timings,
                          plane=plane, dropped_points=dropped)


def run_pipeline(frame: PointCloudFrame, cfg: PipelineConfig) -> PipelineResult:
    if cfg.pipeline == "bev":
        return run_bev(frame, cfg)
    return run_geometric(frame, cfg)


# ---------------------------------------------------------------------------
# Benchmark

# scene sized so a frame carries roughly the sensor's nominal ~28k returns
BENCH_BOXES = (
    BoxSpec(center_x=10.05, center_y=0.15),
    BoxSpec(center_x=15.0, center_y=-6.0),
    BoxSpec(center_x=8.0, center_y=6.0, length=4.0, width=1.8),
    BoxSpec(center_x=20.0, center_y=4.0, length=6.0, width=2.4),
)


def bench_scene(seed: int = 0) -> SceneSpec:
    return SceneSpec(obstacles=BENCH_BOXES, rng_seed=seed, obstacle_density=380.0)


@dataclass(frozen=True, eq=False)
class BenchReport:
    """Per-stage and end-to-end latency over a batch of synthetic frames."""

    total_mean_ms: float
    total_p95_ms: float
    achieved_hz: float
    frames: int
    mean_points: float
    rows: list = field(default_factory=list)  # (stage, mean_ms, p95_ms)

    def table(self) -> str:
        lines = [f"{'stage':<14} {'mean_ms':>10} {'p95_ms':>10}"]
        for stage, mean_ms, p95_ms in self.rows:
            lines.append(f"{stage:<14} {mean_ms:>10.3f} {p95_ms:>10.3f}")
        lines.append(f"frames={self.frames} mean_points={self.mean_points:.0f} "
                     f"achieved_hz={self.achieved_hz:.1f}")
        return "\n".join(lines)


def bench(cfg: PipelineConfig, n_frames: int, seed: int = 0) -> BenchReport:
    """Time each lap of ``run_pipeline`` over ``n_frames`` synthetic frames.

    The frames are the flat bench scene seen by ``cfg.synth``'s sensor:
    its beams, field of view, azimuth step, range and height.  Rows
    follow the route's laps, then ``total`` (each frame's summed laps).
    Frame generation is untimed; the first frame runs once to warm caches.
    """
    check_whole("n_frames", n_frames, 1)
    sensor = {name: getattr(cfg.synth, name) for name in (
        "beam_count", "vertical_fov_deg", "azimuth_resolution_deg", "max_range", "sensor_height")}
    frames = [generate_frame(replace(bench_scene(seed + i), **sensor), frame_id=i,
                             timestamp=i / FRAME_RATE_HZ).frame for i in range(n_frames)]
    run_pipeline(frames[0], cfg)
    laps = [run_pipeline(frame, cfg).timings for frame in frames]
    ms = {stage: np.array([t[stage] for t in laps]) * 1e3 for stage in laps[0]}
    ms["total"] = np.array([sum(t.values()) for t in laps]) * 1e3
    rows = [(stage, float(arr.mean()), float(np.percentile(arr, 95)))
            for stage, arr in ms.items()]
    _, mean_ms, p95_ms = rows[-1]
    return BenchReport(total_mean_ms=mean_ms, total_p95_ms=p95_ms,
                       achieved_hz=1e3 / mean_ms, frames=n_frames,
                       mean_points=float(np.mean([len(f) for f in frames])), rows=rows)
