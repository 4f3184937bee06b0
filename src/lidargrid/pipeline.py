"""Stage composition for the two detection routes, plus the benchmark.

Both routes share one front half: validate -> RANSAC ground fit -> level
(z becomes the signed height above the plane, computed once).  The
geometric route keeps the levelled rows outside the ground band ->
project to grid -> occupancy thresholds -> morphology -> connected
components -> obstacle extraction.  The BEV route feeds all of them to
channel extraction -> detector (pluggable) -> output-grid clustering ->
confidence and size post-processing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bev as bev_mod
from .cluster import extract_obstacles, label_components
from .config import PipelineConfig
from .core import ConfigError, ObstacleEstimate, PointCloudFrame, ValidatedFrame, validate_frame
from .grid import morph_open_close, occupancy_from_counts, project_to_grid
# split_ground is not called here, but perfbench/tracing.py wraps it
# under this module's name
from .ground import PlaneModel, fit_plane_ransac, split_ground  # noqa: F401
from .synth import BoxSpec, SceneSpec, generate_frame

GEOMETRIC_STAGES = ("validate", "fit_plane", "split_ground", "project",
                    "occupancy", "morphology", "label", "extract")
BEV_STAGES = ("validate", "fit_plane", "channels", "detector", "cluster", "postprocess")


@dataclass(frozen=True, eq=False)
class PipelineResult:
    obstacles: list[ObstacleEstimate]
    timings: dict[str, float]  # stage -> seconds, insertion-ordered
    plane: PlaneModel | None = None
    dropped_points: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


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

    Returns ``(valid, plane, levelled)``: ``levelled`` is one copy of the
    validated points with z replaced by the signed height above ``plane``.
    A frame validated already (``read_frame_pcd`` validates) is taken as
    is, so its ``dropped_points`` reaches the result.  The ``fit_plane``
    lap includes the levelling.
    """
    clock = clock or _StageClock()
    valid = frame if isinstance(frame, ValidatedFrame) else validate_frame(frame)
    clock.lap("validate")

    plane = fit_plane_ransac(valid.xyz, cfg.ransac)
    levelled = valid.points.copy()
    levelled[:, 2] = plane.signed_distance(valid.points)
    clock.lap("fit_plane")
    return valid, plane, levelled


def run_geometric(frame: PointCloudFrame, cfg: PipelineConfig) -> PipelineResult:
    """Run the full geometric detection pipeline on one frame."""
    clock = _StageClock()
    valid, plane, levelled = front_half(frame, cfg, clock)

    # the non-ground rows of split_ground, projected by height above the
    # plane so the grid's z crop tracks the road surface on slopes
    non_ground = levelled[np.abs(levelled[:, 2]) > cfg.ransac.distance_threshold]
    clock.lap("split_ground")

    hist = project_to_grid(non_ground, cfg.grid)
    clock.lap("project")

    occ = occupancy_from_counts(hist, cfg.profile)
    clock.lap("occupancy")

    cleaned = morph_open_close(occ, cfg.kernel_radius)
    clock.lap("morphology")

    labels = label_components(cleaned, cfg.cluster.connectivity)
    clock.lap("label")

    obstacles = extract_obstacles(labels, hist, cfg.grid, cfg.cluster.min_cells)
    clock.lap("extract")

    return PipelineResult(obstacles=obstacles, timings=clock.timings,
                          plane=plane, dropped_points=valid.dropped_points)


def run_bev(frame: PointCloudFrame, cfg: PipelineConfig,
            detector: bev_mod.DetectorFn | None = None) -> PipelineResult:
    """Run channel extraction plus detector-output post-processing.

    ``detector`` defaults to the built-in ground-suppressing heuristic
    (the network this interface abstracts is not part of this package).
    """
    detector = detector or bev_mod.height_gap_detector
    clock = _StageClock()
    valid, plane, levelled = front_half(frame, cfg, clock)

    channels = bev_mod.extract_channels(levelled, cfg.bev)
    clock.lap("channels")

    attr = detector(channels)
    del channels  # hold one raster-sized image at a time
    clock.lap("detector")

    clusters = bev_mod.cluster_output_grid(attr, cfg.bev_post.objectness_threshold,
                                           cfg.cluster.connectivity)
    clock.lap("cluster")

    obstacles = bev_mod.postprocess_clusters(clusters, cfg.bev_post.min_confidence,
                                             cfg.bev, cfg.cluster.min_cells)
    clock.lap("postprocess")

    return PipelineResult(obstacles=obstacles, timings=clock.timings,
                          plane=plane, dropped_points=valid.dropped_points)


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

    stage_mean_ms: dict[str, float]
    stage_p95_ms: dict[str, float]
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
    """Time each stage over ``n_frames`` synthetic frames.

    Frame generation is excluded from the timings; the first frame is run
    once untimed to warm caches.
    """
    if n_frames < 1:
        raise ConfigError("n_frames must be >= 1")
    frames = [generate_frame(bench_scene(seed + i), frame_id=i, timestamp=i / 20.0).frame
              for i in range(n_frames)]
    runner = run_bev if cfg.pipeline == "bev" else run_geometric
    stages = BEV_STAGES if cfg.pipeline == "bev" else GEOMETRIC_STAGES

    runner(frames[0], cfg)
    per_stage: dict[str, list[float]] = {s: [] for s in stages}
    totals = []
    for frame in frames:
        result = runner(frame, cfg)
        for stage in stages:
            per_stage[stage].append(result.timings[stage])
        totals.append(result.total_seconds)

    rows = []
    mean_ms = {}
    p95_ms = {}
    for stage in stages:
        arr = np.array(per_stage[stage]) * 1e3
        mean_ms[stage] = float(arr.mean())
        p95_ms[stage] = float(np.percentile(arr, 95))
        rows.append((stage, mean_ms[stage], p95_ms[stage]))
    tot = np.array(totals) * 1e3
    rows.append(("total", float(tot.mean()), float(np.percentile(tot, 95))))

    return BenchReport(
        stage_mean_ms=mean_ms,
        stage_p95_ms=p95_ms,
        total_mean_ms=float(tot.mean()),
        total_p95_ms=float(np.percentile(tot, 95)),
        achieved_hz=1e3 / float(tot.mean()),
        frames=n_frames,
        mean_points=float(np.mean([len(f) for f in frames])),
        rows=rows,
    )
