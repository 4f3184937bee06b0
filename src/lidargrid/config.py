"""Pipeline configuration: one YAML tree with a section per module.

Every tunable that the processing stages expose lives here with its
documented default; ``default_config_yaml`` emits a commented template
that round-trips through ``PipelineConfig.from_dict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import yaml

from .bev import BevConfig
from .core import LidarGridError
from .grid import GridConfig, ThresholdProfile
from .ground import RansacParams
from .synth import BoxSpec, SceneSpec


class ConfigError(LidarGridError, ValueError):
    """A configuration value or file that cannot be used."""

    category = "config"


@dataclass(frozen=True)
class ClusterParams:
    connectivity: int = 8
    min_cells: int = 2

    def __post_init__(self):
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")
        if self.min_cells < 1:
            raise ValueError("min_cells must be >= 1")


@dataclass(frozen=True)
class BevPipelineParams:
    objectness_threshold: float = 0.5
    min_confidence: float = 0.5


@dataclass(frozen=True)
class EvalParams:
    gate: float = 5.0
    lever_arm_x: float = 0.0
    lever_arm_y: float = 0.0
    ref_lat: float | None = None
    ref_lon: float | None = None


@dataclass(frozen=True)
class PipelineConfig:
    pipeline: str = "geometric"
    ransac: RansacParams = field(default_factory=RansacParams)
    grid: GridConfig = field(default_factory=GridConfig)
    profile: ThresholdProfile = field(default_factory=ThresholdProfile)
    kernel_radius: int = 1
    cluster: ClusterParams = field(default_factory=ClusterParams)
    bev: BevConfig = field(default_factory=BevConfig)
    bev_post: BevPipelineParams = field(default_factory=BevPipelineParams)
    eval: EvalParams = field(default_factory=EvalParams)
    synth: SceneSpec = field(default_factory=SceneSpec)

    def __post_init__(self):
        if self.pipeline not in ("geometric", "bev"):
            raise ValueError("pipeline must be 'geometric' or 'bev'")
        if self.kernel_radius < 1:
            raise ValueError("kernel_radius must be >= 1")


def _build(cls, data: dict):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**data)


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a PipelineConfig from a nested plain dict (parsed YAML).

    Any malformed section or out-of-range value raises ConfigError.
    """
    try:
        return _config_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _config_from_dict(data: dict) -> PipelineConfig:
    data = dict(data or {})
    kwargs = {}
    if "pipeline" in data:
        kwargs["pipeline"] = data.pop("pipeline")
    if "kernel_radius" in data:
        kwargs["kernel_radius"] = int(data.pop("kernel_radius"))

    section_types = {
        "ransac": RansacParams,
        "grid": GridConfig,
        "cluster": ClusterParams,
        "bev": BevConfig,
        "bev_post": BevPipelineParams,
        "eval": EvalParams,
    }
    for name, cls in section_types.items():
        if name in data:
            sec = dict(data.pop(name))
            if name == "ransac" and "max_plane_tilt_deg" in sec:
                sec["max_plane_tilt"] = math.radians(sec.pop("max_plane_tilt_deg"))
            kwargs[name] = _build(cls, sec)

    if "profile" in data:
        sec = dict(data.pop("profile"))
        kwargs["profile"] = ThresholdProfile(
            breakpoints=tuple((float(r), int(c)) for r, c in sec.get(
                "breakpoints", ThresholdProfile().breakpoints)),
            noise_min_count=int(sec.get("noise_min_count",
                                        ThresholdProfile().noise_min_count)),
        )
    if "synth" in data:
        sec = dict(data.pop("synth"))
        boxes = tuple(_build(BoxSpec, dict(b)) for b in sec.pop("obstacles", ()))
        sec["obstacles"] = boxes
        if "vertical_fov_deg" in sec:
            sec["vertical_fov_deg"] = tuple(sec["vertical_fov_deg"])
        if "ground_slope_deg" in sec:
            sec["ground_slope"] = math.radians(sec.pop("ground_slope_deg"))
        kwargs["synth"] = _build(SceneSpec, sec)
    if data:
        raise ValueError(f"unknown config sections: {sorted(data)}")
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data or {})


def default_config_yaml() -> str:
    """A commented template of every parameter at its default value."""
    return """\
# lidargrid pipeline configuration (all values shown are the defaults)

pipeline: geometric        # geometric | bev

ransac:                    # ground-plane fit
  max_iterations: 100
  distance_threshold: 0.15 # m, point-to-plane inlier band
  min_inlier_ratio: 0.2
  rng_seed: 0
  max_plane_tilt_deg: 15.0 # reject planes tilted further from +z

grid:                      # occupancy-grid projection
  cell_size: 0.3           # m, square cells
  x_min: -30.0
  x_max: 30.0
  y_min: -30.0
  y_max: 30.0
  z_min: 0.1               # m above the fitted ground plane
  z_max: 3.0

profile:                   # occupancy count thresholds vs radial distance
  breakpoints:             # [range_start_m, min_count]; first must start at 0
    - [0.0, 5]
    - [10.0, 3]
    - [20.0, 2]
  noise_min_count: 2       # global floor applied after the profile

kernel_radius: 1           # morphology: square element side 2r+1

cluster:
  connectivity: 8          # 4 | 8
  min_cells: 2             # drop components smaller than this

bev:                       # channel-feature raster
  image_size: 672          # cells per side
  range: 30.0              # m half-extent

bev_post:                  # output-grid post-processing
  objectness_threshold: 0.5
  min_confidence: 0.5

eval:
  gate: 5.0                # m, association gate
  lever_arm_x: 0.0         # m, GT antenna offset applied in the local frame
  lever_arm_y: 0.0
  ref_lat: null            # geodetic reference; null = first GT row
  ref_lon: null

synth:                     # synthetic scene for detect --synth / bench
  ground_z: null           # m; null = -sensor_height
  ground_slope_deg: 0.0
  noise_sigma: 0.02        # m, Gaussian range noise
  beam_count: 16
  vertical_fov_deg: [-15.0, 15.0]
  azimuth_resolution_deg: 0.2
  max_range: 100.0
  sensor_height: 1.8
  rng_seed: 0
  obstacle_density: 150.0  # box returns per m^2 of footprint
  obstacles:
    - {center_x: 10.05, center_y: 0.15, length: 5.0, width: 2.0, height: 2.0, yaw: 0.0, clearance: 0.3}
"""
