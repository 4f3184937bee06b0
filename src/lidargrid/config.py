"""Pipeline configuration: one YAML tree with a section per module.

The dataclasses are the only place that holds a default.  ``_build``
walks their fields to read a YAML mapping, and ``default_config_yaml``
walks ``PipelineConfig()`` with the same fields to write the commented
template, so the template always loads back to ``PipelineConfig()``.
Angles named in ``_DEGREES`` are radians in the dataclasses and appear
in YAML as ``<name>_deg`` keys.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import yaml

from .bev import BevConfig
from .core import ConfigError
from .grid import GridConfig, ThresholdProfile
from .ground import RansacParams
from .synth import BoxSpec, SceneSpec


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
    # one van ahead, so that ``detect --synth N`` alone has something to find
    synth: SceneSpec = field(default_factory=lambda: SceneSpec(
        obstacles=(BoxSpec(center_x=10.05, center_y=0.15),)))

    def __post_init__(self):
        if self.pipeline not in ("geometric", "bev"):
            raise ValueError("pipeline must be 'geometric' or 'bev'")
        if self.kernel_radius < 1:
            raise ValueError("kernel_radius must be >= 1")


# fields held in radians and written in YAML as ``<name>_deg``
_DEGREES = ("max_plane_tilt", "ground_slope")

# template comments, keyed by dotted field path
_NOTES = {
    "pipeline": "geometric | bev",
    "ransac": "ground-plane fit",
    "ransac.distance_threshold": "m, point-to-plane inlier band",
    "ransac.max_plane_tilt": "reject planes tilted further from +z, 0-90",
    "grid": "occupancy-grid projection",
    "grid.cell_size": "m, square cells",
    "grid.z_min": "m above the fitted ground plane",
    "profile": "occupancy count thresholds vs radial distance",
    "profile.breakpoints": "[range_start_m, min_count]; first must start at 0",
    "profile.noise_min_count": "global floor applied after the profile",
    "kernel_radius": "morphology: square element side 2r+1",
    "cluster.connectivity": "4 | 8",
    "cluster.min_cells": "both routes: drop clusters of fewer cells of the route's own grid",
    "bev": "channel-feature raster",
    "bev.image_size": "cells per side",
    "bev.range": "m half-extent",
    "bev_post": "output-grid post-processing",
    "eval.gate": "m, association gate",
    "eval.lever_arm_x": "m, GT antenna offset applied in the local frame",
    "eval.ref_lat": "geodetic reference; null = first GT row",
    "synth": "scene of synth and of detect/bev-export --synth",
    "synth.ground_z": "m; null = -sensor_height",
    "synth.noise_sigma": "m, Gaussian range noise",
    "synth.obstacle_density": "box returns per m^2 of footprint",
}


def _build(cls, mapping):
    """Build ``cls`` from a YAML mapping; keys not given keep their defaults.

    Sections recurse, lists become tuples and scalars are coerced through
    the type of their default.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{cls.__name__} section is not a mapping: {mapping!r}")
    known = {f.name: f for f in fields(cls)}
    data = dict(mapping)
    for name in _DEGREES:
        if name in known and f"{name}_deg" in data:
            data[name] = math.radians(data.pop(f"{name}_deg"))
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: "
                         f"{sorted(map(str, unknown))}")
    for name, value in data.items():
        f = known[name]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if name == "obstacles":
            data[name] = tuple(_build(BoxSpec, box) for box in value)
        elif is_dataclass(default):
            data[name] = _build(type(default), value)
        elif (isinstance(default, int) and isinstance(value, float)
              and not value.is_integer()):
            raise ValueError(f"{name} must be a whole number, got {value}")
        elif default is not None and default is not MISSING:
            data[name] = type(default)(value)
    return cls(**data)


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a PipelineConfig from a nested plain dict (parsed YAML).

    Any unknown key, malformed section or out-of-range value raises
    ConfigError.
    """
    try:
        return _build(PipelineConfig, data or {})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> PipelineConfig:
    """Read a YAML config file; a file that cannot be read raises ConfigError."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def _degrees(rad: float) -> float:
    """The shortest decimal of degrees that reads back as ``rad`` exactly."""
    deg = math.degrees(rad)
    return next((d for d in (round(deg, p) for p in range(17))
                 if math.radians(d) == rad), deg)


def _flow(value) -> str:
    """A value as one line of YAML flow style."""
    if value is None:
        return "null"
    if isinstance(value, tuple):
        return "[" + ", ".join(_flow(v) for v in value) + "]"
    if is_dataclass(value):
        return "{" + ", ".join(f"{f.name}: {_flow(getattr(value, f.name))}"
                               for f in fields(value)) + "}"
    return repr(value) if isinstance(value, float) else str(value)


def _emit(obj, prefix: str, lines: list) -> None:
    indent = "  " * prefix.count(".")
    for f in fields(obj):
        path, key, value = prefix + f.name, f.name, getattr(obj, f.name)
        if f.name in _DEGREES:
            key, value = f"{key}_deg", _degrees(value)
        # a list of lists or of boxes is written one item per line
        rows = isinstance(value, tuple) and any(
            isinstance(v, tuple) or is_dataclass(v) for v in value)
        head = f"{indent}{key}:"
        if not (rows or is_dataclass(value)):
            head += f" {_flow(value)}"
        note = _NOTES.get(path)
        if not prefix:
            lines.append("")
        lines.append(f"{head:<26} # {note}" if note else head)
        if is_dataclass(value):
            _emit(value, path + ".", lines)
        elif rows:
            lines.extend(f"{indent}  - {_flow(v)}" for v in value)


def default_config_yaml() -> str:
    """A commented template of every parameter at its default value."""
    lines = ["# lidargrid pipeline configuration (all values shown are the defaults)"]
    _emit(PipelineConfig(), "", lines)
    return "\n".join(lines) + "\n"
