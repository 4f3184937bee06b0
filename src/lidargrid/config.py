"""Pipeline configuration: one YAML tree with a section per module.

The dataclasses are the only place that holds a default, and their
``__post_init__`` the only place that checks a value (a boolean, a NaN,
an infinity or a fractional count too), so YAML and the Python API refuse
the same values.  ``_build`` walks their fields to read a YAML mapping, and
``default_config_yaml`` walks ``PipelineConfig()`` to write the
commented template, so the template always loads back to it.
Angles named in ``_DEGREES`` are radians in the dataclasses and appear
in YAML as ``<name>_deg`` keys.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import yaml

from .bev import BevConfig
from .core import ConfigError, check_real, check_tuple, check_whole
from .grid import GridConfig, ThresholdProfile
from .ground import RansacParams
from .synth import BoxSpec, SceneSpec


@dataclass(frozen=True)
class ClusterParams:
    connectivity: int = 8
    min_cells: int = 2

    def __post_init__(self):
        check_whole("connectivity", self.connectivity, 4, 8)
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")
        check_whole("min_cells", self.min_cells, 1)


@dataclass(frozen=True)
class BevPipelineParams:
    objectness_threshold: float = 0.5
    min_confidence: float = 0.5

    def __post_init__(self):
        check_real("objectness_threshold", self.objectness_threshold, 0.0, 1.0)
        check_real("min_confidence", self.min_confidence, 0.0, 1.0)


@dataclass(frozen=True)
class EvalParams:
    gate: float = 5.0
    lever_arm_x: float = 0.0
    lever_arm_y: float = 0.0
    ref_lat: float | None = None
    ref_lon: float | None = None

    def __post_init__(self):
        check_real("gate", self.gate, 0.0, open_low=True)
        check_real("lever_arm_x", self.lever_arm_x)
        check_real("lever_arm_y", self.lever_arm_y)
        for name, bound in (("ref_lat", 90.0), ("ref_lon", 180.0)):
            if getattr(self, name) is not None:  # a reference may be unset
                check_real(name, getattr(self, name), -bound, bound)


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
        check_whole("kernel_radius", self.kernel_radius, 1)
        if 2 * self.kernel_radius + 1 > min(self.grid.nx, self.grid.ny):
            raise ValueError(f"kernel_radius {self.kernel_radius} is too wide for the "
                             f"{self.grid.nx} x {self.grid.ny} grid: its opening clears every cell")


# safe_load's constructor on libyaml's scanner, about 8x faster; the pure
# Python loader only where PyYAML was built without libyaml
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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
    "grid.z_min": "m above the plane: the geometric route's lowest counted height",
    "profile": "occupancy count thresholds vs radial distance",
    "profile.breakpoints": "[range_start_m, min_count]; first starts at 0, last count is the floor",
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
    "synth.noise_sigma": "m, Gaussian range noise",
    "synth.obstacle_density": "box returns per m^2 of footprint",
}


def _build(cls, mapping):
    """Build ``cls`` from a YAML mapping; keys not given keep their defaults.

    Sections recurse, lists become tuples and scalars are coerced through
    the type of their default, but a fraction given for a count is left
    for its class to refuse; a field with no default (a box centre)
    takes a float, as does one whose None default means "unset"
    (``ref_lat``).  None and a boolean reach the class as they are
    (``int(True)`` would read as 1); an angle under both its keys is
    refused, and a ``<name>_deg`` value that is not a real number is
    refused under that key before it is converted.  These are the rules
    of reading YAML; the classes check values.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{cls.__name__} section is not a mapping: {mapping!r}")
    known = {f.name: f for f in fields(cls)}
    data = dict(mapping)
    for name in _DEGREES:
        if name in known and f"{name}_deg" in data:
            if name in data:
                raise ValueError(f"give {name} or {name}_deg, not both")
            check_real(f"{name}_deg", data[f"{name}_deg"])
            data[name] = math.radians(data.pop(f"{name}_deg"))
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: "
                         f"{sorted(map(str, unknown))}")
    for name, value in data.items():
        f = known[name]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if name == "obstacles":
            data[name] = tuple(_build(BoxSpec, box) for box in check_tuple(name, value))
        elif is_dataclass(default):
            data[name] = _build(type(default), value)
        elif isinstance(default, int) and isinstance(value, float):
            data[name] = int(value) if value.is_integer() else value
        elif value is not None and not isinstance(value, bool):
            kind = float if default is None or default is MISSING else type(default)
            try:
                data[name] = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
    return cls(**data)


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a PipelineConfig from a nested plain dict (parsed YAML).

    Any unknown key, malformed section or out-of-range value raises
    ConfigError.
    """
    try:
        return _build(PipelineConfig, data or {})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> PipelineConfig:
    """Read a YAML config file; a file that cannot be read raises ConfigError."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_SAFE_LOADER)
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: a bad byte, 4300+ digits
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
