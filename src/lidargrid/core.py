"""Shared domain types and frame validation.

Coordinate convention used throughout: right-handed vehicle frame with
x forward, y left, z up, sensor at the origin.  Point clouds are stored
as float64 arrays of shape (N, 4) with columns x, y, z, intensity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

# Most cells in one grid or BEV raster, and most rays in one synthetic
# scan, samples in one box or RANSAC iterations.  The default grids use
# 40,000 and 451,584 cells; at the cap the BEV export's six float32
# planes take 805 MB.
MAX_CELLS = 2 ** 25


def check_whole(name: str, value, low: int = 0, high: float = math.inf) -> None:
    """Refuse all but an integer in [low, high]: a bool, a fraction, a NaN or an inf."""
    if isinstance(value, bool):
        raise ValueError(f"{name} cannot be a boolean, got {value!r}")
    if not isinstance(value, Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be a whole number in [{low}, {high}], got {value!r}")


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
               open_low: bool = False) -> None:
    """Refuse all but a number a float holds, in [low, high] or, if ``open_low``,
    in (low, high]: a bool, a string, None, a NaN, an inf or 10**400."""
    if isinstance(value, bool):
        raise ValueError(f"{name} cannot be a boolean, got {value!r}")
    if not (isinstance(value, Real) and abs(value) <= sys.float_info.max
            and (low < value if open_low else low <= value) and value <= high):
        raise ValueError(f"{name} must be a finite number in {'(' if open_low else '['}"
                         f"{low}, {high}], got {value!r}")


def check_tuple(name: str, value, length: int | None = None) -> tuple:
    """``value`` as a tuple: refuse what does not iterate (None, a number)
    and, given ``length``, a sequence of any other length."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or length not in (None, len(items)):
        raise ValueError(f"{name} must be a list{'' if length is None else f' of {length}'}, "
                         f"got {value!r}")
    return items


class LidarGridError(Exception):
    """Base class for all package errors.

    ``category`` is a short machine-readable tag the CLI prints alongside
    the message.
    """

    category = "error"


class ConfigError(LidarGridError, ValueError):
    """A configuration value, file or command-line argument that cannot be used."""

    category = "config"


class EmptyFrame(LidarGridError):
    """Raised when a frame has no usable points left after validation."""

    category = "empty-frame"


class GeometryMismatch(LidarGridError):
    """A grid's arrays disagree with its geometry."""

    category = "geometry-mismatch"


def as_point_array(points) -> np.ndarray:
    """Coerce a point collection to a float64 array of shape (N, 4).

    Accepts an (N, 3) or (N, 4) array, or a sequence of length-3 or
    length-4 tuples.  Missing intensity is filled with zeros.
    """
    if isinstance(points, np.ndarray):
        arr = points
    else:
        rows = []
        for p in points:
            q = tuple(p)
            if len(q) not in (3, 4):
                raise ValueError(f"expected (N, 3) or (N, 4) points, got a row of {len(q)} values")
            rows.append(q if len(q) == 4 else (*q, 0.0))
        arr = np.array(rows, dtype=float).reshape(-1, 4)
    if arr.ndim != 2 or arr.shape[1] not in (3, 4):
        raise ValueError(f"expected (N, 3) or (N, 4) points, got shape {arr.shape}")
    if arr.shape[1] == 4:
        return np.asarray(arr, dtype=float)
    padded = np.zeros((arr.shape[0], 4))
    padded[:, :3] = arr  # one allocation: converts while it copies
    return padded


@dataclass(frozen=True, eq=False)
class PointCloudFrame:
    """One timestamped sensor revolution.

    ``points`` is an (N, 4) float64 array with columns x, y, z, intensity.
    """

    points: np.ndarray
    timestamp: float = 0.0
    frame_id: int = 0

    def __post_init__(self):
        arr = as_point_array(self.points)
        object.__setattr__(self, "points", arr)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class ValidatedFrame(PointCloudFrame):
    """A frame that passed validation; ``dropped_points`` counts removals."""

    dropped_points: int = 0


@dataclass(frozen=True, eq=False)
class ObstacleEstimate:
    """One detected object in the vehicle frame.

    ``center_x``/``center_y`` locate the representative center, ``length``
    and ``width`` are the finite footprint extents with length >= width, and
    ``range`` is the horizontal distance from the sensor origin to the
    center (derived when not supplied).
    """

    center_x: float
    center_y: float
    length: float
    width: float
    height: float | None = None
    confidence: float = 1.0
    class_tag: str = "unknown"
    range: float | None = None  # derived from the center when omitted

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center_x, self.center_y, self.height or 0.0))):
            raise ValueError(f"need a finite center and height, got center "
                             f"({self.center_x}, {self.center_y}) height={self.height}")
        if not (math.isfinite(self.length) and self.length >= self.width > 0.0):
            raise ValueError(
                f"need finite length >= width > 0, got length={self.length} width={self.width}"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        r = math.hypot(self.center_x, self.center_y)
        if self.range is None:
            object.__setattr__(self, "range", r)
        elif not abs(self.range - r) <= 1e-9:  # NaN fails too
            raise ValueError(f"range {self.range} inconsistent with center ({r})")


def validate_frame(frame: PointCloudFrame) -> ValidatedFrame:
    """Drop non-finite points and normalize intensity into [0, 1].

    Intensities are taken to be 8-bit and divided by 255 when a kept
    point's intensity is above 1, whatever the source; values are clipped
    to [0, 1] afterwards.  Raises EmptyFrame when no valid point remains.
    The result never shares memory with ``frame``, which is left as it was,
    so a caller may write into the result's points.
    """
    pts = frame.points
    # column by column: a row-wise all(axis=1) over four columns is ~6x slower
    keep = np.logical_and.reduce([np.isfinite(col) for col in pts.T])
    # copy() beats compress on a full frame; compress beats pts[keep] ~6x
    kept = pts.copy() if keep.all() else np.compress(keep, pts, axis=0)
    if kept.shape[0] == 0:
        raise EmptyFrame(f"frame {frame.frame_id}: " + (
            f"no finite points ({pts.shape[0]} dropped)" if pts.shape[0] else "no points"))
    if kept[:, 3].max() > 1.0:
        kept[:, 3] /= 255.0
    np.clip(kept[:, 3], 0.0, 1.0, out=kept[:, 3])
    return ValidatedFrame(
        points=kept,
        timestamp=frame.timestamp,
        frame_id=frame.frame_id,
        dropped_points=int(pts.shape[0] - kept.shape[0]),
    )

