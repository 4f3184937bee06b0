"""Ground-truth alignment and detector accuracy metrics.

Target GPS positions are brought into the moving vehicle frame by a
clockwise heading rotation of the absolute deltas; the aligned series is
then compared frame by frame against the nearest detection to produce
longitudinal/lateral offset statistics and footprint dimension
statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConfigError, LidarGridError, ObstacleEstimate, check_real

EARTH_RADIUS_M = 6_378_137.0


class EmptySeries(LidarGridError):
    """A statistic was requested over zero samples."""

    category = "empty-series"


class InvalidLatitude(LidarGridError):
    """Latitude outside [-90, 90] degrees."""

    category = "invalid-latitude"


class SchemaError(LidarGridError):
    """A CSV input does not match any supported header."""

    category = "schema"


def _wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(a, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True)
class EgoPose:
    """Ego position in the absolute plane frame plus heading (CCW from +X)."""

    X: float
    Y: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "psi", _wrap_angle(self.psi))


class RelativePosition(NamedTuple):
    x_loc: float  # longitudinal, meters
    y_loc: float  # lateral, meters


@dataclass(frozen=True)
class OffsetStats:
    mean_offset: float
    std: float
    sample_count: int
    availability: float


@dataclass(frozen=True)
class DimensionStats:
    mean_length: float
    std_length: float
    mean_width: float
    std_width: float


def geodetic_to_plane(lat: float, lon: float, ref_lat: float, ref_lon: float):
    """Local tangent-plane conversion of geodetic degrees to meters.

    Equirectangular approximation around the reference point:
    X = R_e * rad(lon - ref_lon) * cos(ref_lat), Y = R_e * rad(lat - ref_lat),
    with lon - ref_lon wrapped exactly into [-180, 180] for tracks across
    the antimeridian.  Accurate to sub-centimeter over the sub-kilometer
    baselines this harness targets; exactly linear in the input deltas.
    """
    for name, value in (("lat", lat), ("ref_lat", ref_lat)):
        if not math.isfinite(value) or abs(value) > 90.0:
            raise InvalidLatitude(f"{name} = {value}")
    if not (math.isfinite(lon) and math.isfinite(ref_lon)):
        raise ValueError("longitude must be finite")
    dlon = math.remainder(lon - ref_lon, 360.0)
    x = EARTH_RADIUS_M * math.radians(dlon) * math.cos(math.radians(ref_lat))
    y = EARTH_RADIUS_M * math.radians(lat - ref_lat)
    return x, y


def transform_to_local(ego: EgoPose, target_x: float, target_y: float) -> RelativePosition:
    """Rotate the absolute ego-to-target delta into the vehicle frame.

    Clockwise rotation by the heading:
    x_loc = cos(psi)*dX + sin(psi)*dY, y_loc = -sin(psi)*dX + cos(psi)*dY.
    """
    dx = target_x - ego.X
    dy = target_y - ego.Y
    c, s = math.cos(ego.psi), math.sin(ego.psi)
    return RelativePosition(c * dx + s * dy, -s * dx + c * dy)


def associate(estimates, gt: RelativePosition, gate: float) -> ObstacleEstimate | None:
    """Nearest estimate to the ground truth within ``gate`` meters, else None."""
    check_real("gate", gate, 0.0, open_low=True)
    best = None
    best_d = gate
    for est in estimates:
        d = math.hypot(est.center_x - gt.x_loc, est.center_y - gt.y_loc)
        if d <= best_d:
            best, best_d = est, d
    return best


def offset_stats(matched, axis: str, total_frames: int) -> OffsetStats:
    """Mean and population std of (estimate - truth) along one axis.

    ``matched`` is a sequence of (ObstacleEstimate, RelativePosition)
    pairs; ``axis`` is "longitudinal" (x) or "lateral" (y).
    """
    if axis not in ("longitudinal", "lateral"):
        raise ValueError(f"unknown axis {axis!r}")
    pairs = list(matched)
    if not pairs:
        raise EmptySeries("no matched estimate/truth pairs")
    if total_frames < len(pairs):
        raise ConfigError(f"total_frames {total_frames} is below the "
                          f"{len(pairs)} matched frames")
    if axis == "longitudinal":
        errors = np.array([est.center_x - gt.x_loc for est, gt in pairs])
    else:
        errors = np.array([est.center_y - gt.y_loc for est, gt in pairs])
    return OffsetStats(
        mean_offset=float(errors.mean()),
        std=float(errors.std()),
        sample_count=len(pairs),
        availability=len(pairs) / total_frames,
    )


def dimension_stats(estimates) -> DimensionStats:
    """Mean and population std of estimated length and width."""
    ests = list(estimates)
    if not ests:
        raise EmptySeries("no estimates")
    lengths = np.array([e.length for e in ests])
    widths = np.array([e.width for e in ests])
    return DimensionStats(
        mean_length=float(lengths.mean()),
        std_length=float(lengths.std()),
        mean_width=float(widths.mean()),
        std_width=float(widths.std()),
    )


# ---------------------------------------------------------------------------
# CSV series I/O


def _read_csv(path, headers, parse=lambda row: [float(v) for v in row]):
    """Header and parsed rows of a CSV whose header is one of ``headers``.

    An unreadable file, another header, a row of another width or a value
    ``parse`` rejects raises SchemaError.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: cannot read: {exc}") from exc
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise SchemaError(f"{path}: expected header {expected}, got {header}")
    out = []
    for line, row in enumerate(rows, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, header has {len(header)}")
            out.append(parse(row))
        except ValueError as exc:
            raise SchemaError(f"{path}: line {line}: {exc}") from exc
    return header, out


def _read_series(path, headers):
    """Header and columns of a CSV time series, t first; SchemaError unless it
    has rows of finite values and t strictly increases, as ``np.interp`` needs."""
    header, rows = _read_csv(path, headers)
    cols = np.array(rows).T
    if not rows or not np.isfinite(cols).all() or not (np.diff(cols[0]) > 0.0).all():
        raise SchemaError(f"{path}: need rows of finite values, t strictly increasing")
    return header, cols


def read_ground_truth_csv(path, ref_lat: float | None = None,
                          ref_lon: float | None = None):
    """Read target positions: header ``t,lat,lon`` or ``t,X,Y``.

    Geodetic input is converted to plane meters around (ref_lat, ref_lon),
    defaulting to the first row.  Returns (t, X, Y) float arrays.
    """
    header, (t, a, b) = _read_series(path, (["t", "X", "Y"], ["t", "lat", "lon"]))
    if header == ["t", "X", "Y"]:
        return t, a, b
    rlat = ref_lat if ref_lat is not None else float(a[0])
    rlon = ref_lon if ref_lon is not None else float(b[0])
    xy = np.array([geodetic_to_plane(la, lo, rlat, rlon) for la, lo in zip(a, b)])
    return t, xy[:, 0], xy[:, 1]


def read_ego_csv(path):
    """Read ego poses: header ``t,X,Y,psi``. Returns (t, X, Y, psi) arrays."""
    return tuple(_read_series(path, (["t", "X", "Y", "psi"],))[1])


OBSTACLE_CSV_HEADER = ["frame_id", "t", "center_x", "center_y", "length",
                       "width", "height", "confidence", "class", "range"]


def write_csv(path, header, rows) -> None:
    """Write a header line, then ``rows``, in the csv module's default dialect:
    None as an empty field, text as it is, any other value as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else "" if v is None else repr(float(v))
                          for v in row] for row in rows)


def write_obstacles_csv(path, rows) -> None:
    """Write (frame_id, t, ObstacleEstimate) triples to the flat schema."""
    write_csv(path, OBSTACLE_CSV_HEADER, ([
        str(int(frame_id)), t, est.center_x, est.center_y, est.length, est.width,
        est.height, est.confidence, est.class_tag, est.range,
    ] for frame_id, t, est in rows))


def read_obstacles_csv(path):
    """Read the obstacle CSV back into (frame_id, t, ObstacleEstimate) triples."""
    return _read_csv(path, (OBSTACLE_CSV_HEADER,), _obstacle_row)[1]


def _obstacle_row(r):
    est = ObstacleEstimate(
        center_x=float(r[2]), center_y=float(r[3]),
        length=float(r[4]), width=float(r[5]),
        height=None if r[6] == "" else float(r[6]),
        confidence=float(r[7]), class_tag=r[8], range=float(r[9]),
    )
    return int(r[0]), float(r[1]), est


# ---------------------------------------------------------------------------
# Evaluation harness


@dataclass(frozen=True)
class EvalResult:
    longitudinal: OffsetStats
    lateral: OffsetStats
    dimensions: DimensionStats
    comparison_rows: list  # (t, x_gt, y_gt, x_est or None, y_est or None)


def evaluate_detections(estimate_rows, gt_t, gt_x, gt_y, ego_t, ego_x, ego_y,
                        ego_psi, gate: float = 5.0,
                        lever_arm: tuple[float, float] = (0.0, 0.0),
                        total_frames: int | None = None) -> EvalResult:
    """Associate per-frame estimates with interpolated GT and fold metrics.

    ``estimate_rows`` is an iterable of (frame_id, t, ObstacleEstimate).
    Ground truth and ego series are linearly interpolated to the frame
    timestamps (heading via unwrap); a frame time outside either series,
    or a frame id with two timestamps, raises SchemaError.  The lever arm
    is added to the GT position in the local frame.  ``total_frames``
    defaults to the span of frame ids in the estimates file (missing-frame
    rows cannot appear in the CSV, so a contiguous id range is assumed).
    """
    by_frame: dict[int, tuple[float, list]] = {}
    for frame_id, t, est in estimate_rows:
        first, ests = by_frame.setdefault(int(frame_id), (float(t), []))
        if first != t:
            raise SchemaError(f"frame {frame_id} has two timestamps, {first!r} and {float(t)!r}")
        ests.append(est)
    if not by_frame:
        raise EmptySeries("no estimates to evaluate")
    frame_ids = sorted(by_frame)
    if total_frames is None:
        total_frames = frame_ids[-1] - frame_ids[0] + 1

    ego_psi = np.unwrap(ego_psi)
    matched = []
    comparison = []
    for frame_id in frame_ids:
        t, ests = by_frame[frame_id]
        for name, series in (("ground-truth", gt_t), ("ego", ego_t)):
            if not series[0] <= t <= series[-1]:
                raise SchemaError(f"frame {frame_id} at t={t!r} lies outside the {name} "
                                  f"series, t {float(series[0])!r} to {float(series[-1])!r}")
        gx = float(np.interp(t, gt_t, gt_x))
        gy = float(np.interp(t, gt_t, gt_y))
        ex = float(np.interp(t, ego_t, ego_x))
        ey = float(np.interp(t, ego_t, ego_y))
        epsi = float(np.interp(t, ego_t, ego_psi))
        local = transform_to_local(EgoPose(ex, ey, epsi), gx, gy)
        local = RelativePosition(local.x_loc + lever_arm[0],
                                 local.y_loc + lever_arm[1])
        best = associate(ests, local, gate)
        if best is None:
            comparison.append((t, local.x_loc, local.y_loc, None, None))
        else:
            matched.append((best, local))
            comparison.append((t, local.x_loc, local.y_loc,
                               best.center_x, best.center_y))

    return EvalResult(
        longitudinal=offset_stats(matched, "longitudinal", total_frames),
        lateral=offset_stats(matched, "lateral", total_frames),
        dimensions=dimension_stats([est for est, _ in matched]),
        comparison_rows=comparison,
    )


def write_eval_csvs(out, result: EvalResult) -> None:
    """Write the offset, dimension and comparison CSVs into the directory ``out``."""
    dims = result.dimensions
    write_csv(out / "offset_stats.csv", ["axis", "delta", "sigma", "availability"], [
        [axis, stats.mean_offset, stats.std, stats.availability]
        for axis, stats in (("longitudinal", result.longitudinal),
                            ("lateral", result.lateral))])
    write_csv(out / "dimension_stats.csv", ["E_l", "sigma_l", "E_w", "sigma_w"], [[
        dims.mean_length, dims.std_length, dims.mean_width, dims.std_width]])
    write_csv(out / "comparison.csv", ["t", "x_loc_gt", "y_loc_gt", "x_loc_est", "y_loc_est"],
              result.comparison_rows)
