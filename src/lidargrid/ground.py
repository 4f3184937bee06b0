"""Ground-plane fitting by RANSAC, and the ground split it allows.

The road surface is fitted with a single plane; ``split_ground`` splits
off every point within a distance threshold of it.  Candidate planes
whose normal tilts too far from +z are rejected so that walls or
vehicle sides cannot win the vote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_CELLS, LidarGridError, as_point_array, check_real, check_whole


class DegenerateInput(LidarGridError):
    """Fewer than 3 points, all points collinear, or coordinates too large to fit."""

    category = "degenerate-input"


class NoPlaneFound(LidarGridError):
    """No candidate plane reached the required inlier ratio."""

    category = "no-plane"


@dataclass(frozen=True)
class RansacParams:
    max_iterations: int = 100
    distance_threshold: float = 0.15
    min_inlier_ratio: float = 0.2
    rng_seed: int = 0
    max_plane_tilt: float = math.radians(15.0)

    def __post_init__(self):
        check_whole("max_iterations", self.max_iterations, 1, MAX_CELLS)
        check_real("distance_threshold", self.distance_threshold, 0.0, open_low=True)
        check_real("min_inlier_ratio", self.min_inlier_ratio, 0.0, 1.0)
        check_real("max_plane_tilt", self.max_plane_tilt, 0.0, math.pi / 2)
        check_whole("rng_seed", self.rng_seed)


@dataclass(frozen=True, eq=False)
class PlaneModel:
    """Plane n.p + offset = 0 with unit normal oriented upward (n.z > 0)."""

    normal: np.ndarray
    offset: float
    inlier_count: int
    inlier_ratio: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        norm = float(np.linalg.norm(n))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"normal must be unit length, |n| = {norm}")
        if not n[2] > 0.0:
            raise ValueError("normal must point upward (n.z > 0)")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")
        object.__setattr__(self, "normal", n)

    def signed_distance(self, points) -> np.ndarray:
        """Signed distance of each point to the plane; positive is above."""
        pts = as_point_array(points)[:, :3]
        return pts @ self.normal + self.offset

    def tilt(self) -> float:
        """Angle between the plane normal and +z, in radians."""
        return float(math.acos(min(1.0, self.normal[2])))


def _sample_triples(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, 3) ordered triples of distinct indices in [0, n), uniform over all
    n(n-1)(n-2): one draw, then j steps past i and k past both."""
    idx = rng.integers(0, [n, n - 1, n - 2], size=(m, 3))
    i, j, k = idx.T  # views: the shifts below write into idx
    j += j >= i
    k += k >= np.minimum(i, j)
    k += k >= np.maximum(i, j)
    return idx


def _candidate_planes(xyz: np.ndarray, params: RansacParams, rng: np.random.Generator):
    """Sample point triples of the (3, n) cloud and derive canonical planes.

    Returns (normals (M,3), offsets (M,), valid (M,) bool).  Degenerate
    triples and candidates beyond the tilt limit are flagged invalid.
    """
    idx = _sample_triples(xyz.shape[1], params.max_iterations, rng)
    p1, p2, p3 = xyz[:, idx.T].transpose(1, 2, 0)
    normals = np.cross(p2 - p1, p3 - p1)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    safe = np.where(valid, norms, 1.0)
    normals = normals / safe[:, None]
    flip = normals[:, 2] < 0.0
    normals[flip] *= -1.0
    valid &= normals[:, 2] >= math.cos(params.max_plane_tilt)
    offsets = -np.einsum("ij,ij->i", normals, p1)
    return normals, offsets, valid


def _count_inliers(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                   threshold: float) -> np.ndarray:
    """Inlier counts of a (3, n) float32 cloud per candidate plane, scored in
    chunks that bound the float32 distance block to about 4M values.

    Scoring runs in float32: the precision loss (~1e-5 m at typical
    ranges) is negligible against metric thresholds and the winner is
    recounted in float64 afterwards.  Each row of the inlier mask is
    packed to bits and popcounted, which gives the same exact counts as
    summing the bools in less time.
    """
    nrm = normals.astype(np.float32)
    off = offsets.astype(np.float32)[:, None]
    counts = np.empty(len(nrm), dtype=np.int64)
    chunk = max(1, int(4e6 // max(pts.shape[1], 1)))
    for lo in range(0, len(nrm), chunk):
        d = nrm[lo:lo + chunk] @ pts
        d += off[lo:lo + chunk]
        np.abs(d, out=d)
        inside = np.packbits(d <= np.float32(threshold), axis=1)
        counts[lo:lo + chunk] = np.bitwise_count(inside).sum(axis=1)
    return counts


def _scatter(xyz: np.ndarray):
    """Centroid, ascending eigenvalues and eigenvectors of a (3, n) cloud's scatter."""
    centroid = xyz.mean(axis=1)
    centered = xyz - centroid[:, None]
    scatter = np.einsum("in,jn->ij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(scatter)
    return centroid, eigvals, eigvecs


def fit_plane_ransac(points, params: RansacParams = RansacParams()) -> PlaneModel:
    """Fit the dominant near-horizontal plane by random sample consensus.

    Deterministic per ``params.rng_seed``.  The candidates are scored in
    float32 on samples of the cloud: above 2000 points they are ranked on
    every ``max(8, n // 1024)``-th point (about 1024 points, however dense
    the sensor), and the 8 best are counted on every 4th point.  Only the
    winner is counted on every point, in float64, and that count is held
    to ``min_inlier_ratio``.  The winner is refined by a least-squares fit
    on its inliers when that does not reduce the inlier count or violate
    the tilt limit.

    Raises DegenerateInput for < 3 or collinear points, or a coordinate
    not strictly inside +-``float32 max / 4``, and NoPlaneFound when the
    winner's inlier ratio is below ``min_inlier_ratio``.
    """
    xyz = np.ascontiguousarray(as_point_array(points)[:, :3].T)
    n = xyz.shape[1]
    if n < 3:
        raise DegenerateInput(f"plane fit needs >= 3 points, got {n}")
    # a float32 distance sums three coordinate terms (together under
    # sqrt(3) * bound for a unit normal) and an offset (the same), so it stays
    # under 0.87 * float32 max; nor can the float64 scatter or cross products overflow
    bound = np.finfo(np.float32).max / 4
    if not (-bound < xyz.min() and xyz.max() < bound):
        raise DegenerateInput("point coordinates too large to fit a plane")
    _, eigvals, _ = _scatter(xyz)
    if eigvals[1] <= 1e-12 * max(1.0, eigvals[2]):
        raise DegenerateInput("all points collinear")

    rng = np.random.default_rng(params.rng_seed)
    normals, offsets, valid = _candidate_planes(xyz, params, rng)
    finalists = np.flatnonzero(valid)
    if finalists.size == 0:
        raise NoPlaneFound("no candidate plane within the tilt limit")

    # ranking needs a bounded number of points, not n (preemptive RANSAC,
    # Nister 2003); the ratio is held to the winner's exact count below
    stride = 1
    if n > 2000:
        if finalists.size > 8:
            sample = xyz[:, ::max(8, n // 1024)].astype(np.float32)
            ranked = _count_inliers(sample, normals[finalists], offsets[finalists],
                                    params.distance_threshold)
            finalists = finalists[np.argsort(-ranked, kind="stable")[:8]]
        stride = 4
    counts = _count_inliers(xyz[:, ::stride].astype(np.float32), normals[finalists],
                            offsets[finalists], params.distance_threshold)
    best = int(finalists[int(np.argmax(counts))])
    normal, offset = normals[best], float(offsets[best])

    inliers = np.abs(normal @ xyz + offset) <= params.distance_threshold
    best_count = int(inliers.sum())
    if best_count < params.min_inlier_ratio * n:
        raise NoPlaneFound(f"best inlier ratio {best_count / n:.3f} "
                           f"below minimum {params.min_inlier_ratio}")
    # orthogonal regression on the inliers: the normal is their direction
    # of least scatter, skipped when they are collinear
    centroid, eigvals, eigvecs = _scatter(np.compress(inliers, xyz, axis=1))
    r_normal = eigvecs[:, 0] if eigvecs[2, 0] >= 0.0 else -eigvecs[:, 0]
    r_normal = r_normal / float(np.linalg.norm(r_normal))
    # max_plane_tilt <= pi / 2, so the tilt test also puts the normal's z above 0
    if (eigvals[1] > 1e-18 * max(1.0, eigvals[2])
            and r_normal[2] >= math.cos(params.max_plane_tilt)):
        r_offset = float(-r_normal @ centroid)
        r_count = int((np.abs(r_normal @ xyz + r_offset)
                       <= params.distance_threshold).sum())
        if r_count >= best_count:
            normal, offset, best_count = r_normal, r_offset, r_count

    return PlaneModel(
        normal=normal,
        offset=offset,
        inlier_count=best_count,
        inlier_ratio=best_count / n,
    )


def split_ground(points, plane: PlaneModel, distance_threshold: float):
    """Partition points into (ground, non_ground) by distance to the plane.

    A point is ground iff |n.p + offset| <= distance_threshold.  Input
    columns beyond xyz (e.g. intensity) are carried through unchanged.
    """
    pts = as_point_array(points)
    ground = np.abs(plane.signed_distance(pts)) <= distance_threshold
    return np.compress(ground, pts, axis=0), np.compress(~ground, pts, axis=0)
