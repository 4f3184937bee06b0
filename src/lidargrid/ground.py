"""Ground-plane removal via RANSAC plane fitting.

The road surface is fitted with a single plane and every point within a
distance threshold of it is split off before projection.  Candidate
planes whose normal tilts too far from +z are rejected so that walls or
vehicle sides cannot win the vote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LidarGridError, as_point_array


class DegenerateInput(LidarGridError):
    """Fewer than 3 points, or all points collinear."""

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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.distance_threshold <= 0.0:
            raise ValueError("distance_threshold must be > 0")
        if not 0.0 <= self.min_inlier_ratio <= 1.0:
            raise ValueError("min_inlier_ratio outside [0, 1]")
        if not 0.0 <= self.max_plane_tilt <= math.pi / 2:
            raise ValueError("max_plane_tilt outside [0, pi/2]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


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
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"normal must be unit length, |n| = {norm}")
        if n[2] <= 0.0:
            raise ValueError("normal must point upward (n.z > 0)")
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
    """Inlier counts of a (3, n) float32 cloud per candidate plane, chunked for cache.

    Scoring runs in float32: the precision loss (~1e-5 m at typical
    ranges) is negligible against metric thresholds and the winner is
    recounted in float64 afterwards.
    """
    nrm = normals.astype(np.float32)
    off = offsets.astype(np.float32)[:, None]
    counts = np.empty(len(nrm), dtype=np.int64)
    chunk = max(1, int(4e6 // max(pts.shape[1], 1)))
    for lo in range(0, len(nrm), chunk):
        d = nrm[lo:lo + chunk] @ pts
        d += off[lo:lo + chunk]
        np.abs(d, out=d)
        counts[lo:lo + chunk] = (d <= np.float32(threshold)).sum(axis=1)
    return counts


def _scatter(xyz: np.ndarray):
    """Centroid, ascending eigenvalues and eigenvectors of a (3, n) cloud's scatter."""
    centroid = xyz.mean(axis=1)
    centered = xyz - centroid[:, None]
    eigvals, eigvecs = np.linalg.eigh(np.einsum("in,jn->ij", centered, centered))
    return centroid, eigvals, eigvecs


def fit_plane_ransac(points, params: RansacParams = RansacParams()) -> PlaneModel:
    """Fit the dominant near-horizontal plane by random sample consensus.

    Deterministic per ``params.rng_seed``, though a seed now gives other
    planes than the per-sample ``rng.choice`` of earlier versions.  The
    cloud is held as one (3, n) float64 copy and a float32 copy for
    scoring, so every reduction runs along a row.  The winning sampled
    plane is refined by a least-squares fit on its inliers when that does
    not reduce the inlier count or violate the tilt limit.

    Raises DegenerateInput for < 3 or collinear points and NoPlaneFound
    when no candidate reaches ``min_inlier_ratio``.
    """
    if not (isinstance(points, np.ndarray) and points.ndim == 2
            and points.shape[1] in (3, 4)):
        points = as_point_array(points)
    xyz = np.ascontiguousarray(points[:, :3].T, dtype=float)
    n = xyz.shape[1]
    if n < 3:
        raise DegenerateInput(f"plane fit needs >= 3 points, got {n}")
    _, eigvals, _ = _scatter(xyz)
    if eigvals[1] <= 1e-12 * max(1.0, eigvals[2]):
        raise DegenerateInput("all points collinear")

    rng = np.random.default_rng(params.rng_seed)
    normals, offsets, valid = _candidate_planes(xyz, params, rng)
    xyz32 = xyz.astype(np.float32)

    # two-stage scoring: rank all candidates on a strided subsample, then
    # count exactly only for the leaders (identical result in practice,
    # an order of magnitude less memory traffic)
    finalists = np.flatnonzero(valid)
    if finalists.size > 8 and n > 2000:
        sub = xyz32[:, ::8]
        sub_counts = _count_inliers(sub, normals[finalists], offsets[finalists],
                                    params.distance_threshold)
        order = np.argsort(-sub_counts, kind="stable")
        finalists = finalists[order[:8]]
    if finalists.size == 0:
        raise NoPlaneFound("no candidate plane within the tilt limit")

    counts = _count_inliers(xyz32, normals[finalists], offsets[finalists],
                            params.distance_threshold)
    best = int(finalists[int(np.argmax(counts))])
    best_count = int(counts.max())
    if best_count < params.min_inlier_ratio * n:
        raise NoPlaneFound(
            f"best inlier ratio {max(best_count, 0) / n:.3f} "
            f"below minimum {params.min_inlier_ratio}"
        )
    normal, offset = normals[best], float(offsets[best])

    inliers = np.abs(normal @ xyz + offset) <= params.distance_threshold
    best_count = int(inliers.sum())
    # orthogonal regression on the inliers: the normal is their direction
    # of least scatter, skipped when they are collinear
    centroid, eigvals, eigvecs = _scatter(np.compress(inliers, xyz, axis=1))
    r_normal = eigvecs[:, 0] if eigvecs[2, 0] >= 0.0 else -eigvecs[:, 0]
    r_normal = r_normal / float(np.linalg.norm(r_normal))
    if (eigvals[1] > 1e-18 * max(1.0, eigvals[2]) and r_normal[2] > 0.0
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
    dist = np.abs(pts[:, :3] @ plane.normal + plane.offset)
    mask = dist <= distance_threshold
    return pts[mask], pts[~mask]
