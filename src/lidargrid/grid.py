"""2D projection, occupancy thresholding and binary morphology.

Points are collapsed onto the horizontal plane and counted into square
cells.  A cell becomes occupied when its count beats a range-dependent
threshold (point density thins out with distance) and a global noise
floor.  Opening followed by closing then removes speckle and reconnects
fragmented objects.

Grid arrays are indexed [ix, iy] with ix along +x and iy along +y; cell
intervals are half-open [lo, hi) so boundary points land in exactly one
cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_CELLS, as_point_array


@dataclass(frozen=True)
class GridConfig:
    """Grid geometry: extent in the vehicle frame plus a height crop.

    ``z_min``/``z_max`` crop on the z column of the projected points; the
    geometric pipeline feeds height above the fitted ground plane there.
    """

    cell_size: float = 0.3
    x_min: float = -30.0
    x_max: float = 30.0
    y_min: float = -30.0
    y_max: float = 30.0
    z_min: float = 0.1
    z_max: float = 3.0

    def __post_init__(self):
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be > 0")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid extent must be non-empty")
        if self.z_max <= self.z_min:
            raise ValueError("z_max must be > z_min")
        # each side first, so that a side too long to count is rejected too
        sides = ((self.x_max - self.x_min) / self.cell_size,
                 (self.y_max - self.y_min) / self.cell_size)
        if max(sides) > MAX_CELLS or self.nx * self.ny > MAX_CELLS:
            raise ValueError(f"grid has more than {MAX_CELLS} cells")

    @property
    def nx(self) -> int:
        return math.ceil((self.x_max - self.x_min) / self.cell_size)

    @property
    def ny(self) -> int:
        return math.ceil((self.y_max - self.y_min) / self.cell_size)

    def cell_centers_x(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.cell_size

    def cell_centers_y(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.cell_size

    def cell_ranges(self) -> np.ndarray:
        """Radial distance of every cell center from the origin, (nx, ny)."""
        cx = self.cell_centers_x()
        cy = self.cell_centers_y()
        return np.hypot(cx[:, None], cy[None, :])


@dataclass(frozen=True, eq=False)
class CellHistogram:
    """Per-cell point counts plus the number of out-of-extent points."""

    counts: np.ndarray
    config: GridConfig
    dropped: int = 0


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Binary occupancy over the same cell lattice as its source histogram."""

    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=bool))


@dataclass(frozen=True)
class ThresholdProfile:
    """Occupancy count thresholds that decay with radial distance.

    ``breakpoints`` is an ordered tuple of (range_start, count_threshold)
    starting at range 0; the threshold of the last breakpoint at or below
    a given range applies.  ``noise_min_count`` is a global floor applied
    on top of the profile.
    """

    breakpoints: tuple = ((0.0, 5), (10.0, 3), (20.0, 2))
    noise_min_count: int = 2

    def __post_init__(self):
        bps = tuple((float(r), int(c)) for r, c in self.breakpoints)
        if not bps or bps[0][0] != 0.0:
            raise ValueError("first breakpoint must start at range 0")
        starts = [r for r, _ in bps]
        if not all(b > a for a, b in zip(starts, starts[1:])):  # NaN fails too
            raise ValueError("breakpoint ranges must be strictly increasing")
        counts = [c for _, c in bps]
        if any(c < 1 for c in counts):
            raise ValueError("count thresholds must be >= 1")
        if any(b > a for a, b in zip(counts, counts[1:])):
            raise ValueError("count thresholds must be non-increasing with range")
        if self.noise_min_count < 0:
            raise ValueError("noise_min_count must be >= 0")
        object.__setattr__(self, "breakpoints", bps)

    def range_starts(self) -> np.ndarray:
        return np.array([r for r, _ in self.breakpoints])

    def count_thresholds(self) -> np.ndarray:
        return np.array([c for _, c in self.breakpoints])


def project_to_grid(points, cfg: GridConfig) -> CellHistogram:
    """Count points into cells; x/y intervals half-open, z crop closed.

    Points outside the extent (or the z crop) are dropped and tallied in
    ``CellHistogram.dropped``.
    """
    pts = as_point_array(points)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    keep = (
        (x >= cfg.x_min) & (x < cfg.x_max)
        & (y >= cfg.y_min) & (y < cfg.y_max)
        & (z >= cfg.z_min) & (z <= cfg.z_max)
    )
    ix = ((x[keep] - cfg.x_min) / cfg.cell_size).astype(np.int64)
    iy = ((y[keep] - cfg.y_min) / cfg.cell_size).astype(np.int64)
    # float rounding at the far edge could land exactly on nx/ny
    ok = (ix < cfg.nx) & (iy < cfg.ny)
    ix, iy = ix[ok], iy[ok]
    counts = np.bincount(ix * cfg.ny + iy, minlength=cfg.nx * cfg.ny)
    counts = counts.reshape(cfg.nx, cfg.ny)
    return CellHistogram(counts=counts, config=cfg,
                         dropped=int(pts.shape[0] - ix.shape[0]))


@lru_cache(maxsize=8)
def _threshold_map(cfg: GridConfig, profile: ThresholdProfile) -> np.ndarray:
    """Read-only per-cell max(profile threshold at cell range, noise floor)."""
    idx = np.searchsorted(profile.range_starts(), cfg.cell_ranges(), side="right") - 1
    thr = np.maximum(profile.count_thresholds()[idx], profile.noise_min_count)
    thr.flags.writeable = False
    return thr


def occupancy_from_counts(hist: CellHistogram, profile: ThresholdProfile) -> OccupancyGrid:
    """Occupied iff count >= max(profile threshold at cell range, noise floor)."""
    return OccupancyGrid(cells=hist.counts >= _threshold_map(hist.config, profile))


def _fold_square(grid: OccupancyGrid, kernel_radius: int, fold) -> OccupancyGrid:
    """Fold ``fold`` over the square of side 2r+1 around every cell.

    The square is separable: a pass along each row, then one along each
    column of its result.  A pass folds the 2r shifts of its input into a
    copy with in-place slice ops, 4r per call in all.  Outside the grid is
    free: the r cells at each end of a line have a partner off the grid,
    so they are folded with False.
    """
    if kernel_radius < 1:
        raise ValueError("kernel_radius must be >= 1")
    r = kernel_radius
    out = grid.cells
    for axis in (1, 0):
        src, out = out, out.copy()
        lead = (slice(None),) * axis
        for d in range(1, r + 1):
            head, tail = lead + (slice(None, -d),), lead + (slice(d, None),)
            fold(out[head], src[tail], out=out[head])
            fold(out[tail], src[head], out=out[tail])
        for edge in (lead + (slice(None, r),), lead + (slice(-r, None),)):
            fold(out[edge], False, out=out[edge])
    return OccupancyGrid(cells=out)


def binary_erode(grid: OccupancyGrid, kernel_radius: int = 1) -> OccupancyGrid:
    """Erosion with a square element of side 2r+1; outside the grid is free."""
    return _fold_square(grid, kernel_radius, np.logical_and)


def binary_dilate(grid: OccupancyGrid, kernel_radius: int = 1) -> OccupancyGrid:
    """Dilation with a square element of side 2r+1."""
    return _fold_square(grid, kernel_radius, np.logical_or)


def binary_open(grid: OccupancyGrid, kernel_radius: int = 1) -> OccupancyGrid:
    return binary_dilate(binary_erode(grid, kernel_radius), kernel_radius)


def binary_close(grid: OccupancyGrid, kernel_radius: int = 1) -> OccupancyGrid:
    # run on a free-padded domain so the erosion of the closing sees the
    # dilation's spill past the border; a clipped erosion would eat cells
    # at the edge and break extensivity (g subset of close(g))
    r = kernel_radius
    padded = OccupancyGrid(cells=np.pad(grid.cells, r, constant_values=False))
    closed = binary_erode(binary_dilate(padded, r), r)
    return OccupancyGrid(cells=closed.cells[r:-r, r:-r])


def morph_open_close(grid: OccupancyGrid, kernel_radius: int = 1) -> OccupancyGrid:
    """Opening then closing: kill isolated speckle, then bridge small gaps."""
    return binary_close(binary_open(grid, kernel_radius), kernel_radius)
