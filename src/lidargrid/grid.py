"""2D projection, occupancy thresholding and binary morphology.

Points are collapsed onto the horizontal plane and counted into square
cells.  A cell becomes occupied when its count reaches a threshold that
falls with range, since point density thins out with distance.  Opening
followed by closing then removes speckle and reconnects fragmented
objects.

Grid arrays are indexed [ix, iy] with ix along +x and iy along +y; cell
intervals are half-open [lo, hi) so boundary points land in exactly one
cell (``cell_index``, shared with the BEV raster).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_CELLS, as_point_array, check_real, check_tuple, check_whole


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
    z_min: float = 0.15
    z_max: float = 3.0

    def __post_init__(self):
        check_real("cell_size", self.cell_size, 0.0, open_low=True)
        for name in ("x_min", "x_max", "y_min", "y_max", "z_min"):
            check_real(name, getattr(self, name))
        check_real("z_max", self.z_max, self.z_min, open_low=True)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid extent must be non-empty")
        # each side first, so that a side too long (or infinite) to count is rejected too
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
    """Per-cell point counts on the lattice of ``config``."""

    counts: np.ndarray
    config: GridConfig


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
    a given range applies, so the last count is the floor beyond its start.
    """

    breakpoints: tuple = ((0.0, 5), (10.0, 3), (20.0, 2))

    def __post_init__(self):
        pairs = [check_tuple("breakpoints", bp, 2)
                 for bp in check_tuple("breakpoints", self.breakpoints)]
        for r, _ in pairs:  # before float() reads a true start as 1.0
            check_real("breakpoints", r)
        # YAML lists arrive unconverted, so a count of 5.0 or "5" reads as 5;
        # any other string ("5.0", 4300+ digits) is left for check_whole
        bps = tuple((float(r), int(c) if (isinstance(c, float)
                                          or isinstance(c, str) and c.isdecimal())
                     and float(c).is_integer() else c) for r, c in pairs)
        if not bps or bps[0][0] != 0.0:
            raise ValueError("first breakpoint must start at range 0")
        if any(b <= a for (a, _), (b, _) in zip(bps, bps[1:])):
            raise ValueError("breakpoint ranges must be strictly increasing")
        for _, c in bps:  # a count must fit a float, so 10**400 is refused
            check_whole("count thresholds", c, 1, sys.float_info.max)
        if any(b > a for (_, a), (_, b) in zip(bps, bps[1:])):
            raise ValueError("count thresholds must be non-increasing with range")
        object.__setattr__(self, "breakpoints", bps)


def cell_index(x, y, lo, hi, cell_size: float, shape, keep=True):
    """Kept ``rows`` and their row-major ``cells`` on a ``shape`` lattice.

    A row is kept where the mask ``keep`` holds and (x, y) lies in the
    half-open box [lo, hi) of (x, y) pairs.  A quotient that rounds up
    to the cell count lands in the last cell.
    """
    inside = (x >= lo[0]) & (x < hi[0]) & (y >= lo[1]) & (y < hi[1]) & keep
    rows = np.flatnonzero(inside)
    ix = np.minimum(((x[rows] - lo[0]) / cell_size).astype(np.int64), shape[0] - 1)
    iy = np.minimum(((y[rows] - lo[1]) / cell_size).astype(np.int64), shape[1] - 1)
    return rows, ix * shape[1] + iy


def project_to_grid(points, cfg: GridConfig) -> CellHistogram:
    """Count points into ``cell_index`` cells under the closed z crop
    [z_min, z_max]; points outside the extent or the crop are not counted."""
    pts = as_point_array(points)
    z = pts[:, 2]
    _, cells = cell_index(pts[:, 0], pts[:, 1], (cfg.x_min, cfg.y_min),
                          (cfg.x_max, cfg.y_max), cfg.cell_size, (cfg.nx, cfg.ny),
                          (z >= cfg.z_min) & (z <= cfg.z_max))
    counts = np.bincount(cells, minlength=cfg.nx * cfg.ny).reshape(cfg.nx, cfg.ny)
    return CellHistogram(counts=counts, config=cfg)


@lru_cache(maxsize=8)
def _threshold_map(cfg: GridConfig, profile: ThresholdProfile) -> np.ndarray:
    """Read-only per-cell profile threshold at the cell's range."""
    starts, counts = zip(*profile.breakpoints)
    idx = np.searchsorted(starts, cfg.cell_ranges(), side="right") - 1
    thr = np.array(counts)[idx]
    thr.flags.writeable = False
    return thr


def occupancy_from_counts(hist: CellHistogram, profile: ThresholdProfile) -> OccupancyGrid:
    """Occupied iff count >= the profile threshold at the cell's range."""
    return OccupancyGrid(cells=hist.counts >= _threshold_map(hist.config, profile))


def _fold_square(grid: OccupancyGrid, kernel_radius: int, fold) -> OccupancyGrid:
    """Fold ``fold`` over the square of side 2r+1 around every cell.

    The square is separable: a pass along each row, then one along each
    column of its result.  A pass folds the 2r shifts of its input into a
    copy with in-place slice ops, 4r per call in all.  Outside the grid is
    free: the r cells at each end of a line have a partner off the grid,
    so they are folded with False.
    """
    check_whole("kernel_radius", kernel_radius, 1)
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
