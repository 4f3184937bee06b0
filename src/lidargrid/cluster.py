"""Connected-component labeling and obstacle extraction.

``label_flat`` labels occupied cells given by sorted flat indices: it
finds neighbours by binary search in them and hands the edges to one
vectorized kernel, ``component_ids``, which the BEV route also uses to
merge components joined by centre-offset links.  Obstacles are read off
each component as a count-weighted centroid plus footprint extents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LidarGridError, ObstacleEstimate
from .grid import CellHistogram, GridConfig, OccupancyGrid


class DimensionMismatch(LidarGridError):
    """Label grid and histogram shapes disagree."""

    category = "dimension-mismatch"


@dataclass(frozen=True, eq=False)
class LabelGrid:
    """Per-cell component ids: 0 = free, 1..num_components occupied."""

    labels: np.ndarray
    num_components: int


# forward half of each neighbourhood: every undirected adjacency once
_FORWARD_4 = ((0, 1), (1, 0))
_FORWARD_8 = ((0, 1), (1, -1), (1, 0), (1, 1))


def component_ids(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes ``0..n-1``.

    ``u`` and ``v`` list the edges.  Returns one dense component id per
    node, numbered in order of each component's smallest node.  Each
    round hooks the larger root of every edge whose ends still differ
    onto the smaller one, then pointer-jumps until every node points at
    its root; roots only ever decrease, so a component's final root is
    its smallest node.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return np.unique(root, return_inverse=True)[1]
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def find_cells(flat: np.ndarray, target: np.ndarray):
    """Position of each ``target`` in sorted ``flat``, and whether it is there."""
    pos = np.searchsorted(flat, target)
    found = pos < flat.size
    found[found] = flat[pos[found]] == target[found]
    return pos, found


def label_flat(flat: np.ndarray, shape: tuple, connectivity: int = 8) -> np.ndarray:
    """Component ids of the occupied cells of a grid of ``shape``.

    ``flat`` holds their row-major indices in ascending order.  Ids are
    dense, numbered in raster order of each component's first cell.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    nj = shape[1]
    jj = flat % nj
    u, v = [], []
    for di, dj in _FORWARD_4 if connectivity == 4 else _FORWARD_8:
        # a step past the last row lands beyond every index in ``flat``
        dst, hit = find_cells(flat, flat + (di * nj + dj))
        if dj:
            hit &= (jj + dj >= 0) & (jj + dj < nj)
        src = np.flatnonzero(hit)
        u.append(src)
        v.append(dst[src])
    return component_ids(flat.size, np.concatenate(u), np.concatenate(v))


def label_components(grid, connectivity: int = 8) -> LabelGrid:
    """Label connected components of a boolean grid (4- or 8-connectivity).

    Accepts an OccupancyGrid or a bare boolean array.  The resulting
    partition equals flood fill; labels are dense and numbered in raster
    order of first appearance.
    """
    cells = grid.cells if isinstance(grid, OccupancyGrid) else np.asarray(grid, dtype=bool)
    flat = np.flatnonzero(cells)
    ids = label_flat(flat, cells.shape, connectivity)
    labels = np.zeros(cells.size, dtype=np.int64)
    labels[flat] = ids + 1
    return LabelGrid(labels=labels.reshape(cells.shape),
                     num_components=int(ids.max(initial=-1)) + 1)


def extract_obstacles(labels: LabelGrid, hist: CellHistogram, cfg: GridConfig,
                      min_cells: int = 2) -> list[ObstacleEstimate]:
    """Convert labeled components into obstacle estimates.

    Center is the point-count-weighted centroid of member cell centers;
    length/width are the axis-aligned footprint extents (length is the
    larger).  Components smaller than ``min_cells`` cells are skipped.
    """
    if labels.labels.shape != hist.counts.shape:
        raise DimensionMismatch(
            f"labels {labels.labels.shape} vs histogram {hist.counts.shape}"
        )
    k = labels.num_components
    if k == 0:
        return []

    ii, jj = np.nonzero(labels.labels)
    comp = labels.labels[ii, jj] - 1
    weights = hist.counts[ii, jj].astype(float)
    cx = cfg.cell_centers_x()[ii]
    cy = cfg.cell_centers_y()[jj]

    cell_counts = np.bincount(comp, minlength=k)
    w_sum = np.bincount(comp, weights=weights, minlength=k)
    wx = np.bincount(comp, weights=weights * cx, minlength=k)
    wy = np.bincount(comp, weights=weights * cy, minlength=k)
    # fall back to unweighted centroids for components of count-zero cells
    ux = np.bincount(comp, weights=cx, minlength=k)
    uy = np.bincount(comp, weights=cy, minlength=k)

    min_i = np.full(k, labels.labels.shape[0], dtype=np.int64)
    max_i = np.full(k, -1, dtype=np.int64)
    min_j = np.full(k, labels.labels.shape[1], dtype=np.int64)
    max_j = np.full(k, -1, dtype=np.int64)
    np.minimum.at(min_i, comp, ii)
    np.maximum.at(max_i, comp, ii)
    np.minimum.at(min_j, comp, jj)
    np.maximum.at(max_j, comp, jj)

    obstacles = []
    for c in range(k):
        if cell_counts[c] < min_cells:
            continue
        if w_sum[c] > 0.0:
            center_x = wx[c] / w_sum[c]
            center_y = wy[c] / w_sum[c]
        else:
            center_x = ux[c] / cell_counts[c]
            center_y = uy[c] / cell_counts[c]
        ext_x = (max_i[c] - min_i[c] + 1) * cfg.cell_size
        ext_y = (max_j[c] - min_j[c] + 1) * cfg.cell_size
        obstacles.append(ObstacleEstimate(
            center_x=float(center_x),
            center_y=float(center_y),
            length=float(max(ext_x, ext_y)),
            width=float(min(ext_x, ext_y)),
            confidence=1.0,
            class_tag="unknown",
            range=math.hypot(center_x, center_y),
        ))
    return obstacles
