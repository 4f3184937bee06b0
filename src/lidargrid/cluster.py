"""Connected-component labeling and obstacle extraction.

``label_flat`` labels occupied cells given by sorted flat indices: it
splits them into horizontal runs, links each run to the runs of the next
row it touches, and hands that run graph to one vectorized kernel,
``component_ids``, which the BEV route also uses to merge components
joined by centre-offset links.  ``label_components`` hands on the sorted
cell list with its ids (``LabelGrid``), as the BEV route carries its
cells, and builds no raster.  Obstacles are read off each component as
a count-weighted centroid plus its ``footprints``, shared by both routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeometryMismatch, ObstacleEstimate
from .grid import CellHistogram, OccupancyGrid


@dataclass(frozen=True, eq=False)
class LabelGrid:
    """Connected components of a grid of ``shape``.

    ``flat`` lists the row-major indices of the occupied cells in
    ascending order and ``ids`` their 0-based component ids, as
    ``label_flat`` returns them.
    """

    flat: np.ndarray
    ids: np.ndarray
    shape: tuple

    @property
    def num_components(self) -> int:
        return int(self.ids.max(initial=-1)) + 1

    @property
    def labels(self) -> np.ndarray:
        """The dense int64 raster, 0 = free and 1..num_components occupied,
        built on each access."""
        out = np.zeros(self.shape, dtype=np.int64)
        out.reshape(-1)[self.flat] = self.ids + 1
        return out


def component_ids(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes ``0..n-1``.

    ``u`` and ``v`` list the edges.  Returns one dense ``intp`` component
    id per node, numbered in order of each component's smallest node.
    Each round hooks the larger root of every edge whose ends still differ
    onto the smaller one, then pointer-jumps until every node points at
    its root; roots only ever decrease, so a component's final root is
    its smallest node.  A component's id is then the count of roots
    before its own: a prefix count of ``root == node``, with no sort.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return (np.cumsum(root == np.arange(n)) - 1)[root]
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def label_flat(flat: np.ndarray, shape: tuple, connectivity: int = 8) -> np.ndarray:
    """Component ids of the occupied cells of a grid of ``shape``.

    ``flat`` holds their row-major indices in ascending order.  Ids are
    dense, numbered in raster order of each component's first cell.
    Cells are labelled by horizontal runs (He, Chao & Suzuki, IEEE TIP
    2008): a run is joined to each run of the next row that overlaps its
    column span, widened by one column each way for 8-connectivity.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    nj = shape[1]
    # run boundaries: a run ends where the next index is not +1 or opens a row
    edge = np.ones(flat.size + 1, dtype=bool)
    edge[1:-1] = (np.diff(flat) != 1) | (flat[1:] % nj == 0)
    bounds = np.flatnonzero(edge)
    start, end = flat[bounds[:-1]], flat[bounds[1:] - 1]
    w = int(connectivity == 8)
    # the span below each run, clipped to that row; past the last row it
    # lies beyond every run
    lo = start + nj - w * (start % nj > 0)
    hi = end + nj + w * (end % nj < nj - 1)
    first = np.searchsorted(end, lo)
    count = np.searchsorted(start, hi, side="right") - first
    # run k touches runs first[k] .. first[k] + count[k] - 1 below it
    u = np.repeat(np.arange(start.size), count)
    v = np.arange(u.size) + np.repeat(first - (np.cumsum(count) - count), count)
    return np.repeat(component_ids(start.size, u, v), np.diff(bounds))


def label_components(grid, connectivity: int = 8) -> LabelGrid:
    """Label connected components of a boolean grid (4- or 8-connectivity).

    Accepts an OccupancyGrid or a bare boolean array.  The resulting
    partition equals flood fill; labels are dense and numbered in raster
    order of first appearance.
    """
    cells = grid.cells if isinstance(grid, OccupancyGrid) else np.asarray(grid, dtype=bool)
    flat = np.flatnonzero(cells)
    return LabelGrid(flat, label_flat(flat, cells.shape, connectivity), cells.shape)


def _component_runs(ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable order listing each component's cells as one run, and the k + 1 run bounds."""
    order = np.argsort(ids, kind="stable")
    return order, np.searchsorted(ids[order], np.arange(k + 1))


def footprints(cells: np.ndarray, bounds: np.ndarray, cell_size: float) -> tuple[list, list]:
    """Length >= width of the axis-aligned box of whole cells around each
    non-empty run ``bounds[r]:bounds[r + 1]`` of the (m, 2) cell indices
    ``cells``, times ``cell_size``."""
    starts = bounds[:-1]
    ext = (np.maximum.reduceat(cells, starts) - np.minimum.reduceat(cells, starts) + 1) * cell_size
    width, length = np.sort(ext, axis=1).T.tolist()
    return length, width


def extract_obstacles(labels: LabelGrid, hist: CellHistogram,
                      min_cells: int = 2) -> list[ObstacleEstimate]:
    """Convert labeled components into obstacle estimates on the lattice
    of ``hist.config``.

    Center is the point-count-weighted centroid of member cell centers;
    length and width are the component's ``footprints``.  Components
    smaller than ``min_cells`` cells are skipped.
    """
    cfg = hist.config
    if not labels.shape == hist.counts.shape == (cfg.nx, cfg.ny):
        raise GeometryMismatch(f"labels {labels.shape}, counts {hist.counts.shape}, "
                               f"grid {cfg.nx} x {cfg.ny}")
    k = labels.num_components
    order, bounds = _component_runs(labels.ids, k)
    # a stable order: bincount adds each component's cells in the labeler's order
    comp, flat = labels.ids[order], labels.flat[order]
    cells = np.array(np.divmod(flat, labels.shape[1])).T
    weights = hist.counts.ravel()[flat].astype(float)
    # a component of count-zero cells weighs each cell 1: its centroid is unweighted
    weights[(np.bincount(comp, weights=weights, minlength=k) == 0.0)[comp]] = 1.0
    cx = cfg.cell_centers_x()[cells[:, 0]]
    cy = cfg.cell_centers_y()[cells[:, 1]]

    w_sum = np.bincount(comp, weights=weights, minlength=k)
    wx = np.bincount(comp, weights=weights * cx, minlength=k)
    wy = np.bincount(comp, weights=weights * cy, minlength=k)

    cell_counts = bounds[1:] - bounds[:-1]
    length, width = footprints(cells, bounds, cfg.cell_size)

    obstacles = []
    for c in range(k):
        if cell_counts[c] >= min_cells:
            obstacles.append(ObstacleEstimate(
                center_x=float(wx[c] / w_sum[c]),
                center_y=float(wy[c] / w_sum[c]),
                length=length[c],
                width=width[c],
            ))
    return obstacles
