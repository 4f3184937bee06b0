"""Bird's-eye-view channel features and output-grid post-processing.

``extract_channels`` collapses a point cloud into a 6-plane square BEV
image (height/intensity peaks and means, a bounded log density, and a
binary occupancy bit) kept over its occupied cells.  The network that
would consume that image is not part of this package;
``height_gap_detector`` stands in for it, scoring each occupied cell 0
or 1.  ``cluster_output_grid`` and ``postprocess_clusters`` turn a
detector's per-cell attributes, over the raster or a list of cells, back
into discrete obstacle estimates by grouping connected cells and the
components their centre offsets link, then confidence and size filters,
at an objectness threshold and a minimum confidence the caller gives.
The built-in route makes no raster-sized array per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_CELLS, GeometryMismatch, ObstacleEstimate, as_point_array, check_real,
                   check_whole)
# label_components is not called here, but perfbench/tracing.py wraps it
# under this module's name
from .cluster import (_component_runs, component_ids, footprints,
                      label_components, label_flat)  # noqa: F401
from .grid import cell_index

PLANE_NAMES = ("max_height", "mean_height", "max_intensity",
               "mean_intensity", "density", "occupancy")

# density plane: log(count + 1) / log(64), clipped to [0, 1]
_DENSITY_NORM = math.log(64.0)


@dataclass(frozen=True)
class BevConfig:
    """Square BEV raster: ``image_size`` cells per side covering ±``range`` m."""

    image_size: int = 672
    range: float = 30.0

    def __post_init__(self):
        check_whole("image_size", self.image_size, 1)
        if self.image_size ** 2 > MAX_CELLS:
            raise ValueError(f"image_size {self.image_size} gives more than {MAX_CELLS} cells")
        check_real("range", self.range, 0.0, open_low=True)

    @property
    def cell_size(self) -> float:
        return 2.0 * self.range / self.image_size

    def cell_centers(self) -> np.ndarray:
        return -self.range + (np.arange(self.image_size) + 0.5) * self.cell_size


def _support(cells, n: int) -> np.ndarray:
    """Flat cell indices i * n + j as int64, checked 1-D, strictly increasing
    and inside the raster: clustering's binary search needs all three."""
    c = np.asarray(cells)
    if (c.ndim != 1 or not np.issubdtype(c.dtype, np.integer)
            or c.size and (c[0] < 0 or c[-1] >= n * n or (np.diff(c) <= 0).any())):
        raise GeometryMismatch(f"cells must be 1-D strictly increasing integers in [0, {n * n})")
    return c.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class ChannelImage:
    """Six planes over the BEV raster, kept over the occupied ``cells``
    (sorted flat indices); ``values`` is float32, shape (6, m), in
    PLANE_NAMES order.  Every other cell is zero in every plane.
    """

    cells: np.ndarray
    values: np.ndarray
    config: BevConfig

    def __post_init__(self):
        cells = _support(self.cells, self.config.image_size)
        v = np.asarray(self.values, dtype=np.float32)
        if v.shape != (len(PLANE_NAMES), cells.size):
            raise GeometryMismatch(f"values shape {v.shape}, expected (6, {cells.size})")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "values", v)

    def _dense(self, values: np.ndarray) -> np.ndarray:
        n = self.config.image_size
        out = np.zeros(values.shape[:-1] + (n * n,), dtype=np.float32)
        out[..., self.cells] = values
        return out.reshape(values.shape[:-1] + (n, n))

    @property
    def planes(self) -> np.ndarray:
        """The dense (6, n, n) float32 raster, built on each access."""
        return self._dense(self.values)

    def plane(self, name: str) -> np.ndarray:
        """One dense (n, n) float32 plane, built on each call."""
        return self._dense(self.values[PLANE_NAMES.index(name)])

    def save(self, path) -> None:
        """Write the one-line text header plus little-endian float32 planes."""
        n = self.config.image_size
        with open(path, "wb") as fh:
            fh.write(f"BEV v1 {len(PLANE_NAMES)} {n} {n}\n".encode("ascii"))
            fh.write(np.ascontiguousarray(self.planes, dtype="<f4"))


def load_channel_image(path, half_range: float = 30.0) -> ChannelImage:
    """Read a file written by ChannelImage.save.

    The header carries raster dimensions only; the metric half-extent is
    supplied by the caller.  Every cell with a nonzero bit in any plane
    is kept, so saving the image again writes the same bytes.  Any
    malformed file raises GeometryMismatch.
    """
    with open(path, "rb") as fh:
        header = fh.readline().split()
        payload = fh.read()
    # bytes.isdigit() accepts ASCII digits only, so no header byte is decoded
    dims = header[2:]
    if header[:2] != [b"BEV", b"v1"] or len(dims) != 3 or not all(d.isdigit() for d in dims):
        raise GeometryMismatch(f"bad BEV header in {path}")
    planes, h, w = map(int, dims)
    if planes != len(PLANE_NAMES) or h != w or h < 1:
        raise GeometryMismatch(f"unsupported BEV layout {planes}x{h}x{w}")
    if len(payload) != 4 * planes * h * w:
        raise GeometryMismatch(f"BEV payload in {path} is {len(payload)} bytes, "
                               f"expected {4 * planes * h * w}")
    data = np.frombuffer(payload, dtype="<f4").reshape(planes, h * w)
    cells = np.flatnonzero(data.view("<u4").any(axis=0))
    cfg = BevConfig(image_size=h, range=half_range)
    return ChannelImage(cells=cells, values=data[:, cells], config=cfg)


def extract_channels(points, cfg: BevConfig) -> ChannelImage:
    """Build the 6-channel BEV image; points outside ±range are dropped.

    Statistics are taken over the occupied cells only, and the image
    keeps them there, so a frame makes no raster-sized arrays.  One sort
    of the key ``cell << b | row`` groups the rows by cell and keeps each
    cell's rows in order, so every sum adds its values in row order.
    """
    pts = as_point_array(points)
    n, r = cfg.image_size, cfg.range
    rows, flat = cell_index(pts[:, 0], pts[:, 1], (-r, -r), (r, r), cfg.cell_size, (n, n))
    b = len(pts).bit_length()
    key = flat << b | rows  # b bits hold any row index
    key.sort()
    rows = key & ((1 << b) - 1)
    key >>= b  # each sorted row's cell
    first = np.diff(key, prepend=-1) != 0
    slot = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    cells, counts = key[starts], np.diff(starts, append=key.size)
    z, inten = pts[:, 2].take(rows), pts[:, 3].take(rows)
    m = cells.size
    max_z = np.full(m, -np.inf)
    max_i = np.full(m, -np.inf)
    np.maximum.at(max_z, slot, z)
    np.maximum.at(max_i, slot, inten)

    # filled plane by plane, PLANE_NAMES order; assignment rounds as astype does
    values = np.empty((len(PLANE_NAMES), m), dtype=np.float32)
    values[0], values[2], values[5] = max_z, max_i, 1.0
    values[1] = np.bincount(slot, weights=z, minlength=m) / counts
    values[3] = np.bincount(slot, weights=inten, minlength=m) / counts
    values[4] = np.clip(np.log1p(counts) / _DENSITY_NORM, 0.0, 1.0)
    return ChannelImage(cells=cells, values=values, config=cfg)


@dataclass(frozen=True, eq=False)
class OutputAttributeGrid:
    """Per-cell detector attributes over the BEV raster.

    ``objectness`` and ``confidence`` are scores in [0, 1]; the center
    offsets are meters from the cell center to the predicted object
    center.  Attributes are (n, n) rasters, or with ``cells`` (sorted
    flat indices) one value per listed cell, shape (m,).  Unlisted cells
    have no score and never join a cluster.
    """

    config: BevConfig
    objectness: np.ndarray
    center_offset_x: np.ndarray
    center_offset_y: np.ndarray
    confidence: np.ndarray
    height: np.ndarray
    cells: np.ndarray | None = None

    def __post_init__(self):
        n = self.config.image_size
        shape = (n, n)
        if self.cells is not None:
            object.__setattr__(self, "cells", _support(self.cells, n))
            shape = self.cells.shape
        for name in ("objectness", "center_offset_x", "center_offset_y",
                     "confidence", "height"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise GeometryMismatch(f"{name} shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
        for name in ("objectness", "confidence"):
            arr = getattr(self, name)
            # NaN fails both comparisons, so it is rejected too
            if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
                raise ValueError(f"{name} scores outside [0, 1]")
        for name in ("center_offset_x", "center_offset_y", "height"):
            arr = getattr(self, name)
            # min and max carry any NaN, and any infinity shows in one of them
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError(f"{name} has a non-finite value")


def height_gap_detector(channels: ChannelImage,
                        min_height: float = 0.25) -> OutputAttributeGrid:
    """Heuristic stand-in predictor that suppresses the road surface.

    The pipeline builds ``channels`` from heights above the fitted ground
    plane, so the road lies near 0 on slopes too.  An occupied cell whose
    highest return rises at least ``min_height`` above the plane scores
    as an object, and its height attribute is that height.  The
    attributes are given over the occupied cells.
    """
    max_h, *_, occupancy = channels.values  # PLANE_NAMES order
    occ = occupancy > 0
    rise = max_h[occ].astype(np.float64)
    hit = rise >= min_height
    score = hit.astype(np.float64)
    no_offset = np.broadcast_to(0.0, score.shape)  # read-only, takes no memory
    return OutputAttributeGrid(
        config=channels.config, objectness=score, center_offset_x=no_offset,
        center_offset_y=no_offset, confidence=score, height=np.where(hit, rise, 0.0),
        cells=channels.cells[occ])


@dataclass(frozen=True, eq=False)
class RawCluster:
    """A group of above-threshold cells with aggregated attributes."""

    cells: np.ndarray  # (m, 2) int cell indices
    mean_confidence: float
    mean_height: float
    cell_center_x: float
    cell_center_y: float
    mean_offset_x: float
    mean_offset_y: float

    @property
    def size(self) -> int:
        return self.cells.shape[0]


def cluster_output_grid(attr: OutputAttributeGrid, objectness_threshold: float,
                        connectivity: int = 8) -> list[RawCluster]:
    """Group above-threshold cells by adjacency plus center-offset links.

    Cells with objectness >= threshold (within ``attr.cells`` when the
    grid lists them) are first joined by grid connectivity; each cell is
    additionally joined with the cell its center-offset vector points
    into (skipped when that cell is outside the grid or below threshold).
    A cell whose offsets are both zero, of either sign, points into itself
    and is not binned.  With all offsets zero this is plain labeling of
    connected components.  Clusters come out in raster order of their first cell.
    """
    check_real("objectness_threshold", objectness_threshold, 0.0, 1.0)
    cfg = attr.config
    n = cfg.image_size
    # positions in the flattened attributes; on a raster they are the cells
    pos = np.flatnonzero(attr.objectness >= objectness_threshold)
    if pos.size == 0:
        return []
    flat = pos if attr.cells is None else attr.cells[pos]
    base = label_flat(flat, (n, n), connectivity)
    ii, jj = np.divmod(flat, n)
    centers = cfg.cell_centers()
    cx, cy = centers[ii], centers[jj]
    offx = attr.center_offset_x.reshape(-1)[pos]
    offy = attr.center_offset_y.reshape(-1)[pos]

    moved = np.flatnonzero((offx != 0.0) | (offy != 0.0))  # a zero offset links nothing
    r = cfg.range
    src, target = cell_index(cx[moved] + offx[moved], cy[moved] + offy[moved],
                             (-r, -r), (r, r), cfg.cell_size, (n, n))
    src = moved[src]
    dst = np.searchsorted(flat, target).clip(max=flat.size - 1)
    hit = flat[dst] == target
    group = component_ids(int(base.max()) + 1, base[src[hit]], base[dst[hit]])

    # one stable sort puts each cluster's cells in a contiguous run, in
    # raster order.  Each row of a run's slice is then summed pairwise over
    # the same values in the same order as a per-cluster gather, so means
    # are bit-exact; np.add.reduceat and bincount sum in another order.
    order, bounds = _component_runs(group[base], int(group.max()) + 1)
    sel = pos[order]
    cells = np.stack([ii[order], jj[order]], axis=1)
    # rows in the order of RawCluster's fields after ``cells``
    means = np.stack([attr.confidence.reshape(-1)[sel], attr.height.reshape(-1)[sel],
                      cx[order], cy[order], offx[order], offy[order]])
    return [RawCluster(cells[lo:hi], *means[:, lo:hi].mean(axis=1).tolist())
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def postprocess_clusters(clusters, min_confidence: float, cfg: BevConfig,
                         min_cells: int = 2) -> list[ObstacleEstimate]:
    """Drop low-confidence clusters and those of fewer than ``min_cells``
    cells, and convert survivors to estimates.

    Center is the mean member cell center displaced by the mean predicted
    offset; length and width are the cluster's ``footprints``; the height
    attribute is averaged.
    """
    check_real("min_confidence", min_confidence, 0.0, 1.0)
    check_whole("min_cells", min_cells, 1)
    kept = [c for c in clusters
            if not (c.mean_confidence < min_confidence or c.size < min_cells)]
    if not kept:
        return []
    lengths, widths = footprints(np.concatenate([c.cells for c in kept]),
                                 np.cumsum([0] + [c.size for c in kept]), cfg.cell_size)
    out = []
    for c, length, width in zip(kept, lengths, widths):
        out.append(ObstacleEstimate(
            center_x=float(c.cell_center_x + c.mean_offset_x),
            center_y=float(c.cell_center_y + c.mean_offset_y),
            length=length,
            width=width,
            height=c.mean_height,
            confidence=c.mean_confidence,
        ))
    return out
