"""Bird's-eye-view channel features and output-grid post-processing.

``extract_channels`` collapses a point cloud into a 6-plane square BEV
image (height/intensity peaks and means, a bounded log density, and a
binary occupancy bit).  The detector that would consume that image is
abstracted behind a callable; ``cluster_output_grid`` and
``postprocess_clusters`` turn a detector's per-cell attribute grid back
into discrete obstacle estimates by grouping connected cells and the
components their centre offsets link, then confidence and size filters.
Clustering reads that grid at the flat indices of its above-threshold
cells and builds no dense label raster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LidarGridError, ObstacleEstimate, as_point_array
# label_components is not called here, but perfbench/tracing.py wraps it
# under this module's name
from .cluster import component_ids, find_cells, label_components, label_flat  # noqa: F401

PLANE_NAMES = ("max_height", "mean_height", "max_intensity",
               "mean_intensity", "density", "occupancy")

# density plane: log(count + 1) / log(64), clipped to [0, 1]
_DENSITY_NORM = math.log(64.0)


class GeometryMismatch(LidarGridError):
    """Attribute-grid planes disagree with the configured geometry."""

    category = "geometry-mismatch"


@dataclass(frozen=True)
class BevConfig:
    """Square BEV raster: ``image_size`` cells per side covering ±``range`` m."""

    image_size: int = 672
    range: float = 30.0

    def __post_init__(self):
        if self.image_size < 1:
            raise ValueError("image_size must be >= 1")
        if self.range <= 0.0:
            raise ValueError("range must be > 0")

    @property
    def cell_size(self) -> float:
        return 2.0 * self.range / self.image_size

    def cell_centers(self) -> np.ndarray:
        return -self.range + (np.arange(self.image_size) + 0.5) * self.cell_size


@dataclass(frozen=True, eq=False)
class ChannelImage:
    """Six stacked planes over the BEV raster, float32, shape (6, n, n).

    Plane order follows PLANE_NAMES.  Empty cells are zero in every plane.
    """

    planes: np.ndarray
    config: BevConfig

    def __post_init__(self):
        p = np.asarray(self.planes, dtype=np.float32)
        n = self.config.image_size
        if p.shape != (len(PLANE_NAMES), n, n):
            raise GeometryMismatch(f"planes shape {p.shape}, expected (6, {n}, {n})")
        object.__setattr__(self, "planes", p)

    def plane(self, name: str) -> np.ndarray:
        return self.planes[PLANE_NAMES.index(name)]

    def save(self, path) -> None:
        """Write the one-line text header plus little-endian float32 planes."""
        n = self.config.image_size
        with open(path, "wb") as fh:
            fh.write(f"BEV v1 {len(PLANE_NAMES)} {n} {n}\n".encode("ascii"))
            fh.write(np.ascontiguousarray(self.planes, dtype="<f4").tobytes())


def load_channel_image(path, half_range: float = 30.0) -> ChannelImage:
    """Read a file written by ChannelImage.save.

    The header carries raster dimensions only; the metric half-extent is
    supplied by the caller.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 5 or header[0] != "BEV" or header[1] != "v1":
            raise GeometryMismatch(f"bad BEV header in {path}")
        planes, h, w = int(header[2]), int(header[3]), int(header[4])
        if planes != len(PLANE_NAMES) or h != w:
            raise GeometryMismatch(f"unsupported BEV layout {planes}x{h}x{w}")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != planes * h * w:
        raise GeometryMismatch(f"truncated BEV payload in {path}")
    cfg = BevConfig(image_size=h, range=half_range)
    return ChannelImage(planes=data.reshape(planes, h, w).copy(), config=cfg)


def extract_channels(points, cfg: BevConfig) -> ChannelImage:
    """Build the 6-channel BEV image; points outside ±range are dropped.

    Statistics are taken over the occupied cells only and scattered into
    one zeroed image, so a frame makes no raster-sized temporaries.
    """
    pts = as_point_array(points)
    n = cfg.image_size
    x, y, z, inten = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    keep = (x >= -cfg.range) & (x < cfg.range) & (y >= -cfg.range) & (y < cfg.range)
    x, y, z, inten = x[keep], y[keep], z[keep], inten[keep]
    ix = ((x + cfg.range) / cfg.cell_size).astype(np.int64)
    iy = ((y + cfg.range) / cfg.cell_size).astype(np.int64)
    ok = (ix < n) & (iy < n)
    flat = ix[ok] * n + iy[ok]
    z, inten = z[ok], inten[ok]

    cells, slot = np.unique(flat, return_inverse=True)
    m = cells.size
    counts = np.bincount(slot, minlength=m).astype(np.float64)
    max_z = np.full(m, -np.inf)
    max_i = np.full(m, -np.inf)
    np.maximum.at(max_z, slot, z)
    np.maximum.at(max_i, slot, inten)

    planes = np.zeros((len(PLANE_NAMES), n * n), dtype=np.float32)
    planes[:, cells] = np.stack([
        max_z,
        np.bincount(slot, weights=z, minlength=m) / counts,
        max_i,
        np.bincount(slot, weights=inten, minlength=m) / counts,
        np.clip(np.log1p(counts) / _DENSITY_NORM, 0.0, 1.0),
        np.ones(m),
    ])
    return ChannelImage(planes=planes.reshape(len(PLANE_NAMES), n, n), config=cfg)


@dataclass(frozen=True, eq=False)
class OutputAttributeGrid:
    """Per-cell detector attributes over the BEV raster.

    ``objectness`` and ``confidence`` are scores in [0, 1]; the center
    offsets are meters from the cell center to the predicted object
    center; ``class_scores`` is opaque per-cell data carried through
    aggregation, shape (n, n, C) or None.
    """

    config: BevConfig
    objectness: np.ndarray
    center_offset_x: np.ndarray
    center_offset_y: np.ndarray
    confidence: np.ndarray
    height: np.ndarray
    class_scores: np.ndarray | None = None

    def __post_init__(self):
        n = self.config.image_size
        for name in ("objectness", "center_offset_x", "center_offset_y",
                     "confidence", "height"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n, n):
                raise GeometryMismatch(f"{name} shape {arr.shape}, expected ({n}, {n})")
            object.__setattr__(self, name, arr)
        for name in ("objectness", "confidence"):
            arr = getattr(self, name)
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ValueError(f"{name} scores outside [0, 1]")
        if self.class_scores is not None:
            cs = np.asarray(self.class_scores, dtype=np.float64)
            if cs.ndim != 3 or cs.shape[:2] != (n, n):
                raise GeometryMismatch(f"class_scores shape {cs.shape}")
            object.__setattr__(self, "class_scores", cs)


DetectorFn = Callable[[ChannelImage], OutputAttributeGrid]


def height_gap_detector(channels: ChannelImage,
                        min_height: float = 0.25) -> OutputAttributeGrid:
    """Heuristic stand-in predictor that suppresses the road surface.

    The pipeline builds ``channels`` from heights above the fitted ground
    plane, so the road lies near 0 on slopes too; the median mean-height
    over occupied cells (ground returns dominate a road scene) takes up
    what offset is left.  Cells rising at least ``min_height`` above it
    score as objects, and the height attribute is reported relative to it.
    """
    n = channels.config.image_size
    occ = np.flatnonzero(channels.plane("occupancy") > 0)
    mean_h = channels.plane("mean_height").ravel()[occ].astype(np.float64)
    ground = float(np.median(mean_h)) if occ.size else 0.0
    rise = channels.plane("max_height").ravel()[occ].astype(np.float64) - ground
    hit = rise >= min_height
    score = np.zeros((n, n))
    score.flat[occ[hit]] = 1.0
    height = np.zeros((n, n))
    height.flat[occ[hit]] = rise[hit]
    no_offset = np.broadcast_to(0.0, (n, n))  # read-only, takes no memory
    return OutputAttributeGrid(
        config=channels.config,
        objectness=score,
        center_offset_x=no_offset,
        center_offset_y=no_offset,
        confidence=score,
        height=height,
    )


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
    mean_class_scores: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.cells.shape[0]


def cluster_output_grid(attr: OutputAttributeGrid, objectness_threshold: float,
                        connectivity: int = 8) -> list[RawCluster]:
    """Group above-threshold cells by adjacency plus center-offset links.

    Cells with objectness >= threshold are first joined by grid
    connectivity; each cell is additionally joined with the cell its
    center-offset vector points into (skipped when that cell is outside
    the grid or below threshold).  With all offsets zero this reduces to
    plain connected-component labeling.  Clusters come out in raster
    order of their first cell.
    """
    if not 0.0 <= objectness_threshold <= 1.0:
        raise ValueError("objectness_threshold outside [0, 1]")
    cfg = attr.config
    n = cfg.image_size
    flat = np.flatnonzero(attr.objectness >= objectness_threshold)
    if flat.size == 0:
        return []
    base = label_flat(flat, (n, n), connectivity)
    ii, jj = np.divmod(flat, n)
    centers = cfg.cell_centers()
    cx, cy = centers[ii], centers[jj]
    offx, offy = attr.center_offset_x[ii, jj], attr.center_offset_y[ii, jj]

    t_i = np.floor((cx + offx + cfg.range) / cfg.cell_size).astype(np.int64)
    t_j = np.floor((cy + offy + cfg.range) / cfg.cell_size).astype(np.int64)
    src = np.flatnonzero((t_i >= 0) & (t_i < n) & (t_j >= 0) & (t_j < n))
    dst, hit = find_cells(flat, t_i[src] * n + t_j[src])
    group = component_ids(int(base.max()) + 1, base[src[hit]], base[dst[hit]])

    # one stable sort puts each cluster's cells in a contiguous run, in
    # raster order.  Each row of a run's slice is then summed pairwise over
    # the same values in the same order as a per-cluster gather, so means
    # are bit-exact; np.add.reduceat and bincount sum in another order.
    cell_group = group[base]
    order = np.argsort(cell_group, kind="stable")
    bounds = np.searchsorted(cell_group[order], np.arange(group.max() + 2)).tolist()
    ii, jj = ii[order], jj[order]
    cells = np.stack([ii, jj], axis=1)
    # rows in the order of RawCluster's fields after ``cells``
    means = np.stack([attr.confidence[ii, jj], attr.height[ii, jj],
                      cx[order], cy[order], offx[order], offy[order]])
    scores = None if attr.class_scores is None else attr.class_scores[ii, jj]
    return [RawCluster(cells[lo:hi], *means[:, lo:hi].mean(axis=1).tolist(),
                       None if scores is None else scores[lo:hi].mean(axis=0))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def postprocess_clusters(clusters, min_confidence: float, cfg: BevConfig,
                         min_cells: int = 2) -> list[ObstacleEstimate]:
    """Drop low-confidence clusters and those of fewer than ``min_cells``
    cells, and convert survivors to estimates.

    Center is the mean member cell center displaced by the mean predicted
    offset; footprint dimensions come from the cluster's axis-aligned
    bounding box; the height attribute is averaged.
    """
    out = []
    for c in clusters:
        if c.mean_confidence < min_confidence or c.size < min_cells:
            continue
        center_x = c.cell_center_x + c.mean_offset_x
        center_y = c.cell_center_y + c.mean_offset_y
        ext_i = (c.cells[:, 0].max() - c.cells[:, 0].min() + 1) * cfg.cell_size
        ext_j = (c.cells[:, 1].max() - c.cells[:, 1].min() + 1) * cfg.cell_size
        tag = "unknown"
        if c.mean_class_scores is not None and c.mean_class_scores.size:
            tag = f"class_{int(np.argmax(c.mean_class_scores))}"
        out.append(ObstacleEstimate(
            center_x=float(center_x),
            center_y=float(center_y),
            length=float(max(ext_i, ext_j)),
            width=float(min(ext_i, ext_j)),
            height=c.mean_height,
            confidence=c.mean_confidence,
            class_tag=tag,
            range=math.hypot(center_x, center_y),
        ))
    return out
