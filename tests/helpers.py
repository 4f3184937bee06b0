"""Independent oracles shared across the test suite.

Everything here is deliberately naive (flood fill, explicit set
morphology, plain-loop statistics and threshold lookup, row-by-row PCD
I/O, per-sample RANSAC draws, a per-cluster gather loop) so it cannot
share a bug with the implementations it checks.  A few keep the code a
faster version replaced (shift-fold morphology, bool row-sum RANSAC
scoring, the dense-grid obstacle scan, the synthetic generator that
slab-tests every ray against every box), so the faster code can be held
to exactly the same output.  ``occupancy_detector`` is a fixture: a
trivial BEV detector that exercises the post-processing end to end.
"""

from __future__ import annotations

import math

import numpy as np

from lidargrid.bev import ChannelImage, OutputAttributeGrid, RawCluster
from lidargrid.core import ObstacleEstimate, PointCloudFrame, as_point_array
from lidargrid.ground import (
    DegenerateInput,
    NoPlaneFound,
    PlaneModel,
    RansacParams,
    _candidate_planes,
    _scatter,
)
from lidargrid.pcd import ParseError, UnsupportedLayout
from lidargrid.synth import (
    GROUND_INTENSITY,
    GROUND_LABEL,
    OBSTACLE_INTENSITY,
    LabeledFrame,
    SceneSpec,
    _box_entry_t,
    _box_z_span,
    _ground_hit_t,
    _ray_directions,
    _sample_box_points,
)


def flood_fill_labels(cells: np.ndarray, connectivity: int) -> np.ndarray:
    """Label connected components by explicit-stack flood fill."""
    cells = np.asarray(cells, dtype=bool)
    ni, nj = cells.shape
    if connectivity == 4:
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        offsets = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                        if (di, dj) != (0, 0))
    labels = np.zeros((ni, nj), dtype=np.int64)
    next_label = 0
    for si in range(ni):
        for sj in range(nj):
            if not cells[si, sj] or labels[si, sj]:
                continue
            next_label += 1
            stack = [(si, sj)]
            labels[si, sj] = next_label
            while stack:
                i, j = stack.pop()
                for di, dj in offsets:
                    a, b = i + di, j + dj
                    if 0 <= a < ni and 0 <= b < nj and cells[a, b] and not labels[a, b]:
                        labels[a, b] = next_label
                        stack.append((a, b))
    return labels


def component_ids_by_bfs(n: int, u, v) -> list:
    """Component id of each node of the undirected graph on ``0..n-1`` with
    edges ``u[k]``-``v[k]``, by breadth-first search from each unvisited node
    in ascending order, so ids follow each component's smallest node."""
    neighbours = [[] for _ in range(n)]
    for a, b in zip(u, v):
        neighbours[a].append(b)
        neighbours[b].append(a)
    ids = [-1] * n
    next_id = 0
    for start in range(n):
        if ids[start] >= 0:
            continue
        ids[start] = next_id
        queue = [start]
        for node in queue:
            for other in neighbours[node]:
                if ids[other] < 0:
                    ids[other] = next_id
                    queue.append(other)
        next_id += 1
    return ids


def same_partition(labels_a: np.ndarray, labels_b: np.ndarray) -> bool:
    """True when two label grids induce identical partitions of the cells."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape or np.any((a == 0) != (b == 0)):
        return False
    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}
    for x, y in zip(a, b):
        if x == 0:
            continue
        if fwd.setdefault(int(x), int(y)) != y or rev.setdefault(int(y), int(x)) != x:
            return False
    return True


def erode_cells(occupied: set, radius: int) -> set:
    """Set-based erosion on the infinite plane; everything outside the set
    is free, so a cell survives only with its full square neighborhood."""
    out = set()
    for (i, j) in occupied:
        if all((i + di, j + dj) in occupied
               for di in range(-radius, radius + 1)
               for dj in range(-radius, radius + 1)):
            out.add((i, j))
    return out


def dilate_cells(occupied: set, radius: int) -> set:
    """Set-based dilation on the infinite plane (no clipping)."""
    out = set()
    for (i, j) in occupied:
        for di in range(-radius, radius + 1):
            for dj in range(-radius, radius + 1):
                out.add((i + di, j + dj))
    return out


def open_close_cells(occupied: set, radius: int) -> set:
    """Opening then closing on the infinite plane."""
    opened = dilate_cells(erode_cells(occupied, radius), radius)
    return erode_cells(dilate_cells(opened, radius), radius)


def cells_to_array(occupied: set, shape: tuple) -> np.ndarray:
    """Rasterize a cell set onto a grid, discarding out-of-window cells."""
    out = np.zeros(shape, dtype=bool)
    for i, j in occupied:
        if 0 <= i < shape[0] and 0 <= j < shape[1]:
            out[i, j] = True
    return out


def array_to_cells(cells: np.ndarray) -> set:
    return {(int(i), int(j)) for i, j in np.argwhere(cells)}


def threshold_for_range(r: float, profile) -> int:
    """Count threshold of the last breakpoint starting at or below ``r``
    (r >= 0), found by a plain loop over the profile."""
    threshold = None
    for start, count in profile.breakpoints:
        if start <= r:
            threshold = count
    return threshold


def _shifted(cells: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Shift a boolean grid by (di, dj), filling exposed borders with False."""
    out = np.zeros_like(cells)
    if abs(di) >= cells.shape[0] or abs(dj) >= cells.shape[1]:
        return out  # shifted wholly off the grid
    src_i = slice(max(0, -di), cells.shape[0] - max(0, di))
    src_j = slice(max(0, -dj), cells.shape[1] - max(0, dj))
    dst_i = slice(max(0, di), cells.shape[0] - max(0, -di))
    dst_j = slice(max(0, dj), cells.shape[1] - max(0, -dj))
    out[dst_i, dst_j] = cells[src_i, src_j]
    return out


def fold_shifts(cells: np.ndarray, radius: int, combine) -> np.ndarray:
    """Fold all (2r+1)^2 - 1 zero-filled shifts of a boolean grid into it:
    erosion with ``np.logical_and``, dilation with ``np.logical_or``."""
    out = cells.copy()
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di or dj:
                combine(out, _shifted(cells, di, dj), out=out)
    return out


def open_close_by_shifts(cells: np.ndarray, radius: int) -> np.ndarray:
    """Opening then closing by shift folds, the closing on a domain padded
    by ``radius`` free cells and cropped back, as ``morph_open_close``."""
    opened = fold_shifts(fold_shifts(cells, radius, np.logical_and), radius, np.logical_or)
    padded = np.pad(opened, radius, constant_values=False)
    closed = fold_shifts(fold_shifts(padded, radius, np.logical_or), radius, np.logical_and)
    return closed[radius:-radius, radius:-radius]


def reference_mean_std(values) -> tuple:
    """Plain-loop mean and population standard deviation."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def least_squares_plane(xyz: np.ndarray) -> tuple:
    """Reference orthogonal-regression plane (normal, offset), normal.z > 0."""
    centroid = xyz.mean(axis=0)
    u, s, vt = np.linalg.svd(xyz - centroid)
    normal = vt[-1]
    if normal[2] < 0:
        normal = -normal
    return normal, float(-normal @ centroid)


def _scatter_rows(xyz: np.ndarray):
    """Centroid, ascending eigenvalues and eigenvectors of an (n, 3) cloud."""
    centroid = xyz.mean(axis=0)
    centered = xyz - centroid
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered)
    return centroid, eigvals, eigvecs


def _count_inliers_rows(xyz, normals, offsets, threshold):
    """float32 inlier counts of an (n, 3) cloud, one column per plane."""
    d = np.abs(xyz.astype(np.float32) @ normals.astype(np.float32).T
               + offsets.astype(np.float32))
    return (d <= np.float32(threshold)).sum(axis=0)


def fit_plane_by_choice(points, params: RansacParams = RansacParams()) -> PlaneModel:
    """Reference RANSAC ground fit: one ``rng.choice(n, 3, replace=False)``
    per sample and scoring on the (n, 3) row layout, with the same
    checks, 8 finalists, float64 recount (which ``min_inlier_ratio`` is
    held to) and guarded least-squares refit as ``fit_plane_ransac``.
    Above 2000 points it ranks on every 8th point and counts the
    finalists on every point, so its ranking work grows with n."""
    xyz = as_point_array(points)[:, :3]
    n = xyz.shape[0]
    if n < 3:
        raise DegenerateInput(f"plane fit needs >= 3 points, got {n}")
    _, eigvals, _ = _scatter_rows(xyz)
    if eigvals[1] <= 1e-12 * max(1.0, eigvals[2]):
        raise DegenerateInput("all points collinear")

    rng = np.random.default_rng(params.rng_seed)
    idx = np.array([rng.choice(n, size=3, replace=False)
                    for _ in range(params.max_iterations)])
    p1, p2, p3 = xyz[idx[:, 0]], xyz[idx[:, 1]], xyz[idx[:, 2]]
    normals = np.cross(p2 - p1, p3 - p1)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    normals = normals / np.where(valid, norms, 1.0)[:, None]
    normals[normals[:, 2] < 0.0] *= -1.0
    valid &= normals[:, 2] >= math.cos(params.max_plane_tilt)
    offsets = -np.einsum("ij,ij->i", normals, p1)

    finalists = np.flatnonzero(valid)
    if finalists.size > 8 and n > 2000:
        sub_counts = _count_inliers_rows(xyz[::8], normals[finalists],
                                         offsets[finalists], params.distance_threshold)
        finalists = finalists[np.argsort(-sub_counts, kind="stable")[:8]]
    if finalists.size == 0:
        raise NoPlaneFound("no candidate plane within the tilt limit")
    counts = _count_inliers_rows(xyz, normals[finalists], offsets[finalists],
                                 params.distance_threshold)
    best = int(finalists[int(np.argmax(counts))])
    normal, offset = normals[best], float(offsets[best])

    inliers = np.abs(xyz @ normal + offset) <= params.distance_threshold
    best_count = int(inliers.sum())
    if best_count < params.min_inlier_ratio * n:
        raise NoPlaneFound("best inlier ratio below minimum")
    centroid, eigvals, eigvecs = _scatter_rows(xyz[inliers])
    r_normal = eigvecs[:, 0] if eigvecs[2, 0] >= 0.0 else -eigvecs[:, 0]
    r_normal = r_normal / float(np.linalg.norm(r_normal))
    if (eigvals[1] > 1e-18 * max(1.0, eigvals[2]) and r_normal[2] > 0.0
            and r_normal[2] >= math.cos(params.max_plane_tilt)):
        r_offset = float(-r_normal @ centroid)
        r_count = int((np.abs(xyz @ r_normal + r_offset)
                       <= params.distance_threshold).sum())
        if r_count >= best_count:
            normal, offset, best_count = r_normal, r_offset, r_count
    return PlaneModel(normal=normal, offset=offset, inlier_count=best_count,
                      inlier_ratio=best_count / n)


def _count_inliers_by_row_sums(pts, normals, offsets, threshold):
    """float32 inlier counts of a (3, n) cloud, summing each bool mask row."""
    d = np.abs(normals.astype(np.float32) @ pts + offsets.astype(np.float32)[:, None])
    return (d <= np.float32(threshold)).sum(axis=1)


def fit_plane_by_row_sums(points, params: RansacParams = RansacParams()) -> PlaneModel:
    """Reference for ``fit_plane_ransac`` with the same candidates
    (``_candidate_planes``) and scatter (``_scatter``): the full-cloud
    collinearity check runs on every call; above 2000 points candidates
    are ranked on every ``max(8, n // 1024)``-th point and the 8 best
    counted on every 4th, by summing bool rows on the same (3, n) layout;
    and the winner's float64 count is held to ``min_inlier_ratio``.  So
    the plane, offset, count and every exception must come out identical."""
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
    finalists = np.flatnonzero(valid)
    if finalists.size == 0:
        raise NoPlaneFound("no candidate plane within the tilt limit")
    stride = 1
    if n > 2000:
        if finalists.size > 8:
            sample = xyz[:, ::max(8, n // 1024)].astype(np.float32)
            ranked = _count_inliers_by_row_sums(sample, normals[finalists],
                                                offsets[finalists], params.distance_threshold)
            finalists = finalists[np.argsort(-ranked, kind="stable")[:8]]
        stride = 4
    counts = _count_inliers_by_row_sums(xyz[:, ::stride].astype(np.float32),
                                        normals[finalists], offsets[finalists],
                                        params.distance_threshold)
    best = int(finalists[int(np.argmax(counts))])
    normal, offset = normals[best], float(offsets[best])

    inliers = np.abs(normal @ xyz + offset) <= params.distance_threshold
    best_count = int(inliers.sum())
    if best_count < params.min_inlier_ratio * n:
        raise NoPlaneFound(f"best inlier ratio {best_count / n:.3f} "
                           f"below minimum {params.min_inlier_ratio}")
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
    return PlaneModel(normal=normal, offset=offset, inlier_count=best_count,
                      inlier_ratio=best_count / n)


_PCD_HEADER_KEYS = ("VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH",
                    "HEIGHT", "VIEWPOINT", "POINTS", "DATA")


def read_pcd_by_lines(path, frame_id: int = 0, timestamp: float = 0.0) -> PointCloudFrame:
    """Reference ASCII PCD reader: split the text into lines, then parse
    every value with float() one row at a time."""
    with open(path) as fh:
        lines = fh.readlines()

    header: dict[str, list[str]] = {}
    data_start = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        key = parts[0].upper()
        if key not in _PCD_HEADER_KEYS:
            raise ParseError(f"{path}: line {lineno}: unexpected header field {parts[0]!r}")
        header[key] = parts[1:]
        if key == "DATA":
            data_start = lineno
            break
    if data_start is None or "DATA" not in header:
        raise ParseError(f"{path}: missing DATA declaration")
    for key in ("FIELDS", "POINTS"):
        if key not in header:
            raise ParseError(f"{path}: missing {key} declaration")

    if [f.lower() for f in header["DATA"]] != ["ascii"]:
        raise UnsupportedLayout(f"{path}: only DATA ascii is supported")
    fields = [f.lower() for f in header["FIELDS"]]
    if fields not in (["x", "y", "z"], ["x", "y", "z", "intensity"]):
        raise UnsupportedLayout(f"{path}: unsupported FIELDS {fields}")
    if "COUNT" in header and any(c != "1" for c in header["COUNT"]):
        raise UnsupportedLayout(f"{path}: multi-count fields are not supported")

    try:
        n_points = int(header["POINTS"][0])
    except (IndexError, ValueError):
        raise ParseError(f"{path}: invalid POINTS declaration") from None

    rows = np.zeros((n_points, 4))
    row = 0
    for lineno in range(data_start, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped:
            continue
        if row >= n_points:
            raise ParseError(f"{path}: line {lineno + 1}: more rows than POINTS {n_points}")
        values = stripped.split()
        if len(values) != len(fields):
            raise ParseError(
                f"{path}: line {lineno + 1}: expected {len(fields)} values, got {len(values)}"
            )
        try:
            parsed = [float(v) for v in values]
        except ValueError:
            raise ParseError(f"{path}: line {lineno + 1}: non-numeric value") from None
        rows[row, :len(parsed)] = parsed
        row += 1
    if row != n_points:
        raise ParseError(
            f"{path}: line {len(lines)}: data truncated, {row} of {n_points} rows"
        )

    return PointCloudFrame(points=rows, timestamp=timestamp, frame_id=frame_id)


def band_then_crop_counts(levelled, cfg) -> np.ndarray:
    """Grid counts by the geometric route's older two-step height rule.

    Point by point: a row within ``ransac.distance_threshold`` of the
    plane is dropped as ground, the rest is cropped to [0.1, z_max] and
    counted into its half-open cell.
    """
    grid = cfg.grid
    counts = np.zeros((grid.nx, grid.ny), dtype=np.int64)
    for x, y, z, _ in np.asarray(levelled, dtype=float).tolist():
        if abs(z) <= cfg.ransac.distance_threshold or not 0.1 <= z <= grid.z_max:
            continue
        ix = math.floor((x - grid.x_min) / grid.cell_size)
        iy = math.floor((y - grid.y_min) / grid.cell_size)
        if 0 <= ix < grid.nx and 0 <= iy < grid.ny:
            counts[ix, iy] += 1
    return counts


def write_pcd_by_rows(frame: PointCloudFrame, path) -> None:
    """Reference ASCII PCD writer: one f-string per row."""
    n = len(frame)
    with open(path, "w") as fh:
        fh.write("VERSION 0.7\n")
        fh.write("FIELDS x y z intensity\n")
        fh.write("SIZE 4 4 4 4\n")
        fh.write("TYPE F F F F\n")
        fh.write("COUNT 1 1 1 1\n")
        fh.write(f"WIDTH {n}\n")
        fh.write("HEIGHT 1\n")
        fh.write("VIEWPOINT 0 0 0 1 0 0 0\n")
        fh.write(f"POINTS {n}\n")
        fh.write("DATA ascii\n")
        for x, y, z, i in frame.points:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g} {i:.9g}\n")


def cluster_output_grid_by_loop(attr: OutputAttributeGrid, objectness_threshold: float,
                                connectivity: int = 8) -> list:
    """BEV clustering on a dense label grid, one gather per cluster.

    Labels the above-threshold mask by flood fill, joins components along
    centre-offset links (target cells looked up in the mask and the label
    grid) with a plain union-find that keeps each set's smallest member as
    its root, then gathers each cluster's cells and averages them.
    """
    if not 0.0 <= objectness_threshold <= 1.0:
        raise ValueError("objectness_threshold outside [0, 1]")
    cfg = attr.config
    n = cfg.image_size
    mask = attr.objectness >= objectness_threshold
    labels = flood_fill_labels(mask, connectivity)
    k = int(labels.max())
    if k == 0:
        return []

    ii, jj = np.nonzero(mask)
    centers = cfg.cell_centers()
    tx = centers[ii] + attr.center_offset_x[ii, jj]
    ty = centers[jj] + attr.center_offset_y[ii, jj]
    # a target in [-range, range) whose quotient rounds up to n is in the last cell
    in_grid = (tx >= -cfg.range) & (tx < cfg.range) & (ty >= -cfg.range) & (ty < cfg.range)
    t_i = np.minimum(np.floor((tx + cfg.range) / cfg.cell_size).astype(np.int64), n - 1)
    t_j = np.minimum(np.floor((ty + cfg.range) / cfg.cell_size).astype(np.int64), n - 1)
    valid = in_grid.copy()
    valid[in_grid] &= mask[t_i[in_grid], t_j[in_grid]]

    src_comp = labels[ii, jj] - 1
    dst_comp = labels[t_i[valid], t_j[valid]] - 1
    root = list(range(k))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in zip(src_comp[valid].tolist(), dst_comp.tolist()):
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    # groups numbered in order of their smallest component, as component_ids does
    group = np.unique([find(a) for a in range(k)], return_inverse=True)[1]
    cell_group = group[src_comp]

    conf = attr.confidence[ii, jj]
    height = attr.height[ii, jj]
    offx = attr.center_offset_x[ii, jj]
    offy = attr.center_offset_y[ii, jj]
    cx = centers[ii]
    cy = centers[jj]

    clusters = []
    order = np.argsort(cell_group, kind="stable")
    bounds = np.searchsorted(cell_group[order], np.arange(group.max() + 2))
    for g in range(group.max() + 1):
        sel = order[bounds[g]:bounds[g + 1]]
        cells = np.stack([ii[sel], jj[sel]], axis=1)
        mean_cs = None
        if attr.class_scores is not None:
            mean_cs = attr.class_scores[ii[sel], jj[sel]].mean(axis=0)
        clusters.append(RawCluster(
            cells=cells,
            mean_confidence=float(conf[sel].mean()),
            mean_height=float(height[sel].mean()),
            cell_center_x=float(cx[sel].mean()),
            cell_center_y=float(cy[sel].mean()),
            mean_offset_x=float(offx[sel].mean()),
            mean_offset_y=float(offy[sel].mean()),
            mean_class_scores=mean_cs,
        ))
    return clusters


def extract_obstacles_by_rescan(labels, hist, cfg, min_cells: int = 2) -> list:
    """Reference obstacle extraction that finds the occupied cells and
    their ids by scanning the dense label grid, ignoring the label grid's
    ``flat`` and ``ids``; otherwise the arithmetic of ``extract_obstacles``."""
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
    ux = np.bincount(comp, weights=cx, minlength=k)
    uy = np.bincount(comp, weights=cy, minlength=k)

    obstacles = []
    for c in range(k):
        if cell_counts[c] < min_cells:
            continue
        if w_sum[c] > 0.0:
            center_x, center_y = wx[c] / w_sum[c], wy[c] / w_sum[c]
        else:
            center_x, center_y = ux[c] / cell_counts[c], uy[c] / cell_counts[c]
        mine = comp == c
        ext_x = (ii[mine].max() - ii[mine].min() + 1) * cfg.cell_size
        ext_y = (jj[mine].max() - jj[mine].min() + 1) * cfg.cell_size
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


def occupancy_detector(channels: ChannelImage) -> OutputAttributeGrid:
    """Trivial plug-in predictor: objectness and confidence from occupancy."""
    n = channels.config.image_size
    occ = channels.plane("occupancy").astype(np.float64)
    no_offset = np.broadcast_to(0.0, (n, n))  # read-only, takes no memory
    return OutputAttributeGrid(
        config=channels.config,
        objectness=occ,
        center_offset_x=no_offset,
        center_offset_y=no_offset,
        confidence=occ,
        height=channels.plane("max_height").astype(np.float64),
    )


def generate_frame_all_rays(spec: SceneSpec, frame_id: int = 0,
                            timestamp: float = 0.0) -> LabeledFrame:
    """``generate_frame`` with every ray slab-tested against every box, and
    every box's samples against every other box."""
    rng = np.random.default_rng(spec.rng_seed)
    dirs = _ray_directions(spec)
    t_ground = _ground_hit_t(spec, dirs)

    blocked = np.zeros(dirs.shape[0], dtype=bool)
    for box in spec.obstacles:
        blocked |= _box_entry_t(spec, box, dirs) < t_ground

    ground_mask = (t_ground <= spec.max_range) & ~blocked
    t_hit = t_ground[ground_mask] + rng.normal(0.0, spec.noise_sigma,
                                               size=int(ground_mask.sum()))
    ground_pts = dirs[ground_mask] * t_hit[:, None]

    chunks = [ground_pts]
    labels = [np.full(ground_pts.shape[0], GROUND_LABEL, dtype=np.int64)]
    intensities = [np.full(ground_pts.shape[0], GROUND_INTENSITY)]

    for b, box in enumerate(spec.obstacles):
        z_lo, z_hi = _box_z_span(spec, box)
        count = max(1, int(round(spec.obstacle_density * box.length * box.width)))
        pts = _sample_box_points(box, z_lo, z_hi, count, rng)
        dist = np.linalg.norm(pts, axis=1)
        keep = (dist > 1e-9) & (dist <= spec.max_range)
        pts, dist = pts[keep], dist[keep]
        pdirs = pts / dist[:, None]
        visible = _ground_hit_t(spec, pdirs) >= dist - 1e-9
        for j, other in enumerate(spec.obstacles):
            if j == b:
                continue
            visible &= _box_entry_t(spec, other, pdirs) >= dist - 1e-9
        pts, dist, pdirs = pts[visible], dist[visible], pdirs[visible]
        noise = rng.normal(0.0, spec.noise_sigma, size=pts.shape[0])
        pts = pts + pdirs * noise[:, None]
        chunks.append(pts)
        labels.append(np.full(pts.shape[0], b, dtype=np.int64))
        intensities.append(np.full(pts.shape[0], OBSTACLE_INTENSITY))

    budget = spec.ray_count
    xyz = np.vstack(chunks)[:budget]
    lab = np.concatenate(labels)[:budget]
    inten = np.concatenate(intensities)[:budget]
    points = np.hstack([xyz, inten[:, None]])
    frame = PointCloudFrame(points=points, timestamp=timestamp, frame_id=frame_id)
    return LabeledFrame(frame=frame, labels=lab)
