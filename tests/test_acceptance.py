"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""

import math
import time
from dataclasses import replace

import numpy as np

from helpers import flood_fill_labels, reference_mean_std, same_partition
from lidargrid.bev import (
    BevConfig,
    OutputAttributeGrid,
    cluster_output_grid,
    extract_channels,
    postprocess_clusters,
)
from lidargrid.cluster import label_components
from lidargrid.config import PipelineConfig
from lidargrid.core import ObstacleEstimate
from lidargrid.evaluate import (
    DimensionStats,
    EgoPose,
    RelativePosition,
    dimension_stats,
    offset_stats,
    transform_to_local,
)
from lidargrid.grid import OccupancyGrid, binary_close, binary_open, morph_open_close
from lidargrid.ground import RansacParams, fit_plane_ransac, split_ground
from lidargrid.pipeline import bench, run_geometric
from lidargrid.synth import GROUND_LABEL, BoxSpec, SceneSpec, generate_frame


def passed(n, message):
    print(f"\nACCEPTANCE {n} PASS — {message}")


def random_scene(rng, seed):
    """Flat or gently sloped ground with 1-3 clear-standing boxes."""
    slope = 0.0 if seed % 2 == 0 else math.radians(float(rng.uniform(0.5, 5.0)))
    n_boxes = int(rng.integers(1, 4))
    lanes = rng.permutation([-6.0, 0.0, 6.0])[:n_boxes]
    boxes = []
    for lane in lanes:
        boxes.append(BoxSpec(
            center_x=float(rng.uniform(7.0, 22.0)),
            center_y=float(lane + rng.uniform(-1.0, 1.0)),
            length=float(rng.uniform(3.5, 6.0)),
            width=float(rng.uniform(1.6, 2.4)),
            height=float(rng.uniform(1.5, 2.5)),
            yaw=float(rng.uniform(0, math.pi)),
            clearance=0.3,
        ))
    return SceneSpec(ground_slope=slope, noise_sigma=0.02,
                     obstacles=tuple(boxes), rng_seed=seed,
                     obstacle_density=400.0)


def test_criterion_1_ground_removal():
    rng = np.random.default_rng(2024)
    params = RansacParams()
    ground_total = ground_recalled = 0
    obstacle_total = obstacle_leaked = 0
    times = []
    for seed in range(100):
        labeled = generate_frame(random_scene(rng, seed))
        pts = labeled.frame.points
        t0 = time.perf_counter()
        plane = fit_plane_ransac(pts[:, :3], params)
        split_ground(pts, plane, params.distance_threshold)
        times.append(time.perf_counter() - t0)
        dist = np.abs(pts[:, :3] @ plane.normal + plane.offset)
        is_ground_call = dist <= params.distance_threshold
        truth_ground = labeled.labels == GROUND_LABEL
        ground_total += int(truth_ground.sum())
        ground_recalled += int((is_ground_call & truth_ground).sum())
        obstacle_total += int((~truth_ground).sum())
        obstacle_leaked += int((is_ground_call & ~truth_ground).sum())
    recall = ground_recalled / ground_total
    leakage = obstacle_leaked / obstacle_total
    mean_ms = float(np.mean(times)) * 1e3
    assert recall >= 0.99, f"ground recall {recall:.4f}"
    assert leakage <= 0.01, f"obstacle leakage {leakage:.4f}"
    assert mean_ms < 10.0, f"ground removal {mean_ms:.2f} ms"
    passed(1, f"ground removal: recall {recall:.4f}, leakage {leakage:.4f}, "
              f"{mean_ms:.2f} ms/frame over 100 scenes")


def test_criterion_2_labeling_oracle():
    rng = np.random.default_rng(77)
    checked = 0
    for shape in ((20, 20), (50, 50)):
        for _ in range(250):
            cells = rng.random(shape) < rng.uniform(0.2, 0.6)
            for connectivity in (4, 8):
                mine = label_components(cells, connectivity)
                ref = flood_fill_labels(cells, connectivity)
                assert mine.num_components == ref.max()
                assert same_partition(mine.labels, ref)
            checked += 1
    assert checked == 500
    passed(2, "labeling matches flood fill on 500 grids x both connectivities")


def test_criterion_3_end_to_end_van_scene():
    cfg = PipelineConfig()
    for seed in (0, 1, 2):
        scene = SceneSpec(obstacles=(BoxSpec(center_x=10.05, center_y=0.15,
                                             length=5.0, width=2.0, height=2.0),),
                          noise_sigma=0.02, rng_seed=seed)
        result = run_geometric(generate_frame(scene).frame, cfg)
        assert len(result.obstacles) == 1, f"seed {seed}: {len(result.obstacles)}"
        est = result.obstacles[0]
        err = math.hypot(est.center_x - 10.05, est.center_y - 0.15)
        assert err <= 0.45, f"seed {seed}: centroid error {err:.3f}"
        assert 4.5 <= est.length <= 5.7, f"seed {seed}: length {est.length:.2f}"
        assert 1.8 <= est.width <= 2.4, f"seed {seed}: width {est.width:.2f}"
    passed(3, "van scene: 1 obstacle, centroid <= 0.45 m, 5x2 m footprint in bounds")


def test_criterion_4_frame_transform():
    rng = np.random.default_rng(4)
    quarter = transform_to_local(EgoPose(0, 0, math.pi / 2), 1.0, 0.0)
    assert abs(quarter.x_loc - 0.0) <= 1e-9
    assert abs(quarter.y_loc - (-1.0)) <= 1e-9
    for _ in range(10_000):
        ex, ey, tx, ty = rng.uniform(-200, 200, 4)
        psi = rng.uniform(-math.pi, math.pi)
        ident = transform_to_local(EgoPose(ex, ey, 0.0), tx, ty)
        assert ident == RelativePosition(tx - ex, ty - ey)
        loc = transform_to_local(EgoPose(ex, ey, psi), tx, ty)
        norm_abs = math.hypot(tx - ex, ty - ey)
        assert abs(math.hypot(loc.x_loc, loc.y_loc) - norm_abs) <= 1e-9
        back = transform_to_local(EgoPose(0.0, 0.0, -psi), loc.x_loc, loc.y_loc)
        assert abs(back.x_loc - (tx - ex)) <= 1e-9
        assert abs(back.y_loc - (ty - ey)) <= 1e-9
    passed(4, "frame transform: identity, quarter turn, norm, inverse over 1e4 samples")


def test_criterion_5_metrics_against_reference():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        total = n + int(rng.integers(0, 20))
        pairs = []
        for _ in range(n):
            gt = RelativePosition(float(rng.uniform(-30, 30)),
                                  float(rng.uniform(-30, 30)))
            est = ObstacleEstimate(
                center_x=gt.x_loc + float(rng.normal(0, 2)),
                center_y=gt.y_loc + float(rng.normal(0, 2)),
                length=float(rng.uniform(2, 7)), width=float(rng.uniform(0.5, 2)))
            pairs.append((est, gt))
        lon = offset_stats(pairs, "longitudinal", total)
        lat = offset_stats(pairs, "lateral", total)
        dims = dimension_stats([e for e, _ in pairs])
        ref_lon = reference_mean_std([e.center_x - g.x_loc for e, g in pairs])
        ref_lat = reference_mean_std([e.center_y - g.y_loc for e, g in pairs])
        ref_len = reference_mean_std([e.length for e, _ in pairs])
        ref_wid = reference_mean_std([e.width for e, _ in pairs])
        assert abs(lon.mean_offset - ref_lon[0]) <= 1e-12
        assert abs(lon.std - ref_lon[1]) <= 1e-12
        assert abs(lat.mean_offset - ref_lat[0]) <= 1e-12
        assert abs(lat.std - ref_lat[1]) <= 1e-12
        assert abs(dims.mean_length - ref_len[0]) <= 1e-12
        assert abs(dims.std_length - ref_len[1]) <= 1e-12
        assert abs(dims.mean_width - ref_wid[0]) <= 1e-12
        assert abs(dims.std_width - ref_wid[1]) <= 1e-12
        assert lon.availability == n / total
    # dimension table mirrors the E[l], sigma_l, E[w], sigma_w row order
    from dataclasses import fields
    assert [f.name for f in fields(DimensionStats)] == [
        "mean_length", "std_length", "mean_width", "std_width"]
    passed(5, "offset/dimension statistics match the reference on 100 series")


def test_criterion_6_bev_features():
    rng = np.random.default_rng(6)
    cfg = BevConfig(image_size=48, range=8.0)
    for _ in range(100):
        n = int(rng.integers(0, 500))
        pts = np.column_stack([
            rng.uniform(-10, 10, n), rng.uniform(-10, 10, n),
            rng.normal(0, 2, n), rng.uniform(0, 1, n)])
        img = extract_channels(pts, cfg)
        occ = img.plane("occupancy") > 0
        assert (img.plane("mean_height")[occ]
                <= img.plane("max_height")[occ] + 1e-6).all()
        assert (img.plane("mean_intensity")[occ]
                <= img.plane("max_intensity")[occ] + 1e-6).all()
        np.testing.assert_array_equal(occ, img.plane("density") > 0)

    zeros = np.zeros((cfg.image_size, cfg.image_size))
    for _ in range(50):
        obj = (rng.random((cfg.image_size, cfg.image_size)) < 0.35).astype(float)
        attr = OutputAttributeGrid(
            config=cfg, objectness=obj, center_offset_x=zeros,
            center_offset_y=zeros, confidence=obj, height=zeros)
        clusters = cluster_output_grid(attr, 0.5)
        ref = flood_fill_labels(obj >= 0.5, 8)
        assert len(clusters) == ref.max()
        mine = np.zeros_like(ref)
        for label, c in enumerate(clusters, start=1):
            mine[c.cells[:, 0], c.cells[:, 1]] = label
        assert same_partition(mine, ref)

    van_cfg = BevConfig(image_size=672, range=30.0)
    centers = van_cfg.cell_centers()
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    inside = (np.abs(xs - 10.0) <= 2.5) & (np.abs(ys - 0.0) <= 1.0)
    z672 = np.zeros((672, 672))
    attr = OutputAttributeGrid(
        config=van_cfg, objectness=inside.astype(float), center_offset_x=z672,
        center_offset_y=z672, confidence=inside * 0.9, height=inside * 2.0)
    ests = postprocess_clusters(cluster_output_grid(attr, 0.5), 0.5, van_cfg)
    assert len(ests) == 1
    assert abs(ests[0].length - 5.0) <= van_cfg.cell_size + 1e-9
    assert abs(ests[0].width - 2.0) <= van_cfg.cell_size + 1e-9
    passed(6, "BEV channels, zero-offset oracle equality, van footprint +/- 1 cell")


def test_criterion_7_throughput():
    report = bench(PipelineConfig(), n_frames=15, seed=0)
    assert report.mean_points >= 20_000, f"frame size {report.mean_points:.0f}"
    assert [row[0] for row in report.rows][-1] == "total"
    assert report.total_mean_ms <= 50.0, f"mean {report.total_mean_ms:.1f} ms"
    passed(7, f"throughput: {report.total_mean_ms:.1f} ms mean "
              f"({report.achieved_hz:.0f} Hz) on ~{report.mean_points:.0f}-point frames")


def test_criterion_7_throughput_bev():
    report = bench(replace(PipelineConfig(), pipeline="bev"), n_frames=15, seed=0)
    assert report.mean_points >= 20_000, f"frame size {report.mean_points:.0f}"
    assert [row[0] for row in report.rows][-1] == "total"
    assert report.total_mean_ms <= 50.0, f"mean {report.total_mean_ms:.1f} ms"
    passed(7, f"BEV throughput: {report.total_mean_ms:.1f} ms mean "
              f"({report.achieved_hz:.0f} Hz) on ~{report.mean_points:.0f}-point frames")


def test_criterion_8_morphology_properties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        shape = (int(rng.integers(6, 30)), int(rng.integers(6, 30)))
        grid = OccupancyGrid(cells=rng.random(shape) < rng.uniform(0.2, 0.7))
        opened = binary_open(grid, 1)
        closed = binary_close(grid, 1)
        assert (opened.cells <= grid.cells).all()
        assert (grid.cells <= closed.cells).all()
        np.testing.assert_array_equal(binary_open(opened, 1).cells, opened.cells)
        np.testing.assert_array_equal(binary_close(closed, 1).cells, closed.cells)
    lonely = np.zeros((7, 7), dtype=bool)
    lonely[3, 3] = True
    assert not morph_open_close(OccupancyGrid(cells=lonely), 1).cells.any()
    passed(8, "morphology: anti-extensive/extensive, idempotent on 200 grids; "
              "isolated cell removed")
