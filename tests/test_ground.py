import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fit_plane_by_choice, fit_plane_by_row_sums, least_squares_plane
from lidargrid.ground import (
    DegenerateInput,
    NoPlaneFound,
    PlaneModel,
    RansacParams,
    _count_inliers,
    _sample_triples,
    fit_plane_ransac,
    split_ground,
)
from lidargrid.pipeline import bench_scene
from lidargrid.synth import generate_frame
from test_acceptance import random_scene


def flat_cloud(n, z, rng, spread=20.0, noise=0.0):
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(-spread, spread, n)
    pts[:, 1] = rng.uniform(-spread, spread, n)
    pts[:, 2] = z + (rng.normal(0, noise, n) if noise else 0.0)
    return pts


class TestFitPlane:
    def test_exact_plane_recovered(self):
        rng = np.random.default_rng(0)
        pts = flat_cloud(100, 0.0, rng)
        plane = fit_plane_ransac(pts, RansacParams(rng_seed=1))
        np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-9)
        assert abs(plane.offset) <= 1e-9
        assert plane.inlier_ratio == 1.0

    def test_plane_with_outliers_matches_least_squares(self):
        rng = np.random.default_rng(5)
        inliers = flat_cloud(90, 0.5, rng)
        outliers = flat_cloud(10, 0.0, rng)
        outliers[:, 2] = rng.uniform(1.0, 3.0, 10)
        pts = np.vstack([inliers, outliers])
        params = RansacParams(rng_seed=2)
        plane = fit_plane_ransac(pts, params)
        ref_normal, ref_offset = least_squares_plane(inliers)
        assert plane.inlier_count >= 90
        # offset agrees with the constructed-inlier least-squares fit
        assert abs(plane.offset - ref_offset) <= params.distance_threshold
        assert float(plane.normal @ ref_normal) > 0.999
        np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-6)
        assert abs(plane.offset + 0.5) <= params.distance_threshold

    def test_two_points_degenerate(self):
        with pytest.raises(DegenerateInput):
            fit_plane_ransac(np.array([[0.0, 0, 0], [1, 0, 0]]))

    def test_collinear_points_degenerate(self):
        pts = np.array([[float(i), 2.0 * i, 3.0 * i] for i in range(30)])
        with pytest.raises(DegenerateInput):
            fit_plane_ransac(pts)

    @pytest.mark.parametrize("scale", [1e39, 1e50, 1e100, 1e150, 1e160, 1e200, 1e308])
    def test_coordinates_too_large_degenerate(self, scale):
        # past float32 max / 4 the float32 scoring casts overflow (1e39), the
        # candidate normals' norms (1e150) and the scatter (1e160) overflow
        rng = np.random.default_rng(5)
        pts = np.column_stack([scale * rng.uniform(-1, 1, (500, 2)), rng.uniform(-1, 1, 500)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInput, match="too large"):
                fit_plane_ransac(pts)

    def test_tilt_limit_rejects_steep_plane(self):
        rng = np.random.default_rng(7)
        pts = flat_cloud(200, 0.0, rng)
        tilt = math.radians(30.0)
        c, s = math.cos(tilt), math.sin(tilt)
        rot = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
        tilted = pts @ rot.T
        with pytest.raises(NoPlaneFound):
            fit_plane_ransac(tilted, RansacParams(rng_seed=0,
                                                  max_plane_tilt=math.radians(15)))
        plane = fit_plane_ransac(tilted, RansacParams(rng_seed=0,
                                                      max_plane_tilt=math.radians(45)))
        assert math.acos(min(1.0, plane.normal[2])) == pytest.approx(tilt, abs=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        pts = flat_cloud(500, -1.8, rng, noise=0.02)
        pts = np.vstack([pts, rng.uniform(-5, 5, (50, 3))])
        a = fit_plane_ransac(pts, RansacParams(rng_seed=42))
        b = fit_plane_ransac(pts, RansacParams(rng_seed=42))
        np.testing.assert_array_equal(a.normal, b.normal)
        assert a.offset == b.offset
        assert a.inlier_count == b.inlier_count

    def test_tilt_guard_holds_on_returned_plane(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            pts = flat_cloud(300, -1.8, rng, noise=0.05)
            params = RansacParams(rng_seed=seed)
            plane = fit_plane_ransac(pts, params)
            assert math.acos(min(1.0, plane.normal[2])) <= params.max_plane_tilt + 1e-9

    def test_inlier_maximality_vs_exhaustive_triples(self):
        params = RansacParams(max_iterations=300, rng_seed=3,
                              max_plane_tilt=math.radians(89.0))
        rng = np.random.default_rng(21)
        for seed in range(5):
            ground = flat_cloud(35, 0.0, rng, spread=5.0, noise=0.05)
            clutter = rng.uniform(-5, 5, (15, 3))
            pts = np.vstack([ground, clutter])
            plane = fit_plane_ransac(pts, params)
            best = 0
            for i, j, k in itertools.combinations(range(len(pts)), 3):
                n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
                norm = np.linalg.norm(n)
                if norm < 1e-12:
                    continue
                n = n / norm
                d = -n @ pts[i]
                count = int((np.abs(pts @ n + d) <= params.distance_threshold).sum())
                best = max(best, count)
            assert plane.inlier_count >= 0.95 * best

    @pytest.mark.parametrize("tilt", [-math.radians(15), math.radians(120),
                                      math.nan, math.pi / 2 + 1e-9])
    def test_max_plane_tilt_outside_quarter_turn_rejected(self, tilt):
        with pytest.raises(ValueError, match="max_plane_tilt"):
            RansacParams(max_plane_tilt=tilt)

    def test_max_plane_tilt_bounds_accepted(self):
        assert RansacParams(max_plane_tilt=0.0).max_plane_tilt == 0.0
        assert RansacParams(max_plane_tilt=math.radians(90)).max_plane_tilt == math.pi / 2

    def test_agrees_with_per_sample_choice_oracle(self):
        # the criterion-1 scenes: flat and 0.5-5 degree slopes, 1-3 boxes
        rng = np.random.default_rng(2024)
        params = RansacParams()
        for seed in range(60):
            pts = generate_frame(random_scene(rng, seed)).frame.points[:, :3]
            mine = fit_plane_ransac(pts, params)
            ref = fit_plane_by_choice(pts, params)
            angle = math.degrees(math.acos(min(1.0, float(mine.normal @ ref.normal))))
            assert angle <= 0.25, f"scene {seed}: planes {angle:.3f} deg apart"
            assert abs(mine.offset - ref.offset) <= 0.02, f"scene {seed}"
            assert mine.inlier_ratio >= ref.inlier_ratio - 0.005, f"scene {seed}"

    def test_dense_sensor_agrees_with_per_sample_choice_oracle(self):
        # 64 beams at 0.1 degrees, about 114k points: the candidates are
        # ranked on about 1k of them
        params = RansacParams()
        for seed, deg in itertools.product(range(3), (0.0, 2.0, 4.0)):
            pts = generate_frame(dense_bench_scene(seed, deg)).frame.points
            mine = fit_plane_ransac(pts, params)
            ref = fit_plane_by_choice(pts, params)
            angle = math.degrees(math.acos(min(1.0, float(mine.normal @ ref.normal))))
            assert angle <= 0.25, f"seed {seed}, {deg} deg: planes {angle:.3f} deg apart"
            assert abs(mine.offset - ref.offset) <= 0.02, f"seed {seed}, {deg} deg"
            assert mine.inlier_ratio >= ref.inlier_ratio - 0.005, f"seed {seed}, {deg} deg"

    @pytest.mark.parametrize("beams, step", [(16, 0.2), (64, 0.1)])
    def test_ranking_sample_is_bounded(self, monkeypatch, beams, step):
        seen = []  # (candidates, points) of each scoring call

        def spy(pts, normals, offsets, threshold):
            seen.append((len(normals), pts.shape[1]))
            return _count_inliers(pts, normals, offsets, threshold)

        monkeypatch.setattr("lidargrid.ground._count_inliers", spy)
        scene = replace(bench_scene(1), beam_count=beams, azimuth_resolution_deg=step)
        pts = generate_frame(scene).frame.points
        fit_plane_ransac(pts)
        (ranked, rank_points), (finalists, final_points) = seen
        assert ranked > 8 and rank_points <= 2 * 1024
        assert finalists == 8 and final_points == -(-len(pts) // 4)

    def test_ratio_held_to_the_exact_count(self):
        # the upper layer is 1e-11 m beyond the threshold: inside it in
        # float32, outside in float64, so only half the cloud is an inlier
        rng = np.random.default_rng(0)
        pts = np.zeros((200, 3))
        pts[:, :2] = rng.uniform(-5.0, 5.0, (200, 2))
        pts[100:, 2] = 0.15000000001
        with pytest.raises(NoPlaneFound, match="0.500 below minimum 0.6"):
            fit_plane_ransac(pts, RansacParams(min_inlier_ratio=0.6))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 5000), seed=st.integers(0, 2**32 - 1),
           gap=st.sampled_from([0.1, 0.15, 0.15000000001, 0.2, 0.5]),
           share=st.floats(0.0, 1.0), min_ratio=st.floats(0.0, 1.0),
           noise=st.sampled_from([0.0, 0.01, 0.1]))
    def test_returned_ratio_meets_the_minimum(self, n, seed, gap, share, min_ratio, noise):
        rng = np.random.default_rng(seed)
        pts = flat_cloud(n, 0.0, rng, spread=5.0, noise=noise)
        pts[rng.random(n) < share, 2] += gap
        params = RansacParams(min_inlier_ratio=min_ratio, rng_seed=seed % 1000)
        try:
            plane = fit_plane_ransac(pts, params)
        except NoPlaneFound:
            return
        assert plane.inlier_ratio >= min_ratio


def dense_bench_scene(seed, deg):
    return replace(bench_scene(seed), beam_count=64, azimuth_resolution_deg=0.1,
                   ground_slope=math.radians(deg))


def fit_outcome(fit, points, params=RansacParams()):
    """Everything a fit returns, to the bit, or its exception class and message."""
    try:
        plane = fit(points, params)
    except (DegenerateInput, NoPlaneFound) as exc:
        return type(exc), str(exc)
    return plane.normal.tobytes(), plane.offset, plane.inlier_count, plane.inlier_ratio


def assert_fit_matches_row_sums(points, params=RansacParams()):
    assert fit_outcome(fit_plane_ransac, points, params) == \
        fit_outcome(fit_plane_by_row_sums, points, params)


def line_cloud(n, rng, noise):
    t = rng.uniform(-10.0, 10.0, n)
    pts = np.outer(t, [0.6, 0.8, 0.05]) + [3.0, -2.0, -1.7]
    return pts + (rng.normal(0.0, noise, (n, 3)) if noise else 0.0)


class TestFitMatchesRowSumOracle:
    """Popcount scoring in chunks gives the fit of summing bool rows, to the bit."""

    def test_drive_mix_frames(self):
        params = RansacParams()
        for i in range(60):
            scene = replace(bench_scene(9700 + i),
                            ground_slope=math.radians((0.0, 2.0, 4.0)[i % 3]))
            points = generate_frame(scene).frame.points
            assert_fit_matches_row_sums(points, params)

    @pytest.mark.parametrize("deg", [0.0, 2.0, 4.0])
    def test_dense_sensor_frames(self, deg):
        # ranked on every 111th point, finalists on every 4th
        points = generate_frame(dense_bench_scene(7, deg)).frame.points
        assert_fit_matches_row_sums(points)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 2000), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 1e-9, 1e-6, 0.01, 0.3]),
           outliers=st.floats(0.0, 0.9), offset=st.sampled_from([0.0, 50.0, 1e5]),
           threshold=st.sampled_from([0.01, 0.15, 1.0]),
           min_ratio=st.sampled_from([0.0, 0.2, 0.6]),
           tilt_deg=st.sampled_from([0.0, 15.0, 60.0, 90.0]),
           iterations=st.integers(1, 120))
    def test_random_clouds(self, n, seed, noise, outliers, offset, threshold,
                           min_ratio, tilt_deg, iterations):
        rng = np.random.default_rng(seed)
        pts = flat_cloud(n, -1.8, rng, noise=noise) + offset
        wild = rng.random(n) < outliers
        pts[wild] = rng.uniform(-20.0, 20.0, (int(wild.sum()), 3)) + offset
        params = RansacParams(max_iterations=iterations, distance_threshold=threshold,
                              min_inlier_ratio=min_ratio, rng_seed=seed % 1000,
                              max_plane_tilt=math.radians(tilt_deg))
        assert_fit_matches_row_sums(pts, params)

    @pytest.mark.parametrize("n", [3, 4, 9, 17, 100, 2001, 5000])
    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-7, 1e-6, 3e-6, 1e-5, 1e-3])
    def test_near_collinear_clouds(self, n, noise):
        # the noise sweep crosses the collinearity tolerance from both sides
        rng = np.random.default_rng(n)
        assert_fit_matches_row_sums(line_cloud(n, rng, noise))

    @pytest.mark.parametrize("n", [3, 8, 9, 50, 3000])
    @pytest.mark.parametrize("where", [0, -1, "middle"])
    def test_line_plus_one_point(self, n, where):
        # the single off-line point lies at either end or in the middle
        rng = np.random.default_rng(7)
        pts = line_cloud(n, rng, 0.0)
        k = n // 2 if where == "middle" else where
        pts[k] += [0.0, 0.0, 2.0]
        assert_fit_matches_row_sums(pts)

    @pytest.mark.parametrize("far_at", [[1, 2], [0, 8]])
    def test_far_points_set_the_scale(self, far_at):
        # a fuzzy blob is not collinear alone, but two far points on a line
        # through it make the cloud collinear at its own scale, wherever
        # they sit in the cloud
        rng = np.random.default_rng(4)
        pts = rng.normal(0.0, 1e-5, (100, 3))
        pts[far_at] = [[1e4, 0.0, 0.0], [-1e4, 0.0, 0.0]]
        assert fit_outcome(fit_plane_ransac, pts)[0] is DegenerateInput
        assert_fit_matches_row_sums(pts)

    def test_candidates_scored_in_more_than_one_chunk(self):
        # 4e6 // 1500 = 2666 candidates per chunk, so 3000 need a second one;
        # on this cloud the winner lies in the second chunk
        rng = np.random.default_rng(22)
        pts = flat_cloud(1500, -1.8, rng, noise=0.1)
        params = RansacParams(max_iterations=3000)
        assert fit_plane_ransac(pts, params).inlier_ratio > 0.8
        assert_fit_matches_row_sums(pts, params)

    @pytest.mark.parametrize("points", [
        np.full((40, 3), 2.5),
        np.zeros((3, 3)),
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2]]),
        np.array([[0.0, 0, 0], [1, 0, 0]]),
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.05]]),
    ], ids=["all equal", "three equal", "three", "three collinear", "two",
            "four"])
    def test_degenerate_and_tiny_clouds(self, points):
        assert_fit_matches_row_sums(points)


class TestSampleTriples:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 10**6), m=st.integers(1, 500), seed=st.integers(0, 2**32))
    def test_distinct_in_range_and_deterministic(self, n, m, seed):
        idx = _sample_triples(n, m, np.random.default_rng(seed))
        assert idx.shape == (m, 3)
        assert idx.min() >= 0 and idx.max() < n
        assert np.all((idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2])
                      & (idx[:, 1] != idx[:, 2]))
        np.testing.assert_array_equal(idx, _sample_triples(n, m, np.random.default_rng(seed)))

    def test_three_points_give_permutations(self):
        idx = _sample_triples(3, 500, np.random.default_rng(0))
        assert {tuple(row) for row in idx} == set(itertools.permutations(range(3)))

    def test_uniform_over_ordered_triples(self):
        draws = 200_000
        idx = _sample_triples(5, draws, np.random.default_rng(11))
        counts = np.bincount(idx @ np.array([25, 5, 1]), minlength=125)
        cells = [25 * i + 5 * j + k for i, j, k in itertools.permutations(range(5), 3)]
        assert counts[cells].sum() == draws
        expected = draws / 60
        chi2 = float(((counts[cells] - expected) ** 2 / expected).sum())
        # chi-square quantile at p = 1e-3 for 59 degrees of freedom
        assert chi2 < 98.32, f"chi-square {chi2:.1f} over 60 triples"


class TestPlaneModel:
    @pytest.mark.parametrize("normal, offset", [
        ([0.0, 0.0, math.nan], 0.0), ([math.nan, 0.0, 1.0], 0.0),
        ([0.0, 0.0, 1.0], math.nan), ([0.0, 0.0, 1.0], math.inf),
        ([0.0, 0.0, 1.0], -math.inf),
    ])
    def test_non_finite_plane_rejected(self, normal, offset):
        # a NaN normal or offset made every signed distance NaN
        with pytest.raises(ValueError):
            PlaneModel(normal=np.array(normal), offset=offset, inlier_count=1,
                       inlier_ratio=1.0)

    @pytest.mark.parametrize("normal", [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    def test_normal_not_pointing_up_rejected(self, normal):
        with pytest.raises(ValueError, match=r"normal must point upward"):
            PlaneModel(normal=np.array(normal), offset=0.0, inlier_count=1, inlier_ratio=1.0)


class TestSplitGround:
    def test_points_on_plane_all_ground(self):
        plane = PlaneModel(normal=np.array([0.0, 0, 1]), offset=0.0,
                           inlier_count=4, inlier_ratio=1.0)
        pts = np.array([[0.0, 0, 0], [1, 1, 0], [2, -3, 0], [5, 5, 0]])
        ground, non_ground = split_ground(pts, plane, 0.15)
        assert len(ground) == 4
        assert len(non_ground) == 0

    def test_point_above_threshold_is_non_ground(self):
        plane = PlaneModel(normal=np.array([0.0, 0, 1]), offset=0.0,
                           inlier_count=1, inlier_ratio=1.0)
        ground, non_ground = split_ground(np.array([[0.0, 0, 1.0]]), plane, 0.15)
        assert len(ground) == 0
        assert len(non_ground) == 1

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(500, 4))
        plane = PlaneModel(normal=np.array([0.0, 0, 1]), offset=0.3,
                           inlier_count=1, inlier_ratio=0.5)
        ground, non_ground = split_ground(pts, plane, 0.2)
        assert len(ground) + len(non_ground) == len(pts)
        merged = np.vstack([ground, non_ground])
        assert np.array_equal(np.sort(merged.view("f8,f8,f8,f8"), axis=0),
                              np.sort(pts.view("f8,f8,f8,f8"), axis=0))

    def test_labeled_synthetic_scene_split(self):
        # plane at z=0 with sigma=0.02 noise, plus a clearly separated box
        rng = np.random.default_rng(23)
        ground_pts = flat_cloud(2000, 0.0, rng, noise=0.02)
        box = np.column_stack([
            rng.uniform(9, 11, 300),
            rng.uniform(-1, 1, 300),
            rng.uniform(0.4, 2.0, 300),
        ])
        pts = np.vstack([ground_pts, box])
        plane = fit_plane_ransac(pts, RansacParams(rng_seed=1))
        ground, non_ground = split_ground(pts, plane, 0.15)
        dist = np.abs(pts @ plane.normal + plane.offset)
        ground_mask = dist <= 0.15
        # every box point ends up non-ground
        assert not ground_mask[2000:].any()
        # at least 99% of constructed ground points are recalled
        assert ground_mask[:2000].mean() >= 0.99
