import math

import numpy as np
import pytest

from helpers import reference_mean_std
from lidargrid.core import ObstacleEstimate
from lidargrid.evaluate import (
    EgoPose,
    EmptySeries,
    InvalidLatitude,
    RelativePosition,
    SchemaError,
    associate,
    dimension_stats,
    evaluate_detections,
    geodetic_to_plane,
    offset_stats,
    read_ego_csv,
    read_ground_truth_csv,
    read_obstacles_csv,
    transform_to_local,
    write_obstacles_csv,
)


def est_at(x, y, length=4.0, width=2.0, **kwargs):
    return ObstacleEstimate(center_x=x, center_y=y, length=length, width=width,
                            **kwargs)


class TestGeodeticToPlane:
    def test_reference_maps_to_origin(self):
        assert geodetic_to_plane(45.0, 9.0, 45.0, 9.0) == (0.0, 0.0)

    def test_one_degree_latitude(self):
        _, y = geodetic_to_plane(46.0, 9.0, 45.0, 9.0)
        assert y == pytest.approx(111_319.49, abs=0.01)

    def test_one_degree_longitude_at_60(self):
        x, _ = geodetic_to_plane(60.0, 10.0, 60.0, 9.0)
        assert x == pytest.approx(55_659.75, abs=0.01)
        x_eq, _ = geodetic_to_plane(0.0, 10.0, 0.0, 9.0)
        assert x == pytest.approx(x_eq / 2.0, abs=1e-6)

    def test_linear_in_deltas(self):
        # dyadic deltas keep the float subtraction exact, so doubling the
        # delta must double the output exactly
        rng = np.random.default_rng(3)
        ref_lat, ref_lon = 45.0, 9.0
        for _ in range(50):
            dlat = int(rng.integers(-4000, 4000)) * 2.0 ** -20
            dlon = int(rng.integers(-4000, 4000)) * 2.0 ** -20
            x1, y1 = geodetic_to_plane(ref_lat + dlat, ref_lon + dlon, ref_lat, ref_lon)
            x2, y2 = geodetic_to_plane(ref_lat + 2 * dlat, ref_lon + 2 * dlon,
                                       ref_lat, ref_lon)
            assert x2 == 2 * x1
            assert y2 == 2 * y1

    def test_invalid_latitude(self):
        with pytest.raises(InvalidLatitude):
            geodetic_to_plane(91.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidLatitude):
            geodetic_to_plane(10.0, 0.0, 100.0, 0.0)


class TestTransformToLocal:
    def test_identity_at_zero_heading(self):
        out = transform_to_local(EgoPose(0, 0, 0.0), 3.0, 4.0)
        assert out == RelativePosition(3.0, 4.0)

    def test_quarter_turn(self):
        out = transform_to_local(EgoPose(0, 0, math.pi / 2), 1.0, 0.0)
        assert out.x_loc == pytest.approx(0.0, abs=1e-12)
        assert out.y_loc == pytest.approx(-1.0, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            psi = rng.uniform(-math.pi, math.pi)
            dx, dy = rng.uniform(-100, 100, 2)
            out = transform_to_local(EgoPose(0, 0, psi), dx, dy)
            assert math.hypot(out.x_loc, out.y_loc) == pytest.approx(
                math.hypot(dx, dy), abs=1e-9)

    def test_inverse_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            psi = rng.uniform(-math.pi, math.pi)
            dx, dy = rng.uniform(-100, 100, 2)
            loc = transform_to_local(EgoPose(0, 0, psi), dx, dy)
            back = transform_to_local(EgoPose(0, 0, -psi), loc.x_loc, loc.y_loc)
            assert back.x_loc == pytest.approx(dx, abs=1e-9)
            assert back.y_loc == pytest.approx(dy, abs=1e-9)

    def test_heading_normalized(self):
        assert EgoPose(0, 0, 3 * math.pi).psi == pytest.approx(math.pi)
        assert EgoPose(0, 0, -math.pi).psi == pytest.approx(math.pi)


class TestAssociate:
    GT = RelativePosition(11.0, 0.0)

    def test_nearest_within_gate(self):
        ests = [est_at(10, 0), est_at(20, 5)]
        assert associate(ests, self.GT, 3.0) is ests[0]

    def test_outside_gate_none(self):
        assert associate([est_at(16, 0)], self.GT, 3.0) is None

    def test_empty_none(self):
        assert associate([], self.GT, 3.0) is None

    def test_gate_validated(self):
        with pytest.raises(ValueError):
            associate([], self.GT, 0.0)


class TestOffsetStats:
    def test_constant_errors(self):
        pairs = [(est_at(11.0, 0.0), RelativePosition(10.0, 0.0))] * 3
        stats = offset_stats(pairs, "longitudinal", 3)
        assert stats.mean_offset == pytest.approx(1.0)
        assert stats.std == pytest.approx(0.0)

    def test_symmetric_errors(self):
        pairs = [(est_at(9.0, 0.0), RelativePosition(10.0, 0.0)),
                 (est_at(11.0, 0.0), RelativePosition(10.0, 0.0))]
        stats = offset_stats(pairs, "longitudinal", 2)
        assert stats.mean_offset == pytest.approx(0.0)
        assert stats.std == pytest.approx(1.0)

    def test_availability(self):
        pairs = [(est_at(10.0, 0.0), RelativePosition(10.0, 0.0))] * 5
        assert offset_stats(pairs, "lateral", 10).availability == 0.5

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            offset_stats([], "longitudinal", 10)

    def test_translation_consistency(self):
        rng = np.random.default_rng(11)
        gts = [RelativePosition(*rng.uniform(-20, 20, 2)) for _ in range(40)]
        ests = [est_at(gt.x_loc + rng.normal(), gt.y_loc + rng.normal())
                for gt in gts]
        base = offset_stats(list(zip(ests, gts)), "longitudinal", 40)
        c = 2.75
        shifted = [est_at(e.center_x + c, e.center_y) for e in ests]
        moved = offset_stats(list(zip(shifted, gts)), "longitudinal", 40)
        assert moved.mean_offset == pytest.approx(base.mean_offset + c, abs=1e-9)
        assert moved.std == pytest.approx(base.std, abs=1e-9)

    def test_matches_reference_on_random_series(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(1, 30)
            gts = [RelativePosition(*rng.uniform(-20, 20, 2)) for _ in range(n)]
            ests = [est_at(*rng.uniform(-20, 20, 2)) for _ in range(n)]
            pairs = list(zip(ests, gts))
            for axis, pick in (("longitudinal", lambda e, g: e.center_x - g.x_loc),
                               ("lateral", lambda e, g: e.center_y - g.y_loc)):
                stats = offset_stats(pairs, axis, n)
                ref_mean, ref_std = reference_mean_std(
                    [pick(e, g) for e, g in pairs])
                assert stats.mean_offset == pytest.approx(ref_mean, abs=1e-12)
                assert stats.std == pytest.approx(ref_std, abs=1e-12)


class TestDimensionStats:
    def test_constant_series(self):
        stats = dimension_stats([est_at(0, 1, 4.0, 2.0)] * 3)
        assert (stats.mean_length, stats.std_length) == (4.0, 0.0)
        assert (stats.mean_width, stats.std_width) == (2.0, 0.0)

    def test_two_lengths(self):
        stats = dimension_stats([est_at(0, 1, 3.0, 1.0), est_at(0, 1, 5.0, 1.0)])
        assert stats.mean_length == pytest.approx(4.0)
        assert stats.std_length == pytest.approx(1.0)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            dimension_stats([])

    def test_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(1, 40)
            ests = [est_at(0, 1, 2.0 + rng.uniform(0, 4), 0.5 + rng.uniform(0, 1))
                    for _ in range(n)]
            stats = dimension_stats(ests)
            ref_l = reference_mean_std([e.length for e in ests])
            ref_w = reference_mean_std([e.width for e in ests])
            assert stats.mean_length == pytest.approx(ref_l[0], abs=1e-12)
            assert stats.std_length == pytest.approx(ref_l[1], abs=1e-12)
            assert stats.mean_width == pytest.approx(ref_w[0], abs=1e-12)
            assert stats.std_width == pytest.approx(ref_w[1], abs=1e-12)


class TestCsvIo:
    def test_obstacles_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        rows = []
        for i in range(25):
            x, y = rng.uniform(-20, 20, 2)
            est = ObstacleEstimate(
                center_x=x, center_y=y,
                length=float(rng.uniform(2, 6)), width=float(rng.uniform(0.5, 2)),
                height=None if i % 3 == 0 else float(rng.uniform(1, 3)),
                confidence=float(rng.uniform(0, 1)), class_tag="unknown")
            rows.append((i, i / 20.0, est))
        path = tmp_path / "obstacles.csv"
        write_obstacles_csv(path, rows)
        back = read_obstacles_csv(path)
        assert len(back) == len(rows)
        for (fid, t, est), (fid2, t2, est2) in zip(rows, back):
            assert fid == fid2
            assert t2 == pytest.approx(t, abs=1e-6)
            for attr in ("center_x", "center_y", "length", "width",
                         "confidence", "range"):
                assert getattr(est2, attr) == pytest.approx(
                    getattr(est, attr), abs=1e-6)
            if est.height is None:
                assert est2.height is None
            else:
                assert est2.height == pytest.approx(est.height, abs=1e-6)

    def test_ground_truth_latlon_converted(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("t,lat,lon\n0.0,45.0,9.0\n1.0,45.001,9.0\n")
        t, x, y = read_ground_truth_csv(path)
        assert x[0] == 0.0 and y[0] == 0.0
        assert y[1] == pytest.approx(111.31949, abs=1e-4)

    def test_ground_truth_xy_passthrough(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("t,X,Y\n0.0,1.5,2.5\n")
        t, x, y = read_ground_truth_csv(path)
        assert (x[0], y[0]) == (1.5, 2.5)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("time,a,b\n0,1,2\n")
        with pytest.raises(SchemaError):
            read_ground_truth_csv(path)
        ego = tmp_path / "ego.csv"
        ego.write_text("t,X,Y\n0,1,2\n")
        with pytest.raises(SchemaError):
            read_ego_csv(ego)


class TestEvaluateDetections:
    @staticmethod
    def series(n=10):
        t = np.arange(n, dtype=float)
        return t, np.full(n, 0.0), np.full(n, 0.0), np.zeros(n)

    def test_identity_estimates(self):
        ego_t, ego_x, ego_y, ego_psi = self.series()
        gt_t = np.arange(10, dtype=float)
        gt_x = np.full(10, 10.0)
        gt_y = np.full(10, 2.0)
        rows = [(i, float(i), est_at(10.0, 2.0)) for i in range(10)]
        result = evaluate_detections(rows, gt_t, gt_x, gt_y,
                                     ego_t, ego_x, ego_y, ego_psi)
        assert result.longitudinal.mean_offset == pytest.approx(0.0, abs=1e-12)
        assert result.longitudinal.std == pytest.approx(0.0, abs=1e-12)
        assert result.lateral.mean_offset == pytest.approx(0.0, abs=1e-12)
        assert result.longitudinal.availability == 1.0

    def test_constant_longitudinal_bias(self):
        ego_t, ego_x, ego_y, ego_psi = self.series()
        gt_t = np.arange(10, dtype=float)
        rows = [(i, float(i), est_at(11.0, 0.0)) for i in range(10)]
        result = evaluate_detections(rows, gt_t, np.full(10, 10.0),
                                     np.zeros(10), ego_t, ego_x, ego_y, ego_psi)
        assert result.longitudinal.mean_offset == pytest.approx(1.0)
        assert result.longitudinal.std == pytest.approx(0.0, abs=1e-12)

    def test_half_frames_missing(self):
        ego_t, ego_x, ego_y, ego_psi = self.series()
        gt_t = np.arange(10, dtype=float)
        rows = [(i, float(i), est_at(10.0, 0.0)) for i in range(0, 10, 2)]
        rows.append((9, 9.0, est_at(10.0, 0.0)))
        result = evaluate_detections(rows, gt_t, np.full(10, 10.0),
                                     np.zeros(10), ego_t, ego_x, ego_y, ego_psi)
        assert result.longitudinal.availability == 0.6

    def test_explicit_total_frames(self):
        # 5 matched estimates over a declared 10-frame run -> 0.5
        ego_t, ego_x, ego_y, ego_psi = self.series()
        gt_t = np.arange(10, dtype=float)
        rows = [(i, float(i), est_at(10.0, 0.0)) for i in range(0, 10, 2)]
        result = evaluate_detections(rows, gt_t, np.full(10, 10.0),
                                     np.zeros(10), ego_t, ego_x, ego_y, ego_psi,
                                     total_frames=10)
        assert result.longitudinal.availability == 0.5

    def test_heading_rotation_applied(self):
        # ego faces +Y; target on the absolute +Y axis is dead ahead locally
        n = 5
        t = np.arange(n, dtype=float)
        rows = [(i, float(i), est_at(8.0, 0.0)) for i in range(n)]
        result = evaluate_detections(
            rows, t, np.zeros(n), np.full(n, 8.0),
            t, np.zeros(n), np.zeros(n), np.full(n, math.pi / 2))
        assert result.longitudinal.mean_offset == pytest.approx(0.0, abs=1e-9)

    def test_lever_arm_shifts_gt(self):
        ego_t, ego_x, ego_y, ego_psi = self.series(5)
        t = np.arange(5, dtype=float)
        rows = [(i, float(i), est_at(10.0, 0.0)) for i in range(5)]
        result = evaluate_detections(
            rows, t, np.full(5, 10.0), np.zeros(5),
            ego_t, ego_x, ego_y, ego_psi, lever_arm=(0.5, -0.25))
        assert result.longitudinal.mean_offset == pytest.approx(-0.5)
        assert result.lateral.mean_offset == pytest.approx(0.25)

    @pytest.mark.parametrize("short, cut, frame", [
        ("ground-truth", slice(None, 2), "frame 2 at t=0.1"),
        ("ego", slice(None, 2), "frame 2 at t=0.1"),
        ("ego", slice(1, None), "frame 0 at t=0.0"),
    ], ids=["truth-ends-early", "ego-ends-early", "ego-starts-late"])
    def test_frame_outside_a_series_is_schema_error(self, short, cut, frame):
        t = np.arange(4) / 20.0
        rows = [(i, float(ti), est_at(10.0, 0.0)) for i, ti in enumerate(t)]
        gt_t = t[cut] if short == "ground-truth" else t
        ego_t = t[cut] if short == "ego" else t
        with pytest.raises(SchemaError, match=f"{frame} lies outside the {short} series"):
            evaluate_detections(rows, gt_t, np.full(len(gt_t), 10.0), np.zeros(len(gt_t)),
                                ego_t, np.zeros(len(ego_t)), np.zeros(len(ego_t)),
                                np.zeros(len(ego_t)))

    def test_frame_with_two_timestamps_is_schema_error(self):
        ego_t, ego_x, ego_y, ego_psi = self.series(4)
        rows = [(0, 0.0, est_at(10.0, 0.0)), (1, 1.0, est_at(10.0, 0.0)),
                (1, 2.0, est_at(12.0, 0.0))]
        with pytest.raises(SchemaError, match="frame 1 has two timestamps, 1.0 and 2.0"):
            evaluate_detections(rows, ego_t, np.full(4, 10.0), np.zeros(4),
                                ego_t, ego_x, ego_y, ego_psi)

    def test_unmatched_frames_in_comparison(self):
        ego_t, ego_x, ego_y, ego_psi = self.series(4)
        t = np.arange(4, dtype=float)
        rows = [(0, 0.0, est_at(10.0, 0.0)), (1, 1.0, est_at(30.0, 0.0)),
                (2, 2.0, est_at(10.0, 0.0)), (3, 3.0, est_at(10.0, 0.0))]
        result = evaluate_detections(rows, t, np.full(4, 10.0), np.zeros(4),
                                     ego_t, ego_x, ego_y, ego_psi, gate=5.0)
        missing = [r for r in result.comparison_rows if r[3] is None]
        assert len(missing) == 1
        assert result.longitudinal.sample_count == 3
