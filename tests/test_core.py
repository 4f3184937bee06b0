import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidargrid.core import (
    EmptyFrame,
    ObstacleEstimate,
    PointCloudFrame,
    as_point_array,
    check_real,
    check_whole,
    validate_frame,
)


def make_frame(rows, **kwargs):
    return PointCloudFrame(points=np.array(rows, dtype=float), **kwargs)


class TestValidateFrame:
    def test_all_finite_points_kept(self):
        frame = make_frame([[1, 2, 3, 0.5], [4, 5, 6, 0.1], [7, 8, 9, 0.9]])
        out = validate_frame(frame)
        assert len(out) == 3
        assert out.dropped_points == 0
        np.testing.assert_array_equal(out.points, frame.points)

    def test_nan_point_dropped(self):
        rows = [[float(i), 0.0, 0.0, 0.2] for i in range(10)]
        rows[4][2] = float("nan")
        out = validate_frame(make_frame(rows))
        assert len(out) == 9
        assert out.dropped_points == 1

    def test_all_non_finite_raises(self):
        frame = make_frame([[np.nan, 0, 0, 0], [np.inf, 1, 1, 0]])
        with pytest.raises(EmptyFrame):
            validate_frame(frame)

    def test_frame_without_points_says_so(self):
        frame = PointCloudFrame(points=np.empty((0, 4)), frame_id=7)
        with pytest.raises(EmptyFrame, match=r"^frame 7: no points$"):
            validate_frame(frame)

    def test_frame_of_non_finite_points_gives_the_count(self):
        frame = make_frame([[np.nan, 0, 0, 0], [np.inf, 1, 1, 0]], frame_id=3)
        with pytest.raises(EmptyFrame, match=r"^frame 3: no finite points \(2 dropped\)$"):
            validate_frame(frame)

    @pytest.mark.parametrize("col", range(4))
    def test_non_finite_in_every_row_raises(self, col):
        rows = np.ones((3, 4))
        rows[:, col] = [np.nan, np.inf, -np.inf]
        with pytest.raises(EmptyFrame):
            validate_frame(make_frame(rows))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           bad=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3),
                                  st.sampled_from([np.nan, np.inf, -np.inf])),
                        max_size=60))
    def test_matches_row_wise_oracle(self, n, seed, bad):
        rows = np.random.default_rng(seed).normal(size=(n, 4))
        for i, col, value in bad:
            rows[i % n, col] = value
        keep = np.isfinite(rows).all(axis=1)
        if not keep.any():
            with pytest.raises(EmptyFrame):
                validate_frame(make_frame(rows))
            return
        out = validate_frame(make_frame(rows))
        expected = rows[keep]
        if expected[:, 3].max() > 1.0:
            expected[:, 3] /= 255.0
        expected[:, 3] = np.clip(expected[:, 3], 0.0, 1.0)
        np.testing.assert_array_equal(out.points, expected)
        assert out.dropped_points == n - keep.sum()

    def test_eight_bit_intensity_normalized(self):
        out = validate_frame(make_frame([[1, 1, 1, 255.0], [2, 2, 2, 51.0]]))
        np.testing.assert_allclose(out.intensity, [1.0, 0.2])

    def test_eight_bit_judged_on_kept_points(self):
        # the dropped row's 200 does not make the kept 0.5 and 0.8 8-bit
        rows = [[1, 1, 1, 0.5], [np.nan, 0, 0, 200.0], [2, 2, 2, 0.8]]
        out = validate_frame(make_frame(rows))
        np.testing.assert_array_equal(out.intensity, [0.5, 0.8])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(50, 4))
        rows[:, 3] = rng.uniform(0, 1, 50)
        rows[7, 0] = np.inf
        once = validate_frame(make_frame(rows, timestamp=1.5, frame_id=2))
        twice = validate_frame(once)
        assert twice.dropped_points == 0
        assert twice.timestamp == once.timestamp
        assert twice.frame_id == once.frame_id
        np.testing.assert_array_equal(twice.points, once.points)

    @pytest.mark.parametrize("eight_bit", [False, True])
    @pytest.mark.parametrize("bad_row", [None, 1])
    def test_input_not_mutated(self, eight_bit, bad_row):
        # eight_bit picks the input's intensity scale, so both the divide
        # and the clip-only paths run on the copy and never on the input
        top = 255.0 if eight_bit else 1.0
        rows = np.array([[1, 2, 3, top], [4, 5, 6, -0.5], [7, 8, 9, 0.5]])
        if bad_row is not None:
            rows[bad_row, 0] = np.nan
        before = rows.copy()
        out = validate_frame(make_frame(rows))
        np.testing.assert_array_equal(rows, before)
        assert not np.shares_memory(out.points, rows)

    @pytest.mark.parametrize("bad_row", [None, 1])
    def test_in_place_takes_over_a_finite_frame_only(self, bad_row):
        rows = np.array([[1, 2, 3, 255.0], [4, 5, 6, 51.0], [7, 8, 9, 0.0]])
        if bad_row is not None:
            rows[bad_row, 0] = np.nan
        frame = make_frame(rows)
        want = validate_frame(frame)
        out = validate_frame(frame, in_place=True)
        np.testing.assert_array_equal(out.points, want.points)
        assert out.dropped_points == want.dropped_points
        # a dropped row needs a fresh array; without one the frame's array is the result
        assert (out.points is frame.points) == (bad_row is None)

    def test_metadata_preserved(self):
        out = validate_frame(make_frame([[1, 2, 3, 0]], timestamp=4.2, frame_id=9))
        assert out.timestamp == 4.2
        assert out.frame_id == 9


class TestObstacleEstimate:
    def test_range_derived_from_center(self):
        est = ObstacleEstimate(center_x=3.0, center_y=4.0, length=2.0, width=1.0)
        assert est.range == pytest.approx(5.0, abs=1e-12)

    def test_inconsistent_range_rejected(self):
        with pytest.raises(ValueError):
            ObstacleEstimate(center_x=3.0, center_y=4.0, length=2.0, width=1.0,
                             range=6.0)

    def test_nan_range_rejected(self):
        # abs(nan - r) > 1e-9 is False, so a NaN range once passed the check
        with pytest.raises(ValueError, match="range nan inconsistent"):
            ObstacleEstimate(center_x=3.0, center_y=4.0, length=2.0, width=1.0,
                             range=float("nan"))

    def test_width_over_length_rejected(self):
        with pytest.raises(ValueError):
            ObstacleEstimate(center_x=0.0, center_y=1.0, length=1.0, width=2.0)

    @pytest.mark.parametrize("length, width", [
        (float("inf"), 1.0), (float("inf"), float("inf")),
    ])
    def test_non_finite_footprint_rejected(self, length, width):
        with pytest.raises(ValueError, match="finite length >= width > 0"):
            ObstacleEstimate(center_x=1.0, center_y=2.0, length=length, width=width)

    @pytest.mark.parametrize("center_x, center_y, height", [
        (float("nan"), 0.0, None), (0.0, float("inf"), None), (1.0, 2.0, float("nan")),
        (1.0, 2.0, -float("inf")),
    ])
    def test_non_finite_center_or_height_rejected(self, center_x, center_y, height):
        with pytest.raises(ValueError, match="finite center and height"):
            ObstacleEstimate(center_x=center_x, center_y=center_y, length=2.0, width=1.0,
                             height=height)

    @pytest.mark.parametrize("confidence", [1.5, -0.1, math.nan])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            ObstacleEstimate(center_x=1.0, center_y=2.0, length=2.0, width=1.0,
                             confidence=confidence)


class TestFrameContainer:
    def test_xyz_intensity_views(self):
        frame = make_frame([[1, 2, 3, 0.5]])
        np.testing.assert_array_equal(frame.xyz, [[1, 2, 3]])
        np.testing.assert_array_equal(frame.intensity, [0.5])

    def test_tuple_sequence_accepted(self):
        frame = PointCloudFrame(points=[(1, 2, 3, 0.4), (4, 5, 6)])
        assert len(frame) == 2
        np.testing.assert_array_equal(frame.points, [[1, 2, 3, 0.4], [4, 5, 6, 0.0]])

    def test_array_of_other_width_rejected(self):
        with pytest.raises(ValueError, match=r"got shape \(2, 5\)"):
            as_point_array(np.zeros((2, 5)))

    @pytest.mark.parametrize("rows", [[(1, 2, 3, 4, 5)], [(1, 2)], [(1, 2, 3), (1, 2, 3, 4, 5)]])
    def test_row_of_other_width_rejected(self, rows):
        # as an (N, 5) array is: no value is dropped
        with pytest.raises(ValueError, match=r"expected \(N, 3\) or \(N, 4\) points"):
            PointCloudFrame(points=rows)


class TestNumberChecks:
    @pytest.mark.parametrize("value", [0.5, 1, 0.0, np.float64(0.25)])
    def test_real_in_interval_passes(self, value):
        check_real("x", value, 0.0, 1.0)

    @pytest.mark.parametrize("value", [None, "0.5", [0.5], math.nan, math.inf, -math.inf,
                                       10 ** 400, -0.1, 1.5])
    def test_real_refuses_all_but_a_finite_number_in_range(self, value):
        with pytest.raises(ValueError, match=r"^x must be a finite number in \[0.0, 1.0\]"):
            check_real("x", value, 0.0, 1.0)

    def test_real_open_low_end_refuses_the_bound(self):
        check_real("x", 1e-300, 0.0, open_low=True)
        with pytest.raises(ValueError, match=r"^x must be a finite number in \(0.0, inf\]"):
            check_real("x", 0.0, 0.0, open_low=True)

    @pytest.mark.parametrize("check", [check_real, check_whole])
    @pytest.mark.parametrize("value", [True, False])
    def test_both_checks_word_a_boolean_alike(self, check, value):
        # True would otherwise pass as 1 and False as 0
        with pytest.raises(ValueError, match=f"^x cannot be a boolean, got {value}$"):
            check("x", value)
