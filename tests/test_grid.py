import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    array_to_cells,
    cells_to_array,
    fold_shifts,
    open_close_by_shifts,
    open_close_cells,
    threshold_for_range,
)
from lidargrid.bev import BevConfig
from lidargrid.grid import (
    CellHistogram,
    GridConfig,
    OccupancyGrid,
    ThresholdProfile,
    _threshold_map,
    binary_close,
    binary_dilate,
    binary_erode,
    binary_open,
    morph_open_close,
    occupancy_from_counts,
    project_to_grid,
)

CFG = GridConfig(cell_size=0.3, x_min=-15, x_max=15, y_min=-15, y_max=15,
                 z_min=-5.0, z_max=5.0)


def random_grid(rng, shape=(20, 20), p=0.4):
    return OccupancyGrid(cells=rng.random(shape) < p)


class TestProjectToGrid:
    def test_single_point_single_cell(self):
        hist = project_to_grid(np.array([[0.1, 0.1, 1.0, 0.0]]), CFG)
        assert hist.counts.sum() == 1
        assert hist.counts.max() == 1
        assert hist.dropped == 0

    def test_identical_points_stack(self):
        pts = np.tile([0.1, 0.1, 1.0, 0.0], (10, 1))
        hist = project_to_grid(pts, CFG)
        assert hist.counts.max() == 10
        assert (hist.counts > 0).sum() == 1

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        pts = np.zeros((1000, 4))
        pts[:, 0] = rng.uniform(-15, 14.999, 1000)
        pts[:, 1] = rng.uniform(-15, 14.999, 1000)
        pts[:, 2] = rng.uniform(-5, 5, 1000)
        hist = project_to_grid(pts, CFG)
        assert hist.counts.sum() == 1000
        assert hist.dropped == 0

    def test_out_of_extent_dropped_and_counted(self):
        pts = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [20.0, 0.0, 0.0, 0.0],   # x out
            [0.0, 0.0, 9.0, 0.0],    # z out
            [15.0, 0.0, 0.0, 0.0],   # x_max itself is excluded (half-open)
        ])
        hist = project_to_grid(pts, CFG)
        assert hist.counts.sum() == 1
        assert hist.dropped == 3

    def test_boundary_point_lands_in_one_cell(self):
        # x exactly on an interior cell edge goes to the upper cell
        hist = project_to_grid(np.array([[0.3, 0.0, 0.0, 0.0]]), CFG)
        ix = np.argwhere(hist.counts)[0]
        assert ix[0] == int((0.3 + 15) / 0.3)


class TestThresholdForRange:
    PROFILE = ThresholdProfile(breakpoints=((0.0, 5), (10.0, 3), (20.0, 2)),
                               noise_min_count=2)

    def test_mid_segment(self):
        assert threshold_for_range(12.0, self.PROFILE) == 3

    def test_range_zero(self):
        assert threshold_for_range(0.0, self.PROFILE) == 5

    def test_last_segment_extends(self):
        assert threshold_for_range(100.0, self.PROFILE) == 2

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(4)
        rs = np.sort(rng.uniform(0, 50, 100))
        thresholds = [threshold_for_range(r, self.PROFILE) for r in rs]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ThresholdProfile(breakpoints=((5.0, 3),))  # must start at 0
        with pytest.raises(ValueError):
            ThresholdProfile(breakpoints=((0.0, 2), (10.0, 5)))  # increasing
        with pytest.raises(ValueError):
            ThresholdProfile(breakpoints=((0.0, 0),))  # below 1


class TestOccupancyFromCounts:
    def test_count_above_threshold_occupied(self):
        cfg = GridConfig(cell_size=1.0, x_min=0, x_max=3, y_min=0, y_max=1,
                         z_min=0, z_max=1)
        counts = np.array([[5], [2], [0]])
        hist = CellHistogram(counts=counts, config=cfg)
        profile = ThresholdProfile(breakpoints=((0.0, 3),), noise_min_count=2)
        occ = occupancy_from_counts(hist, profile)
        assert occ.cells[0, 0]
        assert not occ.cells[1, 0]  # 2 < max(3, 2)
        assert not occ.cells[2, 0]

    def test_all_zero_histogram_all_free(self):
        hist = project_to_grid(np.zeros((0, 4)), CFG)
        occ = occupancy_from_counts(hist, self_profile())
        assert not occ.cells.any()

    def test_noise_floor_applies(self):
        cfg = GridConfig(cell_size=1.0, x_min=0, x_max=1, y_min=0, y_max=1,
                         z_min=0, z_max=1)
        hist = CellHistogram(counts=np.array([[2]]), config=cfg)
        profile = ThresholdProfile(breakpoints=((0.0, 1),), noise_min_count=3)
        assert not occupancy_from_counts(hist, profile).cells[0, 0]

    def test_monotone_in_counts(self):
        rng = np.random.default_rng(8)
        profile = self_profile()
        counts = rng.integers(0, 8, size=(CFG.nx, CFG.ny))
        base = occupancy_from_counts(CellHistogram(counts=counts, config=CFG), profile)
        bumped = counts.copy()
        i, j = rng.integers(0, CFG.nx), rng.integers(0, CFG.ny)
        bumped[i, j] += 3
        after = occupancy_from_counts(CellHistogram(counts=bumped, config=CFG), profile)
        assert (base.cells <= after.cells).all()


class TestThresholdMap:
    GRIDS = (CFG, GridConfig(cell_size=1.0, x_min=-12, x_max=30, y_min=-25, y_max=7),
             GridConfig(cell_size=2.5, x_min=0, x_max=5, y_min=0, y_max=2.5))
    PROFILES = (ThresholdProfile(),
                ThresholdProfile(breakpoints=((0.0, 9), (4.0, 4), (12.5, 1)),
                                 noise_min_count=3),
                ThresholdProfile(breakpoints=((0.0, 1),), noise_min_count=0))

    @pytest.mark.parametrize("cfg", GRIDS)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_cached_map_matches_per_cell_formula(self, cfg, profile):
        ref = np.array([[max(threshold_for_range(r, profile), profile.noise_min_count)
                         for r in row] for row in cfg.cell_ranges()])
        for _ in range(2):  # the miss and the hit
            thr = _threshold_map(cfg, profile)
            np.testing.assert_array_equal(thr, ref)
            assert not thr.flags.writeable
        counts = np.random.default_rng(3).integers(0, 8, size=ref.shape)
        occ = occupancy_from_counts(CellHistogram(counts=counts, config=cfg), profile)
        np.testing.assert_array_equal(occ.cells, counts >= ref)

    def test_profiles_do_not_share_an_entry(self):
        a, b = self.PROFILES[0], self.PROFILES[1]
        assert _threshold_map(CFG, a) is _threshold_map(CFG, ThresholdProfile())
        assert _threshold_map(CFG, a) is not _threshold_map(CFG, b)
        assert not np.array_equal(_threshold_map(CFG, a), _threshold_map(CFG, b))
        with pytest.raises(ValueError):
            _threshold_map(CFG, a)[0, 0] = 0


def self_profile():
    return ThresholdProfile(breakpoints=((0.0, 5), (10.0, 3), (20.0, 2)),
                            noise_min_count=2)


class TestMorphology:
    def test_isolated_cell_removed(self):
        cells = np.zeros((9, 9), dtype=bool)
        cells[4, 4] = True
        out = morph_open_close(OccupancyGrid(cells=cells), 1)
        assert not out.cells.any()

    def test_five_block_with_hole_matches_oracle(self):
        # at radius 1 every interior cell of a 5x5 block touches a center
        # hole, so opening erases the block; the oracle fixes the expectation
        cells = np.zeros((9, 9), dtype=bool)
        cells[2:7, 2:7] = True
        cells[4, 4] = False
        out = morph_open_close(OccupancyGrid(cells=cells), 1)
        closed = open_close_cells(array_to_cells(cells), 1)
        np.testing.assert_array_equal(out.cells, cells_to_array(closed, (9, 9)))

    def test_interior_hole_filled(self):
        # a 7x7 block survives opening and the closing fills its hole exactly
        cells = np.zeros((11, 11), dtype=bool)
        cells[2:9, 2:9] = True
        solid = cells.copy()
        cells[5, 5] = False
        out = morph_open_close(OccupancyGrid(cells=cells), 1)
        closed = open_close_cells(array_to_cells(cells), 1)
        np.testing.assert_array_equal(out.cells, cells_to_array(closed, (11, 11)))
        np.testing.assert_array_equal(out.cells, solid)
        assert out.cells[5, 5]  # the hole is gone

    def test_all_free_stays_free(self):
        out = morph_open_close(OccupancyGrid(cells=np.zeros((5, 5), dtype=bool)), 1)
        assert not out.cells.any()

    def test_matches_set_oracle_on_random_grids(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            grid = random_grid(rng, shape=(15, 15), p=0.5)
            closed_ref = open_close_cells(array_to_cells(grid.cells), 1)
            out = morph_open_close(grid, 1)
            np.testing.assert_array_equal(out.cells,
                                          cells_to_array(closed_ref, (15, 15)))

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 7), (3, 3)])
    def test_kernel_wider_than_grid_matches_oracle(self, shape):
        rng = np.random.default_rng(16)
        for radius in (1, 2, 3):
            cells = rng.random(shape) < 0.6
            out = morph_open_close(OccupancyGrid(cells=cells), radius)
            closed = open_close_cells(array_to_cells(cells), radius)
            np.testing.assert_array_equal(out.cells, cells_to_array(closed, shape))

    def test_open_anti_extensive_close_extensive(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            grid = random_grid(rng)
            opened = binary_open(grid, 1)
            closed = binary_close(grid, 1)
            assert (opened.cells <= grid.cells).all()
            assert (grid.cells <= closed.cells).all()

    def test_idempotence(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            grid = random_grid(rng)
            opened = binary_open(grid, 1)
            closed = binary_close(grid, 1)
            np.testing.assert_array_equal(binary_open(opened, 1).cells, opened.cells)
            np.testing.assert_array_equal(binary_close(closed, 1).cells, closed.cells)

    def test_kernel_radius_validated(self):
        with pytest.raises(ValueError):
            binary_open(OccupancyGrid(cells=np.ones((3, 3), dtype=bool)), 0)


class TestSeparableMorphology:
    """The row-then-column passes equal the fold of every shift, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(cells=arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20))),
           radius=st.integers(1, 4))
    # radius at or past a side: erosion empties the grid, dilation fills it
    @example(cells=np.ones((1, 1), dtype=bool), radius=1)
    @example(cells=np.ones((1, 7), dtype=bool), radius=4)
    @example(cells=np.ones((7, 1), dtype=bool), radius=3)
    @example(cells=np.eye(4, dtype=bool), radius=4)
    @example(cells=np.ones((2, 3), dtype=bool), radius=2)
    def test_equals_shift_fold(self, cells, radius):
        grid = OccupancyGrid(cells=cells)
        for op, combine in ((binary_erode, np.logical_and), (binary_dilate, np.logical_or)):
            out = op(grid, radius).cells
            assert out.dtype == bool
            np.testing.assert_array_equal(out, fold_shifts(cells, radius, combine))
        np.testing.assert_array_equal(morph_open_close(grid, radius).cells,
                                      open_close_by_shifts(cells, radius))

    def test_input_not_modified(self):
        cells = np.random.default_rng(3).random((9, 9)) < 0.5
        grid = OccupancyGrid(cells=cells.copy())
        binary_erode(grid, 2)
        binary_dilate(grid, 2)
        np.testing.assert_array_equal(grid.cells, cells)


class TestGridConfig:
    def test_cell_counts_ceil(self):
        cfg = GridConfig(cell_size=0.3, x_min=0, x_max=1.0, y_min=0, y_max=0.9,
                         z_min=0, z_max=1)
        assert cfg.nx == 4  # ceil(1.0 / 0.3)
        assert cfg.ny == 3

    def test_invalid_extent_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(cell_size=0.3, x_min=1, x_max=0, y_min=0, y_max=1,
                       z_min=0, z_max=1)
        with pytest.raises(ValueError):
            GridConfig(cell_size=0.0)

    def test_cell_count_capped(self):
        # checked at construction; no lattice is allocated
        assert GridConfig(cell_size=1.0, x_min=0, x_max=8192, y_min=0, y_max=4096).nx == 8192
        for y_max in (4096.5, 1e308):
            with pytest.raises(ValueError, match="more than 33554432 cells"):
                GridConfig(cell_size=1.0, x_min=0, x_max=8192, y_min=0, y_max=y_max)
        with pytest.raises(ValueError, match="more than 33554432 cells"):
            GridConfig(cell_size=1e-320)
        assert BevConfig(image_size=5792).cell_size > 0.0
        with pytest.raises(ValueError, match="more than 33554432 cells"):
            BevConfig(image_size=5793)

    def test_cell_ranges_are_center_distances(self):
        cfg = GridConfig(cell_size=1.0, x_min=0, x_max=2, y_min=0, y_max=2,
                         z_min=0, z_max=1)
        ranges = cfg.cell_ranges()
        assert ranges[0, 0] == pytest.approx(np.hypot(0.5, 0.5))
        assert ranges[1, 1] == pytest.approx(np.hypot(1.5, 1.5))
