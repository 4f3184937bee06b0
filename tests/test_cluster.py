import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (component_ids_by_bfs, extract_obstacles_by_rescan, flood_fill_labels,
                     same_partition)
from lidargrid.bev import (
    BevConfig,
    OutputAttributeGrid,
    cluster_output_grid,
    postprocess_clusters,
)
from lidargrid.cluster import (
    LabelGrid,
    component_ids,
    extract_obstacles,
    footprints,
    label_components,
    label_flat,
)
from lidargrid.core import GeometryMismatch
from lidargrid.grid import CellHistogram, GridConfig, OccupancyGrid


def grid_of(cells):
    return OccupancyGrid(cells=np.array(cells, dtype=bool))


def label_grid(labels):
    """The LabelGrid listing the cells of a hand-made dense label array (0 = free)."""
    labels = np.asarray(labels)
    flat = np.flatnonzero(labels)
    return LabelGrid(flat, labels.ravel()[flat] - 1, labels.shape)


@st.composite
def graphs(draw):
    """A node count (0 included) and intp edge arrays with isolated nodes,
    self-loops and duplicate and reversed edges."""
    n = draw(st.integers(0, 40))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if edges:
        again = draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()), max_size=n))
        edges += [e[::-1] if flip else e for e, flip in again]
    edges += [(a, a) for a in draw(st.lists(node, max_size=5 if n else 0))]
    edges = draw(st.permutations(edges))
    u = np.array([a for a, _ in edges], dtype=np.intp)
    v = np.array([b for _, b in edges], dtype=np.intp)
    return n, u, v


EMPTY = np.zeros(0, dtype=np.intp)


class TestComponentIds:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    @example((0, EMPTY, EMPTY))
    # components {0, 4}, {1}, {2, 3, 5}, edges listed from the largest node down
    @example((6, np.array([5, 4, 3, 2], dtype=np.intp), np.array([3, 0, 5, 3], dtype=np.intp)))
    def test_ids_equal_bfs_by_smallest_node(self, graph):
        n, u, v = graph
        ids = component_ids(n, u, v)
        assert ids.dtype == np.intp
        assert ids.shape == (n,)
        assert ids.tolist() == component_ids_by_bfs(n, u.tolist(), v.tolist())


class TestLabelComponents:
    def test_two_disjoint_blocks(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[0:2, 0:2] = True
        cells[5:7, 5:7] = True
        out = label_components(grid_of(cells))
        assert out.num_components == 2

    def test_empty_grid(self):
        out = label_components(grid_of(np.zeros((5, 5))))
        assert out.num_components == 0
        assert not out.labels.any()

    def test_flat_labeler_refuses_other_connectivity(self):
        with pytest.raises(ValueError, match="connectivity must be 4 or 8"):
            label_flat(np.array([0, 3]), (2, 2), connectivity=6)

    def test_diagonal_connectivity_difference(self):
        cells = np.array([[1, 0], [0, 1]], dtype=bool)
        assert label_components(cells, connectivity=8).num_components == 1
        assert label_components(cells, connectivity=4).num_components == 2

    def test_labels_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cells = rng.random((20, 20)) < 0.4
            out = label_components(cells, 8)
            labs = np.unique(out.labels)
            labs = labs[labs > 0]
            assert out.num_components == len(labs)
            if len(labs):
                assert labs.max() == out.num_components

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_on_random_grids(self, connectivity):
        rng = np.random.default_rng(7)
        thin = [(0, 5), (5, 0), (1, 1), (1, 9), (9, 1)]
        for shape in [(20, 20)] * 100 + thin * 10:
            cells = rng.random(shape) < 0.4
            mine = label_components(cells, connectivity)
            ref = flood_fill_labels(cells, connectivity)
            assert same_partition(mine.labels, ref)
            assert np.array_equal(mine.labels, ref)
            assert mine.num_components == ref.max(initial=0)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_serpentine_chain_is_one_component(self, connectivity):
        # rows joined alternately at the right and left ends: one long path
        cells = np.zeros((41, 41), dtype=bool)
        cells[::2] = True
        for r in range(1, 41, 2):
            cells[r, -1 if r % 4 == 1 else 0] = True
        out = label_components(cells, connectivity)
        assert out.num_components == 1
        assert np.array_equal(out.labels, cells.astype(np.int64))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_row_wrap_is_not_adjacency(self, connectivity):
        # (r, w-1) and (r+1, 0) follow each other in flat order; so do the
        # runs (2, 3..4) and (3, 0..1), whose nearest cells are two columns apart
        cells = np.zeros((5, 5), dtype=bool)
        cells[0, 4] = cells[1, 0] = True
        cells[2, 3:] = cells[3, :2] = True
        out = label_components(cells, connectivity)
        assert out.num_components == 4
        assert np.array_equal(out.labels, flood_fill_labels(cells, connectivity))

    @pytest.mark.parametrize("connectivity, components", [(4, 3), (8, 1)])
    def test_long_run_fans_out(self, connectivity, components):
        # one run over columns 1..10 has five runs above it and five below;
        # (0, 0) and (2, 0) touch it only diagonally, the run at (0, 10..11)
        # starts straight above its last cell
        cells = np.zeros((3, 12), dtype=bool)
        for j in (0, 2, 3, 5, 7, 8, 10, 11):
            cells[0, j] = True
        cells[1, 1:11] = True
        for j in (0, 2, 4, 5, 8, 10, 11):
            cells[2, j] = True
        out = label_components(cells, connectivity)
        assert out.num_components == components
        assert np.array_equal(out.labels, flood_fill_labels(cells, connectivity))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_across_densities(self, connectivity):
        rng = np.random.default_rng(19)
        shapes = [(1, 40), (40, 1), (3, 300), (9, 17), (25, 25)]
        for density in np.linspace(0.05, 0.95, 19):
            for shape in shapes * 2:
                cells = rng.random(shape) < density
                ref = flood_fill_labels(cells, connectivity)
                assert np.array_equal(label_components(cells, connectivity).labels, ref)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_fully_occupied_grid(self, connectivity):
        out = label_components(np.ones((13, 7), dtype=bool), connectivity)
        assert out.num_components == 1
        assert (out.labels == 1).all()


def make_hist(counts, cfg):
    return CellHistogram(counts=np.asarray(counts), config=cfg)


CFG = GridConfig(cell_size=0.3, x_min=0.0, x_max=6.0, y_min=0.0, y_max=6.0,
                 z_min=0.0, z_max=3.0)


class TestExtractObstacles:
    def test_single_cell_component(self):
        counts = np.zeros((CFG.nx, CFG.ny), dtype=int)
        ix = int(3.15 / 0.3)
        iy = int(0.15 / 0.3)
        counts[ix, iy] = 4
        labels = np.zeros_like(counts)
        labels[ix, iy] = 1
        out = extract_obstacles(label_grid(labels), make_hist(counts, CFG), min_cells=1)
        assert len(out) == 1
        est = out[0]
        assert est.center_x == pytest.approx(3.15)
        assert est.center_y == pytest.approx(0.15)
        assert est.length == pytest.approx(0.3)
        assert est.width == pytest.approx(0.3)

    def test_van_footprint_dimensions(self):
        cfg = GridConfig(cell_size=0.3, x_min=0, x_max=9, y_min=0, y_max=9,
                         z_min=0, z_max=3)
        counts = np.zeros((cfg.nx, cfg.ny), dtype=int)
        counts[5:22, 10:17] = 3  # 17 x 7 cells
        labels = (counts > 0).astype(np.int64)
        out = extract_obstacles(label_grid(labels), make_hist(counts, cfg))
        assert len(out) == 1
        assert out[0].length == pytest.approx(5.1)
        assert out[0].width == pytest.approx(2.1)

    def test_min_cells_filter(self):
        counts = np.zeros((CFG.nx, CFG.ny), dtype=int)
        counts[0, 0] = 5
        counts[5, 5] = 5
        counts[5, 6] = 5
        labels = np.zeros_like(counts)
        labels[0, 0] = 1
        labels[5, 5] = labels[5, 6] = 2
        out = extract_obstacles(label_grid(labels), make_hist(counts, CFG), min_cells=2)
        assert len(out) == 1
        assert out[0].length == pytest.approx(0.6)

    def test_dimension_mismatch(self):
        labels = label_grid(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(GeometryMismatch):
            extract_obstacles(labels, make_hist(np.zeros((5, 5), dtype=int), CFG))
        # counts that agree with the labels but not with the histogram's grid
        with pytest.raises(GeometryMismatch, match="grid 20 x 20"):
            extract_obstacles(labels, make_hist(np.zeros((4, 4), dtype=int), CFG))

    def test_centroid_inside_bbox_and_extent_multiples(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = (rng.random((CFG.nx, CFG.ny)) < 0.3) * rng.integers(
                1, 9, (CFG.nx, CFG.ny))
            occ = grid_of(counts > 0)
            labels = label_components(occ, 8)
            out = extract_obstacles(labels, make_hist(counts, CFG), min_cells=1)
            assert len(out) == labels.num_components
            for est in out:
                for ext in (est.length, est.width):
                    ratio = ext / CFG.cell_size
                    assert abs(ratio - round(ratio)) <= 1e-9
            # component-wise: centroid within the component bbox
            for comp_id, est in enumerate(out, start=1):
                ii, jj = np.nonzero(labels.labels == comp_id)
                x_lo = CFG.x_min + ii.min() * CFG.cell_size
                x_hi = CFG.x_min + (ii.max() + 1) * CFG.cell_size
                y_lo = CFG.y_min + jj.min() * CFG.cell_size
                y_hi = CFG.y_min + (jj.max() + 1) * CFG.cell_size
                assert x_lo <= est.center_x <= x_hi
                assert y_lo <= est.center_y <= y_hi

    def test_rotation_equivariance(self):
        # 180-degree content rotation mirrors centroids about the grid center
        cfg = GridConfig(cell_size=0.5, x_min=-5, x_max=5, y_min=-5, y_max=5,
                         z_min=0, z_max=1)
        rng = np.random.default_rng(13)
        counts = (rng.random((cfg.nx, cfg.ny)) < 0.25) * rng.integers(
            1, 6, (cfg.nx, cfg.ny))
        out_fwd = extract_obstacles(
            label_components(grid_of(counts > 0), 8),
            make_hist(counts, cfg), min_cells=1)
        rot = counts[::-1, ::-1].copy()
        out_rot = extract_obstacles(
            label_components(grid_of(rot > 0), 8),
            make_hist(rot, cfg), min_cells=1)
        cx0 = cfg.x_min + cfg.x_max
        cy0 = cfg.y_min + cfg.y_max
        fwd = sorted((round(cx0 - e.center_x, 9), round(cy0 - e.center_y, 9),
                      round(e.length, 9), round(e.width, 9)) for e in out_fwd)
        rot_set = sorted((round(e.center_x, 9), round(e.center_y, 9),
                          round(e.length, 9), round(e.width, 9)) for e in out_rot)
        assert fwd == rot_set

    def test_lattice_comes_from_the_histogram(self):
        rng = np.random.default_rng(17)
        counts = (rng.random((CFG.nx, CFG.ny)) < 0.3) * rng.integers(1, 9, (CFG.nx, CFG.ny))
        labels = label_components(grid_of(counts > 0), 8)
        dx, dy = 12.7, -4.1
        shifted = GridConfig(cell_size=CFG.cell_size, x_min=CFG.x_min + dx, x_max=CFG.x_max + dx,
                             y_min=CFG.y_min + dy, y_max=CFG.y_max + dy)
        assert (shifted.nx, shifted.ny) == (CFG.nx, CFG.ny)
        base = extract_obstacles(labels, make_hist(counts, CFG), min_cells=1)
        moved = extract_obstacles(labels, make_hist(counts, shifted), min_cells=1)
        assert len(base) == len(moved) > 1
        for a, b in zip(base, moved):
            assert abs(b.center_x - a.center_x - dx) <= 1e-9
            assert abs(b.center_y - a.center_y - dy) <= 1e-9
            assert (b.length, b.width) == (a.length, a.width)


def obstacle_fields(obstacles):
    return [vars(o) for o in obstacles]


class TestLabelGridCells:
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_labeler_cells_equal_the_grid_scan(self, connectivity):
        # the dense ``labels`` view, scanned back, lists the labeler's cells
        rng = np.random.default_rng(31)
        for p in (0.0, 0.1, 0.5, 1.0):
            labels = label_components(grid_of(rng.random((13, 17)) < p), connectivity)
            dense = labels.labels
            assert dense.shape == (13, 17) and dense.dtype == np.int64
            flat = np.flatnonzero(dense)
            np.testing.assert_array_equal(labels.flat, flat)
            np.testing.assert_array_equal(labels.ids, dense.ravel()[flat] - 1)


class TestExtractMatchesRescan:
    """Extraction from the labeler's cells equals the dense-grid scan."""

    @pytest.mark.parametrize("min_cells", [1, 2, 5])
    def test_hand_built_grids(self, min_cells):
        # arbitrary ids, not necessarily connected, on random shapes; one
        # component in three has only count-zero cells
        rng = np.random.default_rng(min_cells)
        for _ in range(40):
            shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            cfg = GridConfig(cell_size=0.5, x_min=-1.0, x_max=-1.0 + 0.5 * shape[0],
                             y_min=2.0, y_max=2.0 + 0.5 * shape[1])
            assert (cfg.nx, cfg.ny) == shape
            k = int(rng.integers(1, 6))
            labels = np.where(rng.random(shape) < 0.5, rng.integers(1, k + 1, shape), 0)
            k = int(labels.max())
            counts = rng.integers(0, 6, shape) * (labels > 0)
            counts[labels % 3 == 0] = 0
            grid = label_grid(labels)
            hist = make_hist(counts, cfg)
            assert obstacle_fields(extract_obstacles(grid, hist, min_cells)) == \
                obstacle_fields(extract_obstacles_by_rescan(grid, hist, cfg, min_cells))

    def test_labeled_grids(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            counts = (rng.random((CFG.nx, CFG.ny)) < 0.4) * rng.integers(0, 9, (CFG.nx, CFG.ny))
            labels = label_components(grid_of(counts > 0), 8)
            hist = make_hist(counts, CFG)
            assert obstacle_fields(extract_obstacles(labels, hist)) == \
                obstacle_fields(extract_obstacles_by_rescan(labels, hist, CFG))

    def test_ids_declared_past_the_last_cell(self):
        labels = np.zeros((CFG.nx, CFG.ny), dtype=np.int64)
        labels[2:4, 3] = 1
        labels[7, 5:9] = 3
        grid = label_grid(labels)
        hist = make_hist(np.ones((CFG.nx, CFG.ny), dtype=int), CFG)
        got = obstacle_fields(extract_obstacles(grid, hist))
        assert len(got) == 2
        assert got == obstacle_fields(extract_obstacles_by_rescan(grid, hist, CFG))

    def test_no_components(self):
        grid = label_grid(np.zeros((CFG.nx, CFG.ny), dtype=np.int64))
        hist = make_hist(np.ones((CFG.nx, CFG.ny), dtype=int), CFG)
        assert extract_obstacles(grid, hist) == []
        assert extract_obstacles_by_rescan(grid, hist, CFG) == []


class TestFootprints:
    """One footprint rule serves both routes."""

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                                  min_size=1, max_size=12), min_size=1, max_size=8),
           cell_size=st.sampled_from([0.1, 0.3, 0.5, 60.0 / 672]))
    def test_matches_brute_force_box(self, runs, cell_size):
        cells = np.array([cell for run in runs for cell in run])
        bounds = np.cumsum([0] + [len(run) for run in runs])
        length, width = footprints(cells, bounds, cell_size)
        assert len(length) == len(width) == len(runs)
        for r, run in enumerate(runs):
            # the box of whole cells around the run, along i and along j
            ext = [(max(axis) - min(axis) + 1) * cell_size for axis in zip(*run)]
            assert (length[r], width[r]) == (max(ext), min(ext))

    @pytest.mark.parametrize("seed", range(5))
    def test_both_routes_measure_the_same_cells_alike(self, seed):
        n = 30
        cells = np.random.default_rng(seed).random((n, n)) < 0.3
        grid_cfg = GridConfig(cell_size=0.5, x_min=-7.5, x_max=7.5, y_min=-7.5, y_max=7.5)
        bev_cfg = BevConfig(image_size=n, range=7.5)
        assert (grid_cfg.nx, grid_cfg.ny) == (n, n)
        assert bev_cfg.cell_size == grid_cfg.cell_size
        geometric = extract_obstacles(label_components(cells), make_hist(cells * 1, grid_cfg),
                                      min_cells=1)
        score, zero = cells * 1.0, np.zeros((n, n))
        attr = OutputAttributeGrid(config=bev_cfg, objectness=score, center_offset_x=zero,
                                   center_offset_y=zero, confidence=score, height=zero)
        bev = postprocess_clusters(cluster_output_grid(attr, 0.5), 0.5, bev_cfg, min_cells=1)
        assert len(geometric) > 1
        assert [(o.length, o.width) for o in geometric] == [(o.length, o.width) for o in bev]
