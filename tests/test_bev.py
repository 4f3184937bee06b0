import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cluster_output_grid_by_loop,
    flood_fill_labels,
    occupancy_detector,
    same_partition,
)
from lidargrid.bev import (
    BevConfig,
    ChannelImage,
    GeometryMismatch,
    OutputAttributeGrid,
    cluster_output_grid,
    extract_channels,
    height_gap_detector,
    load_channel_image,
    postprocess_clusters,
)
from lidargrid.cli import main
from lidargrid.config import PipelineConfig
from lidargrid.pipeline import front_half
from lidargrid.synth import generate_frame

CFG = BevConfig(image_size=40, range=6.0)  # 0.3 m cells


def zero_attr(cfg=CFG, **overrides):
    n = cfg.image_size
    fields = dict(
        objectness=np.zeros((n, n)),
        center_offset_x=np.zeros((n, n)),
        center_offset_y=np.zeros((n, n)),
        confidence=np.zeros((n, n)),
        height=np.zeros((n, n)),
    )
    fields.update(overrides)
    return OutputAttributeGrid(config=cfg, **fields)


def dense_attr(attr):
    """The same attributes as (n, n) rasters; cells off the support read 0."""
    if attr.cells is None:
        return attr
    n = attr.config.image_size

    def scatter(values):
        out = np.zeros((n * n,) + values.shape[1:])
        out[attr.cells] = values
        return out.reshape((n, n) + values.shape[1:])

    return OutputAttributeGrid(
        config=attr.config, objectness=scatter(attr.objectness),
        center_offset_x=scatter(attr.center_offset_x),
        center_offset_y=scatter(attr.center_offset_y),
        confidence=scatter(attr.confidence), height=scatter(attr.height),
        class_scores=None if attr.class_scores is None else scatter(attr.class_scores))


def dense_channels(pts, cfg):
    """Reference image with every statistic taken over the whole raster."""
    n = cfg.image_size
    x, y, z, inten = pts.T
    keep = (x >= -cfg.range) & (x < cfg.range) & (y >= -cfg.range) & (y < cfg.range)
    ix = ((x[keep] + cfg.range) / cfg.cell_size).astype(np.int64)
    iy = ((y[keep] + cfg.range) / cfg.cell_size).astype(np.int64)
    ok = (ix < n) & (iy < n)
    flat, z, inten = ix[ok] * n + iy[ok], z[keep][ok], inten[keep][ok]
    counts = np.bincount(flat, minlength=n * n).astype(np.float64)
    peaks = np.full((2, n * n), -np.inf)
    np.maximum.at(peaks[0], flat, z)
    np.maximum.at(peaks[1], flat, inten)
    sums = [np.bincount(flat, weights=w, minlength=n * n) for w in (z, inten)]
    planes = np.stack([peaks[0], sums[0] / np.maximum(counts, 1.0),
                       peaks[1], sums[1] / np.maximum(counts, 1.0),
                       np.clip(np.log1p(counts) / np.log(64.0), 0.0, 1.0),
                       (counts > 0).astype(np.float64)])
    planes[:, counts == 0] = 0.0
    return planes.reshape(6, n, n).astype(np.float32)


def random_points(rng, n):
    return np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-8, 8, n),
                            rng.normal(0, 2, n), rng.uniform(0, 1, n)])


class TestExtractChannels:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(11)
        for k in range(100):
            pts = random_points(rng, int(rng.integers(0, 400)))
            if k % 2:
                pts[:, :2] = np.round(pts[:, :2], 1)  # many points per cell
            img = extract_channels(pts, CFG)
            assert img.planes.tobytes() == dense_channels(pts, CFG).tobytes()

    def test_singleton_statistics(self):
        pts = np.array([[0.1, 0.1, 1.2, 0.5]])
        img = extract_channels(pts, CFG)
        occupied = np.nonzero(img.plane("occupancy"))
        assert len(occupied[0]) == 1
        i, j = occupied[0][0], occupied[1][0]
        assert img.plane("max_height")[i, j] == pytest.approx(1.2)
        assert img.plane("mean_height")[i, j] == pytest.approx(1.2)
        assert img.plane("max_intensity")[i, j] == pytest.approx(0.5)
        assert img.plane("mean_intensity")[i, j] == pytest.approx(0.5)

    def test_two_points_mean_and_max(self):
        pts = np.array([[0.1, 0.1, 1.0, 0.2], [0.1, 0.1, 2.0, 0.4]])
        img = extract_channels(pts, CFG)
        i, j = (np.nonzero(img.plane("occupancy"))[k][0] for k in (0, 1))
        assert img.plane("max_height")[i, j] == pytest.approx(2.0)
        assert img.plane("mean_height")[i, j] == pytest.approx(1.5)

    def test_empty_input_all_zero(self):
        img = extract_channels(np.zeros((0, 4)), CFG)
        assert not img.planes.any()

    def test_out_of_range_dropped(self):
        pts = np.array([[10.0, 0.0, 1.0, 0.5], [0.0, -10.0, 1.0, 0.5]])
        img = extract_channels(pts, CFG)
        assert not img.plane("occupancy").any()

    def test_channel_invariants_random_frames(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.integers(0, 400)
            pts = np.column_stack([
                rng.uniform(-8, 8, n), rng.uniform(-8, 8, n),
                rng.normal(0, 2, n), rng.uniform(0, 1, n),
            ])
            img = extract_channels(pts, CFG)
            occ = img.plane("occupancy") > 0
            assert (img.plane("mean_height")[occ]
                    <= img.plane("max_height")[occ] + 1e-6).all()
            assert (img.plane("mean_intensity")[occ]
                    <= img.plane("max_intensity")[occ] + 1e-6).all()
            np.testing.assert_array_equal(occ, img.plane("density") > 0)
            in_range = ((pts[:, 0] >= -6) & (pts[:, 0] < 6)
                        & (pts[:, 1] >= -6) & (pts[:, 1] < 6)).sum()
            assert occ.sum() <= in_range

    def test_density_is_bounded_log_count(self):
        pts = np.tile([0.1, 0.1, 1.0, 0.5], (63, 1))
        img = extract_channels(pts, CFG)
        assert img.plane("density").max() == pytest.approx(1.0, abs=1e-6)
        big = np.tile([0.1, 0.1, 1.0, 0.5], (500, 1))
        assert extract_channels(big, CFG).plane("density").max() == pytest.approx(1.0)


class TestHeightGapDetector:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            img = extract_channels(random_points(rng, int(rng.integers(0, 400))), CFG)
            attr = dense_attr(height_gap_detector(img, min_height=0.5))
            occ = img.plane("occupancy") > 0
            mean_h = img.plane("mean_height").astype(np.float64)
            max_h = img.plane("max_height").astype(np.float64)
            ground = float(np.median(mean_h[occ])) if occ.any() else 0.0
            hit = occ & (max_h - ground >= 0.5)
            np.testing.assert_array_equal(attr.objectness, hit.astype(np.float64))
            np.testing.assert_array_equal(attr.confidence, attr.objectness)
            np.testing.assert_array_equal(attr.height, np.where(hit, max_h - ground, 0.0))
            for off in (attr.center_offset_x, attr.center_offset_y):
                assert off.shape == (CFG.image_size, CFG.image_size) and not off.any()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(-6, 6, (200, 2)),
                               rng.normal(0, 1, (200, 1)),
                               rng.uniform(0, 1, (200, 1))])
        img = extract_channels(pts, CFG)
        path = tmp_path / "frame.bev"
        img.save(path)
        back = load_channel_image(path, half_range=CFG.range)
        np.testing.assert_array_equal(back.planes, img.planes)
        assert back.config == CFG

    def test_header_format(self, tmp_path):
        img = extract_channels(np.zeros((0, 4)), CFG)
        path = tmp_path / "frame.bev"
        img.save(path)
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").rstrip("\n")
        assert header == f"BEV v1 6 {CFG.image_size} {CFG.image_size}"

    def test_values_off_the_occupied_cells_round_trip(self, tmp_path):
        # a file need not come from extract_channels: any nonzero bit
        # pattern (-0.0 and NaN included) in any plane survives load + save
        rng = np.random.default_rng(21)
        n = CFG.image_size
        planes = np.zeros((6, n * n), dtype="<f4")
        for k in range(6):
            cells = rng.choice(n * n, 50, replace=False)
            planes[k, cells] = rng.normal(0.0, 3.0, 50)
        planes[0, :3] = [-0.0, np.nan, np.inf]
        payload = f"BEV v1 6 {n} {n}\n".encode("ascii") + planes.tobytes()
        src, dst = tmp_path / "src.bev", tmp_path / "dst.bev"
        src.write_bytes(payload)
        img = load_channel_image(src, half_range=CFG.range)
        assert img.cells.size < n * n
        img.save(dst)
        assert dst.read_bytes() == payload

    def test_bev_export_writes_the_dense_reference(self, tmp_path):
        assert main(["bev-export", "--synth", "1", "--out-dir", str(tmp_path)]) == 0
        cfg = PipelineConfig()
        _, _, levelled = front_half(generate_frame(cfg.synth, frame_id=0).frame, cfg)
        n = cfg.bev.image_size
        want = (f"BEV v1 6 {n} {n}\n".encode("ascii")
                + dense_channels(levelled, cfg.bev).astype("<f4").tobytes())
        assert (tmp_path / "frame_0000.bev").read_bytes() == want

    @pytest.mark.parametrize("data", [
        b"BEV v1 six 4 4\n" + bytes(384),
        b"BEV v1 6 4 4\n" + bytes(385),
        b"BEV v1 6 4 \xd9\xa4\n" + bytes(384),  # an Arabic-Indic four in UTF-8
        b"PNG v1 6 4 4\n" + bytes(384),
        b"BEV v1 5 4 4\n" + bytes(320),
        b"BEV v1 6 4 5\n" + bytes(480),
        b"BEV v1 6 0 0\n",
    ], ids=["word-for-a-number", "payload-not-whole-floats", "non-ascii-header",
            "bad-magic", "five-planes", "not-square", "empty-raster"])
    def test_malformed_file_rejected(self, tmp_path, data):
        path = tmp_path / "bad.bev"
        path.write_bytes(data)
        with pytest.raises(GeometryMismatch):
            load_channel_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.bev"
        with open(path, "wb") as fh:
            fh.write(b"BEV v1 6 40 40\n")
            fh.write(b"\x00" * 100)
        with pytest.raises(GeometryMismatch):
            load_channel_image(path)


class TestClusterOutputGrid:
    def test_two_disjoint_blobs(self):
        obj = np.zeros((40, 40))
        obj[5:8, 5:8] = 1.0
        obj[20:23, 20:23] = 1.0
        attr = zero_attr(objectness=obj, confidence=obj.copy())
        clusters = cluster_output_grid(attr, 0.5)
        assert len(clusters) == 2

    def test_single_cell_zero_offset(self):
        obj = np.zeros((40, 40))
        obj[10, 10] = 0.9
        clusters = cluster_output_grid(zero_attr(objectness=obj), 0.5)
        assert len(clusters) == 1
        assert clusters[0].size == 1

    def test_zero_offsets_match_plain_components(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            obj = (rng.random((25, 25)) < 0.35).astype(float)
            cfg = BevConfig(image_size=25, range=5.0)
            attr = zero_attr(cfg=cfg, objectness=obj)
            clusters = cluster_output_grid(attr, 0.5)
            ref = flood_fill_labels(obj >= 0.5, 8)
            assert len(clusters) == ref.max()
            mine = np.zeros_like(ref)
            for label, c in enumerate(clusters, start=1):
                mine[c.cells[:, 0], c.cells[:, 1]] = label
            assert same_partition(mine, ref)

    def test_offsets_merge_separated_blobs(self):
        cfg = BevConfig(image_size=40, range=6.0)
        obj = np.zeros((40, 40))
        obj[10:12, 10:12] = 1.0
        obj[20:22, 20:22] = 1.0
        # blob A points its offsets at blob B's first cell
        centers = cfg.cell_centers()
        off_x = np.zeros((40, 40))
        off_y = np.zeros((40, 40))
        target = (centers[20], centers[20])
        for i in range(10, 12):
            for j in range(10, 12):
                off_x[i, j] = target[0] - centers[i]
                off_y[i, j] = target[1] - centers[j]
        attr = zero_attr(cfg=cfg, objectness=obj, center_offset_x=off_x,
                         center_offset_y=off_y)
        clusters = cluster_output_grid(attr, 0.5)
        assert len(clusters) == 1

    def test_offset_chain_merges_in_raster_order(self):
        cfg = BevConfig(image_size=40, range=6.0)
        centers = cfg.cell_centers()
        obj = np.zeros((40, 40))
        off_x = np.zeros((40, 40))
        off_y = np.zeros((40, 40))
        # raster order of the blobs' first cells: B, D, A, C
        blobs = {"B": (2, 30), "D": (10, 5), "A": (20, 20), "C": (30, 10)}
        for i, j in blobs.values():
            obj[i:i + 2, j:j + 2] = 1.0
        # A -> B and C -> B join three blobs through B; D stays alone
        ti, tj = blobs["B"]
        for src in ("A", "C"):
            si, sj = blobs[src]
            off_x[si:si + 2, sj:sj + 2] = centers[ti] - centers[si:si + 2, None]
            off_y[si:si + 2, sj:sj + 2] = centers[tj] - centers[None, sj:sj + 2]
        attr = zero_attr(cfg=cfg, objectness=obj, center_offset_x=off_x,
                         center_offset_y=off_y)
        clusters = cluster_output_grid(attr, 0.5)
        assert [c.size for c in clusters] == [12, 4]
        merged = {tuple(cell) for cell in clusters[0].cells}
        assert {blobs["A"], blobs["B"], blobs["C"]} <= merged
        assert tuple(clusters[1].cells[0]) == blobs["D"]

    def test_offset_outside_grid_skipped(self):
        obj = np.zeros((40, 40))
        obj[0, 0] = 1.0
        off = np.zeros((40, 40))
        off[0, 0] = -100.0
        attr = zero_attr(objectness=obj, center_offset_x=off)
        clusters = cluster_output_grid(attr, 0.5)
        assert len(clusters) == 1

    def test_threshold_monotone(self):
        rng = np.random.default_rng(17)
        obj = rng.random((40, 40))
        attr = zero_attr(objectness=obj)
        sizes = []
        for thr in (0.2, 0.5, 0.8):
            clusters = cluster_output_grid(attr, thr)
            sizes.append(sum(c.size for c in clusters))
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_scores_validated(self):
        with pytest.raises(ValueError):
            zero_attr(objectness=np.full((40, 40), 1.5))
        with pytest.raises(ValueError):
            cluster_output_grid(zero_attr(), 1.5)

    @pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan")])
    def test_shared_and_separate_scores_checked(self, bad):
        # one array passed as both scores is checked once, under the
        # objectness name; separate arrays are each checked on their own
        scores = np.zeros((40, 40))
        scores[3, 4] = bad
        with pytest.raises(ValueError, match="^objectness scores outside"):
            zero_attr(objectness=scores, confidence=scores)
        with pytest.raises(ValueError, match="^objectness scores outside"):
            zero_attr(objectness=scores)
        with pytest.raises(ValueError, match="^confidence scores outside"):
            zero_attr(confidence=scores)


@st.composite
def attribute_grids(draw):
    """Random detector output with its threshold and connectivity.

    Objectness is random, sparse, all zero or all one.  Each cell's
    centre offset is zero, a few cells long (often into a below-threshold
    cell), up to a grid width long (often just past an edge) or far off
    the grid.
    """
    n = draw(st.integers(1, 14))
    cfg = BevConfig(image_size=n, range=draw(st.sampled_from([0.5, 3.0, 7.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obj = {
        "random": lambda: rng.random((n, n)),
        "sparse": lambda: np.where(rng.random((n, n)) < 0.2, rng.random((n, n)), 0.0),
        "empty": lambda: np.zeros((n, n)),
        "full": lambda: np.ones((n, n)),
    }[draw(st.sampled_from(["random", "sparse", "empty", "full"]))]()
    offset = np.zeros((2, n, n))
    if draw(st.booleans()):
        near = rng.uniform(-3.0, 3.0, (2, n, n)) * cfg.cell_size
        across = rng.uniform(-2.0, 2.0, (2, n, n)) * cfg.range
        far = rng.choice([-1.0, 1.0], (2, n, n)) * rng.uniform(2.0, 50.0, (2, n, n)) * cfg.range
        offset = np.choose(rng.integers(0, 4, (2, n, n)), [offset, near, across, far])
    classes = draw(st.sampled_from([None, 0, 1, 3]))
    attr = OutputAttributeGrid(
        config=cfg, objectness=obj,
        center_offset_x=offset[0], center_offset_y=offset[1],
        confidence=rng.random((n, n)), height=rng.normal(0.0, 2.0, (n, n)),
        class_scores=None if classes is None else rng.random((n, n, classes)))
    threshold = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return attr, threshold, draw(st.sampled_from([4, 8]))


@st.composite
def support_grids(draw):
    """An ``attribute_grids`` case kept on a random support of its cells,
    with a threshold in (0, 1], so that the scattered raster's zero cells
    off the support never join a cluster either."""
    attr, _, connectivity = draw(attribute_grids())
    n = attr.config.image_size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    cells = np.flatnonzero(rng.random(n * n) < share)

    def on(a):
        return a.reshape((n * n,) + a.shape[2:])[cells]

    support = OutputAttributeGrid(
        config=attr.config, objectness=on(attr.objectness),
        center_offset_x=on(attr.center_offset_x), center_offset_y=on(attr.center_offset_y),
        confidence=on(attr.confidence), height=on(attr.height),
        class_scores=None if attr.class_scores is None else on(attr.class_scores),
        cells=cells)
    threshold = draw(st.one_of(st.sampled_from([1e-9, 0.5, 1.0]),
                               st.floats(0.0, 1.0, exclude_min=True)))
    return support, threshold, connectivity


def assert_same_clusters(got, want):
    """Every RawCluster field bit-equal, types and shapes included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.cells.dtype == b.cells.dtype
        assert a.cells.shape == b.cells.shape
        assert np.array_equal(a.cells, b.cells)
        for name in ("mean_confidence", "mean_height", "cell_center_x",
                     "cell_center_y", "mean_offset_x", "mean_offset_y"):
            assert type(getattr(a, name)) is float
            assert getattr(a, name) == getattr(b, name), name
        if b.mean_class_scores is None:
            assert a.mean_class_scores is None
        else:
            assert a.mean_class_scores.shape == b.mean_class_scores.shape
            assert np.array_equal(a.mean_class_scores, b.mean_class_scores)


class TestClusterMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(attribute_grids())
    def test_every_field_equals_the_loop(self, case):
        attr, threshold, connectivity = case
        assert_same_clusters(cluster_output_grid(attr, threshold, connectivity),
                             cluster_output_grid_by_loop(attr, threshold, connectivity))

    @settings(max_examples=400, deadline=None)
    @given(support_grids())
    def test_support_form_equals_its_raster(self, case):
        attr, threshold, connectivity = case
        assert_same_clusters(cluster_output_grid(attr, threshold, connectivity),
                             cluster_output_grid(dense_attr(attr), threshold, connectivity))


# one entry per way a support can break the sorted-unique-in-raster rule
BAD_SUPPORTS = {
    "two-dimensional": np.array([[1, 2]]),
    "not integer": np.array([1.0, 2.0]),
    "unsorted": np.array([5, 3]),
    "duplicate": np.array([3, 3]),
    "negative": np.array([-1, 3]),
    "past the raster": np.array([3, CFG.image_size ** 2]),
}


def support_attr(cells, m=None, **overrides):
    """A support-form grid over ``cells`` with ``m`` zero values per attribute."""
    zeros = np.zeros(np.size(cells) if m is None else m)
    fields = dict(objectness=zeros, center_offset_x=zeros, center_offset_y=zeros,
                  confidence=zeros, height=zeros)
    fields.update(overrides)
    return OutputAttributeGrid(config=CFG, cells=cells, **fields)


class TestSupportForm:
    @pytest.mark.parametrize("name", BAD_SUPPORTS)
    def test_bad_support_rejected_by_channel_image(self, name):
        cells = BAD_SUPPORTS[name]
        with pytest.raises(GeometryMismatch, match="cells must be"):
            ChannelImage(cells=cells, values=np.zeros((6, cells.size)), config=CFG)

    @pytest.mark.parametrize("name", BAD_SUPPORTS)
    def test_bad_support_rejected_by_attribute_grid(self, name):
        with pytest.raises(GeometryMismatch, match="cells must be"):
            support_attr(BAD_SUPPORTS[name])

    def test_length_mismatch_rejected(self):
        cells = np.array([3, 7])
        with pytest.raises(GeometryMismatch, match="values shape"):
            ChannelImage(cells=cells, values=np.zeros((6, 3)), config=CFG)
        with pytest.raises(GeometryMismatch, match="objectness shape"):
            support_attr(cells, m=3)
        with pytest.raises(GeometryMismatch, match="height shape"):
            support_attr(cells, height=np.zeros((CFG.image_size, CFG.image_size)))
        with pytest.raises(GeometryMismatch, match="class_scores shape"):
            support_attr(cells, class_scores=np.zeros((3, 2)))

    def test_support_cells_alone_cluster_at_threshold_zero(self):
        # two 2 x 2 blocks with zero scores: at threshold 0 a raster puts
        # every cell in one cluster, a support only its own cells
        n = CFG.image_size
        cells = np.array([5 * n + 5, 5 * n + 6, 6 * n + 5, 6 * n + 6,
                          20 * n + 20, 20 * n + 21, 21 * n + 20, 21 * n + 21])
        clusters = cluster_output_grid(support_attr(cells), 0.0)
        assert [c.size for c in clusters] == [4, 4]
        got = np.concatenate([c.cells for c in clusters])
        assert np.array_equal(got[:, 0] * n + got[:, 1], cells)
        assert [c.size for c in cluster_output_grid(zero_attr(), 0.0)] == [n * n]


class TestPostprocess:
    def test_confidence_filter(self):
        obj = np.zeros((40, 40))
        obj[5:7, 5:7] = 1.0
        conf_hi = np.where(obj > 0, 0.9, 0.0)
        conf_lo = np.where(obj > 0, 0.3, 0.0)
        hi = cluster_output_grid(zero_attr(objectness=obj, confidence=conf_hi), 0.5)
        lo = cluster_output_grid(zero_attr(objectness=obj, confidence=conf_lo), 0.5)
        assert len(postprocess_clusters(hi, 0.5, CFG)) == 1
        assert len(postprocess_clusters(lo, 0.5, CFG)) == 0

    def test_min_cells_filter(self):
        obj = np.zeros((40, 40))
        obj[5:7, 5:7] = 1.0  # 4 cells
        obj[20, 20] = 1.0  # 1 cell
        clusters = cluster_output_grid(zero_attr(objectness=obj, confidence=obj), 0.5)
        assert sorted(c.size for c in clusters) == [1, 4]
        assert len(postprocess_clusters(clusters, 0.5, CFG, 1)) == 2
        assert len(postprocess_clusters(clusters, 0.5, CFG)) == 1  # default 2
        for min_cells in (2, 4):
            kept = postprocess_clusters(clusters, 0.5, CFG, min_cells)
            assert len(kept) == 1
            assert kept[0].length == pytest.approx(2 * CFG.cell_size)
        assert postprocess_clusters(clusters, 0.5, CFG, 5) == []

    def test_center_includes_mean_offset(self):
        obj = np.zeros((40, 40))
        obj[10, 10] = 1.0
        conf = obj.copy()
        off_x = np.where(obj > 0, 0.25, 0.0)
        clusters = cluster_output_grid(
            zero_attr(objectness=obj, confidence=conf, center_offset_x=off_x), 0.5)
        est = postprocess_clusters(clusters, 0.5, CFG, min_cells=1)[0]
        centers = CFG.cell_centers()
        assert est.center_x == pytest.approx(centers[10] + 0.25)
        assert est.center_y == pytest.approx(centers[10])

    def test_van_footprint_recovered(self):
        # footprint built from cells whose centers fall in a 5 x 2 m box
        cfg = BevConfig(image_size=224, range=10.0)  # ~0.0893 m cells
        centers = cfg.cell_centers()
        xs, ys = np.meshgrid(centers, centers, indexing="ij")
        inside = (np.abs(xs - 3.0) <= 2.5) & (np.abs(ys - 0.5) <= 1.0)
        obj = inside.astype(float)
        conf = inside.astype(float) * 0.9
        height = inside.astype(float) * 1.8
        attr = zero_attr(cfg=cfg, objectness=obj, confidence=conf, height=height)
        ests = postprocess_clusters(cluster_output_grid(attr, 0.5), 0.5, cfg)
        assert len(ests) == 1
        est = ests[0]
        assert abs(est.length - 5.0) <= cfg.cell_size + 1e-9
        assert abs(est.width - 2.0) <= cfg.cell_size + 1e-9
        assert est.center_x == pytest.approx(3.0, abs=cfg.cell_size)
        assert est.center_y == pytest.approx(0.5, abs=cfg.cell_size)
        assert est.height == pytest.approx(1.8)

    def test_class_tag_from_scores(self):
        cfg = BevConfig(image_size=8, range=2.0)
        n = cfg.image_size
        obj = np.zeros((n, n))
        obj[2, 2] = 1.0
        scores = np.zeros((n, n, 3))
        scores[2, 2] = [0.1, 0.7, 0.2]
        attr = OutputAttributeGrid(
            config=cfg, objectness=obj, center_offset_x=np.zeros((n, n)),
            center_offset_y=np.zeros((n, n)), confidence=obj.copy(),
            height=np.zeros((n, n)), class_scores=scores)
        est = postprocess_clusters(cluster_output_grid(attr, 0.5), 0.5, cfg,
                                   min_cells=1)[0]
        assert est.class_tag == "class_1"


class TestOccupancyDetector:
    def test_geometry_round_trip(self):
        pts = np.array([[0.1, 0.1, 1.0, 0.5], [2.0, 2.0, 0.5, 0.4]])
        img = extract_channels(pts, CFG)
        attr = occupancy_detector(img)
        assert attr.config == CFG
        assert attr.objectness.max() == 1.0
        np.testing.assert_array_equal(attr.objectness, img.plane("occupancy"))
        assert not attr.center_offset_x.any() and not attr.center_offset_y.any()
        clusters = cluster_output_grid(attr, 0.5)
        assert len(clusters) == 2
