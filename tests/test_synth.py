import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import generate_frame_all_rays
from lidargrid import synth
from lidargrid.core import PointCloudFrame
from lidargrid.pipeline import bench_scene
from lidargrid.synth import (
    GROUND_LABEL,
    BoxSpec,
    LabeledFrame,
    SceneSpec,
    _box_entry_t,
    _box_z_span,
    _ground_returns,
    _may_enter,
    _may_hide,
    _nearest_entry_t,
    _ray_directions,
    _sample_box_points,
    _scan,
    expected_obstacles,
    generate_frame,
)


class TestGroundOnly:
    def test_flat_noiseless_exact_plane(self):
        spec = SceneSpec(noise_sigma=0.0)
        labeled = generate_frame(spec)
        assert (labeled.labels == GROUND_LABEL).all()
        np.testing.assert_allclose(labeled.frame.points[:, 2], -spec.sensor_height,
                                   atol=1e-9)

    def test_ring_radii_closed_form(self):
        spec = SceneSpec(noise_sigma=0.0, max_range=1000.0)
        labeled = generate_frame(spec)
        radii = np.hypot(labeled.frame.points[:, 0], labeled.frame.points[:, 1])
        elevations = np.radians(np.linspace(-15, 15, 16))
        expected = np.array(sorted(spec.sensor_height / math.tan(abs(e))
                                   for e in elevations if e < 0))
        # every point sits on one of the predicted rings
        nearest = expected[np.argmin(np.abs(radii[:, None] - expected), axis=1)]
        np.testing.assert_allclose(radii, nearest, rtol=1e-9)
        # and every predicted ring is populated
        for ring in expected:
            assert (np.abs(radii - ring) < 1e-6).any()

    def test_upward_beams_no_return(self):
        spec = SceneSpec(noise_sigma=0.0)
        labeled = generate_frame(spec)
        n_azimuths = int(round(360 / spec.azimuth_resolution_deg))
        downward = sum(1 for e in np.linspace(-15, 15, 16)
                       if e < 0 and spec.sensor_height / math.tan(
                           math.radians(abs(e))) <= spec.max_range)
        assert len(labeled.frame) == downward * n_azimuths

    def test_labels_must_cover_every_point(self):
        frame = PointCloudFrame(points=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="labels must cover every point"):
            LabeledFrame(frame=frame, labels=[GROUND_LABEL, GROUND_LABEL])


class TestBoxes:
    VAN = BoxSpec(center_x=10.0, center_y=0.0, length=5.0, width=2.0, height=2.0)

    def test_points_within_inflated_footprint(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=3)
        labeled = generate_frame(spec)
        pts = labeled.frame.points[labeled.labels == 0, :3]
        assert len(pts) > 100
        margin = 3 * spec.noise_sigma
        assert (np.abs(pts[:, 0] - 10.0) <= 2.5 + margin).all()
        assert (np.abs(pts[:, 1]) <= 1.0 + margin).all()

    def test_yawed_box_footprint(self):
        box = BoxSpec(center_x=10.0, center_y=0.0, length=5.0, width=2.0,
                      height=2.0, yaw=math.radians(30))
        spec = SceneSpec(obstacles=(box,), rng_seed=5)
        labeled = generate_frame(spec)
        pts = labeled.frame.points[labeled.labels == 0, :3]
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx = pts[:, 0] - 10.0
        dy = pts[:, 1]
        local_x = c * dx + s * dy
        local_y = -s * dx + c * dy
        margin = 3 * spec.noise_sigma
        assert (np.abs(local_x) <= 2.5 + margin).all()
        assert (np.abs(local_y) <= 1.0 + margin).all()

    def test_labels_cover_all_points(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=7)
        labeled = generate_frame(spec)
        assert len(labeled.labels) == len(labeled.frame)
        assert set(np.unique(labeled.labels)) <= {GROUND_LABEL, 0}

    def test_box_shadows_ground(self):
        spec_empty = SceneSpec(noise_sigma=0.0)
        spec_box = SceneSpec(noise_sigma=0.0, obstacles=(self.VAN,))
        ground_empty = generate_frame(spec_empty)
        ground_box = generate_frame(spec_box)
        n_empty = (ground_empty.labels == GROUND_LABEL).sum()
        n_box = (ground_box.labels == GROUND_LABEL).sum()
        assert n_box < n_empty  # rays into the box no longer reach the ground

    def test_determinism(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=11)
        a = generate_frame(spec)
        b = generate_frame(spec)
        np.testing.assert_array_equal(a.frame.points, b.frame.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.frame.points.tobytes() == b.frame.points.tobytes()

    def test_different_seed_differs(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=11)
        other = SceneSpec(obstacles=(self.VAN,), rng_seed=12)
        a = generate_frame(spec)
        b = generate_frame(other)
        assert a.frame.points.shape != b.frame.points.shape or \
            not np.array_equal(a.frame.points, b.frame.points)

    def test_occlusion_hidden_box_contributes_nothing(self):
        front = BoxSpec(center_x=8.0, center_y=0.0, length=2.0, width=4.0,
                        height=3.0)
        hidden = BoxSpec(center_x=14.0, center_y=0.0, length=2.0, width=1.0,
                         height=1.0)
        spec = SceneSpec(obstacles=(front, hidden), rng_seed=13)
        labeled = generate_frame(spec)
        assert (labeled.labels == 0).sum() > 0
        assert (labeled.labels == 1).sum() == 0

    def test_side_by_side_boxes_both_visible(self):
        a = BoxSpec(center_x=10.0, center_y=4.0)
        b = BoxSpec(center_x=10.0, center_y=-4.0)
        spec = SceneSpec(obstacles=(a, b), rng_seed=15)
        labeled = generate_frame(spec)
        assert (labeled.labels == 0).sum() > 100
        assert (labeled.labels == 1).sum() > 100

    def test_point_budget_one_return_per_ray(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=17,
                         obstacle_density=50000.0)
        labeled = generate_frame(spec)
        assert len(labeled.frame) == spec.ray_count
        # the trim drops box returns only: the ground rows match the
        # same scene at the default density
        sparse = generate_frame(replace(spec, obstacle_density=SceneSpec().obstacle_density))
        ground = labeled.frame.points[labeled.labels == GROUND_LABEL]
        np.testing.assert_array_equal(
            ground, sparse.frame.points[sparse.labels == GROUND_LABEL])

    def test_intensity_by_label(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=19)
        labeled = generate_frame(spec)
        ground = labeled.frame.points[labeled.labels == GROUND_LABEL, 3]
        obstacle = labeled.frame.points[labeled.labels == 0, 3]
        assert (ground == 0.5).all()
        assert (obstacle == 0.8).all()


class TestRayCount:
    @pytest.mark.parametrize("step", [0.2, 0.7, 0.35, 1 / 3, 7.5, 45.0])
    def test_ray_count_is_the_rays_cast(self, step):
        spec = SceneSpec(azimuth_resolution_deg=step)
        assert spec.ray_count == len(_ray_directions(spec))

    def test_budget_at_a_step_that_does_not_divide_360(self):
        # 16 beams x 515 azimuths; every ray returns once the box is dense
        spec = SceneSpec(azimuth_resolution_deg=0.7, obstacle_density=2000.0,
                         obstacles=(BoxSpec(center_x=10.0, center_y=0.0),))
        assert len(generate_frame(spec).frame) == 8240


class TestScanCache:
    VAN = BoxSpec(center_x=10.0, center_y=0.0)

    @staticmethod
    def _entry(spec):
        return _scan(replace(_table_key(spec), obstacles=()))

    def test_cached_arrays_are_read_only(self):
        dirs, t_ground = self._entry(SceneSpec())
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0
        with pytest.raises(ValueError):
            t_ground[0] = 1.0

    def test_seed_and_obstacles_share_one_entry(self):
        _scan.cache_clear()
        _ground_returns.cache_clear()
        generate_frame(SceneSpec(rng_seed=1))
        generate_frame(SceneSpec(rng_seed=2))
        generate_frame(SceneSpec(obstacles=(self.VAN,), rng_seed=3))
        info = _scan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    # another value for each SceneSpec field: a new field must be added
    # here, and so be sorted into the draws or the keys of both tables
    OTHER_VALUE = {
        "ground_slope": 0.035, "noise_sigma": 0.05, "obstacles": (replace(VAN, center_x=12.0),),
        "beam_count": 8, "vertical_fov_deg": (-20.0, 10.0), "azimuth_resolution_deg": 0.4,
        "max_range": 50.0, "sensor_height": 1.5, "rng_seed": 7, "obstacle_density": 50.0,
    }
    DRAWN = ("rng_seed", "noise_sigma", "obstacle_density")

    def test_every_field_has_another_value(self):
        assert set(self.OTHER_VALUE) == {f.name for f in fields(SceneSpec)}

    @pytest.mark.parametrize("field", [f.name for f in fields(SceneSpec)])
    def test_each_field_is_drawn_or_keys_the_tables(self, field):
        base = SceneSpec(obstacles=(self.VAN,))
        scene = replace(base, **{field: self.OTHER_VALUE[field]})
        _scan.cache_clear()
        _ground_returns.cache_clear()
        generate_frame(base)
        warm = _frame_bytes(generate_frame(scene))
        scan, returns = _scan.cache_info(), _ground_returns.cache_info()
        _scan.cache_clear()
        _ground_returns.cache_clear()
        assert warm == _frame_bytes(generate_frame(scene))
        if field in self.DRAWN:
            assert (returns.misses, returns.hits, scan.misses, scan.hits) == (1, 1, 1, 0)
        elif field == "obstacles":
            assert (returns.misses, returns.hits, scan.misses, scan.hits) == (2, 0, 1, 1)
        else:
            assert (returns.misses, returns.hits) == (2, 0)
            assert (scan.misses, scan.hits, scan.currsize) == (2, 0, 2)

    def test_list_field_of_view(self):
        spec = SceneSpec(vertical_fov_deg=[-15.0, 15.0], obstacles=(self.VAN,), rng_seed=4)
        assert _frame_bytes(generate_frame(spec)) == _frame_bytes(
            generate_frame(replace(spec, vertical_fov_deg=(-15.0, 15.0))))

    def test_list_field_of_view_is_stored_as_a_tuple(self):
        spec = SceneSpec(vertical_fov_deg=[-15.0, 15.0])
        assert spec.vertical_fov_deg == (-15.0, 15.0)
        assert spec == SceneSpec() and hash(spec) == hash(SceneSpec())

    def test_slope_sequence_matches_all_rays_generator(self):
        box = BoxSpec(center_x=12.0, center_y=-3.0, yaw=0.4)
        obstacles = (box, replace(box, center_x=18.0, center_y=2.0), self.VAN)
        for i, deg in enumerate((0, 2, 4, 0, 2, 4)):
            spec = SceneSpec(obstacles=obstacles, ground_slope=math.radians(deg),
                             rng_seed=40 + i)
            assert _frame_bytes(generate_frame(spec)) == _frame_bytes(
                generate_frame_all_rays(spec))


class TestSlopedGround:
    def test_points_on_sloped_plane(self):
        slope = math.radians(4.0)
        spec = SceneSpec(noise_sigma=0.0, ground_slope=slope)
        labeled = generate_frame(spec)
        xyz = labeled.frame.points[:, :3]
        expected = -spec.sensor_height + math.tan(slope) * xyz[:, 0]
        np.testing.assert_allclose(xyz[:, 2], expected, atol=1e-8)

    def test_box_base_follows_ground(self):
        slope = math.radians(4.0)
        box = BoxSpec(center_x=12.0, center_y=0.0, clearance=0.3)
        spec = SceneSpec(noise_sigma=0.0, ground_slope=slope, obstacles=(box,),
                         rng_seed=21)
        labeled = generate_frame(spec)
        pts = labeled.frame.points[labeled.labels == 0, :3]
        base = -spec.sensor_height + math.tan(slope) * 12.0 + 0.3
        assert pts[:, 2].min() >= base - 1e-9
        assert pts[:, 2].max() <= base + box.height + 1e-9


class TestExpectedObstacles:
    def test_single_box(self):
        spec = SceneSpec(obstacles=(BoxSpec(center_x=10.0, center_y=0.0,
                                            length=5.0, width=2.0),))
        out = expected_obstacles(spec)
        assert len(out) == 1
        assert (out[0].center_x, out[0].center_y) == (10.0, 0.0)
        assert (out[0].length, out[0].width) == (5.0, 2.0)

    def test_empty_scene(self):
        assert expected_obstacles(SceneSpec()) == []

    def test_length_width_ordering_invariant_to_yaw(self):
        # a 90-degree yawed box still reports length >= width
        spec = SceneSpec(obstacles=(BoxSpec(center_x=5.0, center_y=0.0,
                                            length=2.0, width=5.0,
                                            yaw=math.pi / 2),))
        out = expected_obstacles(spec)
        assert out[0].length == 5.0
        assert out[0].width == 2.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BoxSpec(center_x=0, center_y=0, length=0.0)


def _table_key(spec):
    """The scene ``generate_frame`` looks its ground table up with."""
    return replace(spec, rng_seed=0, noise_sigma=0.0, obstacle_density=0.0)


def _frame_bytes(labeled):
    return labeled.frame.points.shape, labeled.frame.points.tobytes(), labeled.labels.tobytes()


@st.composite
def boxes(draw):
    # centres from over the sensor out to 40 m, any yaw, boxes that sink
    # into the ground or float above it
    return BoxSpec(
        center_x=draw(st.floats(-40.0, 40.0)),
        center_y=draw(st.floats(-40.0, 40.0)),
        length=draw(st.floats(0.2, 8.0)),
        width=draw(st.floats(0.2, 4.0)),
        height=draw(st.floats(0.2, 4.0)),
        yaw=draw(st.floats(-math.pi, math.pi)),
        clearance=draw(st.floats(-1.0, 1.5)),
    )


@st.composite
def scenes(draw):
    obstacles = draw(st.lists(
        st.one_of(boxes(), boxes().map(lambda b: replace(
            b, center_x=b.center_x / 20.0, center_y=b.center_y / 20.0))),
        max_size=4))
    return SceneSpec(
        ground_slope=draw(st.floats(-0.2, 0.2)),
        noise_sigma=draw(st.sampled_from([0.0, 0.02])),
        obstacles=tuple(obstacles),
        beam_count=draw(st.integers(1, 12)),
        vertical_fov_deg=(draw(st.integers(-9000, 0)) / 100.0,
                          draw(st.integers(0, 9000)) / 100.0),
        azimuth_resolution_deg=draw(st.sampled_from([0.5, 1.0, 3.0, 7.5, 45.0])),
        max_range=draw(st.floats(1.0, 100.0)),
        rng_seed=draw(st.integers(0, 2**31)),
        obstacle_density=draw(st.sampled_from([1.0, 20.0, 150.0])),
    )


class TestCulledRayTests:
    """Culling the slab test changes no frame: the all-rays generator in
    ``tests/helpers.py`` is the reference, byte for byte."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(scenes())
    def test_matches_all_rays_generator(self, spec):
        assert _frame_bytes(generate_frame(spec)) == _frame_bytes(generate_frame_all_rays(spec))

    def test_overflow_to_inf_warns_nothing(self):
        # an elevation near 1e-308 overflows the divides to +-inf, which
        # are taken as rays parallel to the ground and the box faces
        spec = SceneSpec(vertical_fov_deg=(-2.2250738585072014e-308, 0.0))
        reference = _frame_bytes(generate_frame_all_rays(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _frame_bytes(generate_frame(spec)) == reference

    def test_matches_all_rays_generator_on_bench_scenes(self):
        box = BoxSpec(center_x=12.0, center_y=-3.0, yaw=0.4)
        for slope in (0.0, 0.035, 0.07):
            spec = SceneSpec(obstacles=(box, replace(box, center_x=18.0, center_y=2.0),
                                        replace(box, center_x=-9.0, center_y=6.0)),
                             ground_slope=slope, rng_seed=5)
            assert _frame_bytes(generate_frame(spec)) == _frame_bytes(
                generate_frame_all_rays(spec))

    @staticmethod
    def _directions(rng):
        """Random unit directions plus near-vertical ones at every azimuth."""
        v = rng.normal(size=(20000, 3))
        az = rng.uniform(-math.pi, math.pi, 4000)
        tilt = 10.0 ** rng.uniform(-14, -1, 4000)
        up = np.column_stack([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az),
                              np.where(rng.random(4000) < 0.5, -1.0, 1.0) * np.cos(tilt)])
        v = np.vstack([v, up, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        return v / np.linalg.norm(v, axis=1)[:, None]

    @pytest.mark.parametrize("box", [
        BoxSpec(center_x=100.0, center_y=0.0),
        BoxSpec(center_x=-70.0, center_y=70.0, yaw=1.0, height=40.0, clearance=-20.0),
        BoxSpec(center_x=0.0, center_y=0.0, height=6.0, clearance=-2.0),
        BoxSpec(center_x=0.5, center_y=-1.0, yaw=2.5, height=4.0, clearance=-1.0),
        # the circumscribed circle just contains, or just misses, the sensor
        # while a corner points at it
        BoxSpec(center_x=math.hypot(5.0, 2.0) / 2.0 * (1.0 - 1e-7), center_y=0.0,
                yaw=math.pi - math.atan2(2.0, 5.0), height=8.0, clearance=-4.0),
        BoxSpec(center_x=math.hypot(5.0, 2.0) / 2.0 * (1.0 + 1e-7), center_y=0.0,
                yaw=math.pi - math.atan2(2.0, 5.0), height=8.0, clearance=-4.0),
        BoxSpec(center_x=0.0, center_y=math.hypot(4.0, 1.0) / 2.0 + 1e-3, length=4.0,
                width=1.0, yaw=-math.pi / 2 + math.atan2(1.0, 4.0), height=8.0,
                clearance=-4.0),
    ])
    def test_cull_keeps_every_direction_that_enters(self, box):
        spec = SceneSpec(ground_slope=0.05)
        dirs = self._directions(np.random.default_rng(7))
        entry = _box_entry_t(spec, box, dirs)
        enters = np.isfinite(entry)
        assert enters.any()
        assert _may_enter(box, dirs)[enters].all()
        np.testing.assert_array_equal(_nearest_entry_t(spec, (box,), dirs), entry)


class TestGroundReturnsCache:
    """The per-scene table: the ground returns of one sensor, ground and
    box set, shared by frames of every seed."""

    VAN = BoxSpec(center_x=10.0, center_y=0.0)

    def test_seeds_share_one_entry(self):
        _ground_returns.cache_clear()
        generate_frame(SceneSpec(obstacles=(self.VAN,), rng_seed=1))
        generate_frame(SceneSpec(obstacles=(self.VAN,), rng_seed=2))
        info = _ground_returns.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("obstacles", [
        (), (replace(VAN, center_x=10.5),), (VAN, replace(VAN, center_y=5.0)),
    ])
    def test_changed_box_set_gets_its_own_entry(self, obstacles):
        _ground_returns.cache_clear()
        generate_frame(SceneSpec(obstacles=(self.VAN,)))
        generate_frame(SceneSpec(obstacles=obstacles))
        info = _ground_returns.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)

    def test_moved_boxes_reuse_the_ray_table(self):
        _scan.cache_clear()
        _ground_returns.cache_clear()
        generate_frame(SceneSpec(obstacles=(self.VAN,)))
        generate_frame(SceneSpec(obstacles=(replace(self.VAN, center_x=12.0),)))
        info = _ground_returns.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        info = _scan.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_arrays_are_read_only(self):
        dirs, t_ground = _ground_returns(_table_key(SceneSpec(obstacles=(self.VAN,))))
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0
        with pytest.raises(ValueError):
            t_ground[0] = 1.0

    def test_table_holds_the_unshadowed_rays(self):
        spec = SceneSpec(obstacles=(self.VAN,))
        all_dirs, all_t = TestScanCache._entry(spec)
        dirs, t_ground = _ground_returns(_table_key(spec))
        lit = _box_entry_t(spec, self.VAN, all_dirs) >= all_t
        assert 0 < len(dirs) < len(all_dirs)
        np.testing.assert_array_equal(dirs, all_dirs[lit])
        np.testing.assert_array_equal(t_ground, all_t[lit])

    def test_warm_lookup_runs_no_scene_check(self, monkeypatch):
        spec = SceneSpec(obstacles=(self.VAN, replace(self.VAN, center_y=6.0)), rng_seed=3)
        generate_frame(spec)
        checks = []
        check = SceneSpec.__post_init__
        monkeypatch.setattr(SceneSpec, "__post_init__",
                            lambda self: checks.append(self) or check(self))
        generate_frame(spec)
        assert checks == []
        # a scene a caller builds is still checked
        with pytest.raises(ValueError, match="noise_sigma"):
            replace(spec, noise_sigma=-1.0)
        assert len(checks) == 1

    @pytest.mark.parametrize("spec", [
        SceneSpec(),
        SceneSpec(obstacles=(VAN,), rng_seed=7, noise_sigma=0.1, obstacle_density=40.0),
        SceneSpec(ground_slope=0.05, beam_count=4, obstacles=(VAN, replace(VAN, yaw=1.0))),
    ])
    def test_key_is_the_checked_scene_with_zeros(self, spec):
        before = dict(vars(spec))
        key = synth._table_key(spec)
        assert vars(spec) == before
        assert key == _table_key(spec)
        assert hash(key) == hash(_table_key(spec))
        assert vars(key) == vars(_table_key(spec))

    def test_box_hash_is_the_hash_of_its_fields(self):
        box = BoxSpec(center_x=3.0, center_y=-1.0, yaw=0.5)
        assert hash(box) == hash(tuple(getattr(box, f.name) for f in fields(BoxSpec)))
        assert hash(box) == hash(replace(box)) != hash(replace(box, yaw=0.25))


def _box_samples(spec, box, count, rng):
    """Points of ``box`` as ``generate_frame`` samples them, with the corners
    of its footprint at its bottom and top added, and their distances."""
    z_lo, z_hi = _box_z_span(spec, box)
    pts = _sample_box_points(box, z_lo, z_hi, count, rng)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    corners = [(box.center_x + c * u * box.length / 2 - s * v * box.width / 2,
                box.center_y + s * u * box.length / 2 + c * v * box.width / 2, z)
               for u in (-1, 1) for v in (-1, 1) for z in (z_lo, z_hi)]
    pts = np.vstack([pts, corners])
    dist = np.sqrt(np.add.reduce(pts * pts, axis=1))
    keep = dist > 1e-9
    return pts[keep], dist[keep]


@st.composite
def box_pairs(draw):
    """A box anywhere and another box anywhere or within a few meters of it."""
    box = draw(st.one_of(boxes(), boxes().map(lambda b: replace(
        b, center_x=b.center_x / 20.0, center_y=b.center_y / 20.0))))
    other = draw(boxes())
    if draw(st.booleans()):
        other = replace(other, center_x=box.center_x + other.center_x / 8.0,
                        center_y=box.center_y + other.center_y / 8.0)
    return box, other


class TestBoxPairRule:
    """``_may_hide`` drops a box pair only where no sample of the one can be
    hidden by the other."""

    @settings(max_examples=500, deadline=None)
    @given(box_pairs(), st.floats(-0.2, 0.2), st.integers(0, 2**31))
    def test_dropped_pair_hides_no_sample(self, pair, slope, seed):
        box, other = pair
        if _may_hide(other, box):
            return
        spec = SceneSpec(ground_slope=slope)
        pts, dist = _box_samples(spec, box, 400, np.random.default_rng(seed))
        assert (_box_entry_t(spec, other, pts / dist[:, None]) >= dist - 1e-9).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_dropped_pair_hides_no_sample_near_the_edge(self, seed):
        # the other box sits just past the rule's azimuth or range edge
        rng = np.random.default_rng(seed)
        box = BoxSpec(center_x=float(rng.uniform(5, 30)), center_y=float(rng.uniform(-5, 5)),
                      yaw=float(rng.uniform(-math.pi, math.pi)), height=3.0, clearance=-1.0)
        d = math.hypot(box.center_x, box.center_y)
        r = math.hypot(box.length, box.width) / 2.0
        az = math.atan2(box.center_y, box.center_x)
        spec = SceneSpec()
        pts, dist = _box_samples(spec, box, 2000, rng)
        for other in (
            # tangent cones: the other circle just outside the box's azimuth span
            replace(box, center_x=d * math.cos(az + 2 * math.asin(r / d) + 1e-6),
                    center_y=d * math.sin(az + 2 * math.asin(r / d) + 1e-6)),
            # straight behind, its circle starting just past the box's far edge
            replace(box, center_x=(d + 2 * r + 1e-6) * math.cos(az),
                    center_y=(d + 2 * r + 1e-6) * math.sin(az)),
        ):
            assert not _may_hide(other, box)
            assert (_box_entry_t(spec, other, pts / dist[:, None]) >= dist - 1e-9).all()

    def test_box_in_the_far_half_hides_samples(self):
        # a post inside the van's far half, on its line of sight: its circle
        # starts past the van's centre but before the van's far edge
        van = BoxSpec(center_x=10.0, center_y=0.0)
        post = BoxSpec(center_x=12.0, center_y=0.0, length=0.5, width=0.5, height=3.0)
        spec = SceneSpec()
        pts, dist = _box_samples(spec, van, 2000, np.random.default_rng(0))
        assert _may_hide(post, van)
        assert (_box_entry_t(spec, post, pts / dist[:, None]) < dist - 1e-9).any()

    def test_bench_scene_keeps_two_of_twelve_pairs(self):
        scene = bench_scene(0).obstacles
        kept = [(i, j) for i, box in enumerate(scene) for j, other in enumerate(scene)
                if i != j and _may_hide(other, box)]
        assert len(scene) == 4 and len(kept) == 2

    def test_sensor_inside_a_circle_keeps_the_pair(self):
        over = BoxSpec(center_x=0.5, center_y=0.0)
        far = BoxSpec(center_x=-40.0, center_y=30.0)
        assert _may_hide(over, far) and _may_hide(far, over)
