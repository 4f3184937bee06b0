import math
from dataclasses import replace

import numpy as np
import pytest

from lidargrid.synth import (
    GROUND_LABEL,
    BoxSpec,
    SceneSpec,
    expected_obstacles,
    generate_frame,
)


class TestGroundOnly:
    def test_flat_noiseless_exact_plane(self):
        spec = SceneSpec(noise_sigma=0.0)
        labeled = generate_frame(spec)
        assert (labeled.labels == GROUND_LABEL).all()
        np.testing.assert_allclose(labeled.frame.xyz[:, 2], spec.ground_offset,
                                   atol=1e-9)

    def test_ring_radii_closed_form(self):
        spec = SceneSpec(noise_sigma=0.0, max_range=1000.0)
        labeled = generate_frame(spec)
        radii = np.hypot(labeled.frame.xyz[:, 0], labeled.frame.xyz[:, 1])
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


class TestBoxes:
    VAN = BoxSpec(center_x=10.0, center_y=0.0, length=5.0, width=2.0, height=2.0)

    def test_points_within_inflated_footprint(self):
        spec = SceneSpec(obstacles=(self.VAN,), rng_seed=3)
        labeled = generate_frame(spec)
        pts = labeled.frame.xyz[labeled.labels == 0]
        assert len(pts) > 100
        margin = 3 * spec.noise_sigma
        assert (np.abs(pts[:, 0] - 10.0) <= 2.5 + margin).all()
        assert (np.abs(pts[:, 1]) <= 1.0 + margin).all()

    def test_yawed_box_footprint(self):
        box = BoxSpec(center_x=10.0, center_y=0.0, length=5.0, width=2.0,
                      height=2.0, yaw=math.radians(30))
        spec = SceneSpec(obstacles=(box,), rng_seed=5)
        labeled = generate_frame(spec)
        pts = labeled.frame.xyz[labeled.labels == 0]
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
        ground = labeled.frame.intensity[labeled.labels == GROUND_LABEL]
        obstacle = labeled.frame.intensity[labeled.labels == 0]
        assert (ground == 0.5).all()
        assert (obstacle == 0.8).all()


class TestSlopedGround:
    def test_points_on_sloped_plane(self):
        slope = math.radians(4.0)
        spec = SceneSpec(noise_sigma=0.0, ground_slope=slope)
        labeled = generate_frame(spec)
        xyz = labeled.frame.xyz
        expected = spec.ground_offset + math.tan(slope) * xyz[:, 0]
        np.testing.assert_allclose(xyz[:, 2], expected, atol=1e-8)

    def test_box_base_follows_ground(self):
        slope = math.radians(4.0)
        box = BoxSpec(center_x=12.0, center_y=0.0, clearance=0.3)
        spec = SceneSpec(noise_sigma=0.0, ground_slope=slope, obstacles=(box,),
                         rng_seed=21)
        labeled = generate_frame(spec)
        pts = labeled.frame.xyz[labeled.labels == 0]
        base = spec.ground_offset + math.tan(slope) * 12.0 + 0.3
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
