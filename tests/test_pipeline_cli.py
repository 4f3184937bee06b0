import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import lidargrid.cli
import lidargrid.pipeline as pipeline
from helpers import band_then_crop_counts, write_pcd_by_rows
from lidargrid.cli import main
from lidargrid.config import (
    _DEGREES,
    _NOTES,
    ClusterParams,
    ConfigError,
    EvalParams,
    PipelineConfig,
    config_from_dict,
    default_config_yaml,
)
from lidargrid.core import ObstacleEstimate, PointCloudFrame, validate_frame
from lidargrid.evaluate import OBSTACLE_CSV_HEADER, read_obstacles_csv, write_obstacles_csv
from lidargrid.grid import ThresholdProfile, project_to_grid
from lidargrid.pcd import read_frame_pcd, write_frame_pcd
from lidargrid.pipeline import (
    BENCH_BOXES,
    BEV_STAGES,
    GEOMETRIC_STAGES,
    bench,
    bench_scene,
    run_bev,
    run_geometric,
    run_pipeline,
)
from lidargrid.synth import BoxSpec, SceneSpec, generate_frame

VAN = BoxSpec(center_x=10.05, center_y=0.15, length=5.0, width=2.0, height=2.0)
SLOPES_DEG = (0.0, 2.0, 4.0, 6.0)


def van_scene(seed=0, **kwargs):
    return SceneSpec(obstacles=(VAN,), rng_seed=seed, **kwargs)


def ring(half_step=0.0):
    """16 boxes of 2.0 x 1.5 x 2.0 m around the sensor at 8 m, each
    turned to its bearing 2 pi (k + half_step) / 16: they outnumber the
    ground in the BEV raster's occupied cells."""
    bearings = [2.0 * math.pi * (k + half_step) / 16 for k in range(16)]
    return tuple(BoxSpec(center_x=8.0 * math.cos(b), center_y=8.0 * math.sin(b),
                         length=2.0, width=1.5, height=2.0, yaw=b) for b in bearings)


def number_paths(node, kind, path=(), declared=""):
    """Paths of the ``kind`` (float or int) numbers in a config tree: every
    field declared ``kind`` (an unset ``ref_lat`` included) and every such
    number in a tuple (a box's fields, a breakpoint's start or count)."""
    if is_dataclass(node):
        for f in fields(node):
            yield from number_paths(getattr(node, f.name), kind, path + (f.name,),
                                    str(f.type))
    elif isinstance(node, tuple):
        for i, item in enumerate(node):
            yield from number_paths(item, kind, path + (i,))
    elif type(node) is kind or declared in (kind.__name__, f"{kind.__name__} | None"):
        yield path


# every float NaN and +-inf, every whole number NaN
NON_FINITE = ([(path, bad) for path in number_paths(PipelineConfig(), float)
               for bad in (math.nan, math.inf, -math.inf)]
              + [(path, math.nan) for path in number_paths(PipelineConfig(), int)])

# every whole-number field, breakpoint counts included, given each value
# that is not an integer (a bool counts as none)
NOT_WHOLE = [(path, bad) for path in number_paths(PipelineConfig(), int)
             for bad in (2.5, math.inf, -math.inf, math.nan, True)]

# every real-valued field, breakpoint starts and field-of-view ends included,
# given each value that is not a number (None is an unset ref_lat or ref_lon)
NOT_REAL = [(path, bad) for path in number_paths(PipelineConfig(), float)
            for bad in (True, "1.0", None)
            if not (bad is None and path[-1] in ("ref_lat", "ref_lon"))]


def set_path(node, path, value):
    """A copy of a dataclass, dict or tuple tree with ``value`` at ``path``;
    each dataclass on the way is built again, so its checks run."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(node, tuple):
        return node[:key] + (set_path(node[key], rest, value),) + node[key + 1:]
    if isinstance(node, dict):
        return {**node, key: set_path(node[key], rest, value)}
    return replace(node, **{key: set_path(getattr(node, key), rest, value)})


class TestRunGeometric:
    def test_van_scene_single_obstacle(self):
        frame = generate_frame(van_scene(3)).frame
        result = run_geometric(frame, PipelineConfig())
        assert len(result.obstacles) == 1
        est = result.obstacles[0]
        err = math.hypot(est.center_x - 10.05, est.center_y - 0.15)
        assert err <= 0.45
        assert 4.5 <= est.length <= 5.7
        assert 1.8 <= est.width <= 2.4

    def test_ground_only_no_obstacles(self):
        frame = generate_frame(SceneSpec(rng_seed=5)).frame
        result = run_geometric(frame, PipelineConfig())
        assert result.obstacles == []

    def test_two_boxes_two_obstacles(self):
        scene = SceneSpec(obstacles=(
            BoxSpec(center_x=10.05, center_y=3.45),
            BoxSpec(center_x=10.05, center_y=-4.95),
        ), rng_seed=7)
        frame = generate_frame(scene).frame
        result = run_geometric(frame, PipelineConfig())
        assert len(result.obstacles) == 2
        ys = sorted(o.center_y for o in result.obstacles)
        assert ys[0] == pytest.approx(-4.95, abs=0.45)
        assert ys[1] == pytest.approx(3.45, abs=0.45)

    def test_stage_timings_recorded(self):
        frame = generate_frame(van_scene(9)).frame
        result = run_geometric(frame, PipelineConfig())
        assert tuple(result.timings) == GEOMETRIC_STAGES
        assert all(t >= 0.0 for t in result.timings.values())

    def test_layers_called_once_through_the_pipeline_module(self, monkeypatch):
        # the benchmark's tracer wraps these names in lidargrid.pipeline;
        # a layer reached another way would leave its span empty
        names = ("validate_frame", "fit_plane_ransac", "project_to_grid",
                 "occupancy_from_counts", "morph_open_close", "label_components",
                 "extract_obstacles")
        calls = []

        def spy(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(pipeline, name, spy(name))
        for seed in range(3):
            calls.clear()
            result = run_geometric(generate_frame(van_scene(seed)).frame, PipelineConfig())
            assert len(result.obstacles) == 1
            assert sorted(calls) == sorted(names), f"seed {seed}: {calls}"

    def test_sloped_ground_still_detects(self):
        scene = van_scene(11, ground_slope=math.radians(4.0))
        frame = generate_frame(scene).frame
        result = run_geometric(frame, PipelineConfig())
        assert len(result.obstacles) == 1


class TestRunBev:
    def test_frame_makes_no_raster_sized_arrays(self):
        # the bound is two float64 672 x 672 planes; the dense channel
        # image alone would be 10.8 MB
        frame = generate_frame(bench_scene(0)).frame
        cfg = PipelineConfig()
        run_bev(frame, cfg)  # fills the plane fit's caches
        tracemalloc.start()
        try:
            run_bev(frame, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 672 * 672 * 8, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("boxes, seeds", [
        (ring(), range(6)),
        # a box whose top is 1.0 m above the road, inside the ring
        (ring(0.5) + (BoxSpec(center_x=4.0, center_y=0.0, length=1.5, width=1.0,
                              height=0.7),), range(4)),
    ], ids=["ring", "low-box-in-ring"])
    def test_finds_every_box_when_boxes_fill_most_cells(self, boxes, seeds):
        # a ground level estimated from the occupied cells (their median
        # mean height) would sit about 0.93 m up here, adding the ring's
        # edges and hiding the low box; the fitted plane holds
        for seed in seeds:
            scene = SceneSpec(obstacles=boxes, rng_seed=seed, obstacle_density=400.0)
            obstacles = run_bev(generate_frame(scene).frame, PipelineConfig()).obstacles
            assert len(obstacles) == len(boxes), f"seed {seed}"
            for box in boxes:
                assert min(math.hypot(o.center_x - box.center_x, o.center_y - box.center_y)
                           for o in obstacles) <= 0.45, (seed, box)

    def test_routes_leave_numpy_ma_unimported(self):
        # numpy.ma costs about 16 ms to import, once per process; a fresh
        # process shows whether either route pulls it in
        code = """if True:
            import sys
            from lidargrid.config import PipelineConfig
            from lidargrid.pipeline import bench_scene, run_bev, run_geometric
            from lidargrid.synth import generate_frame
            frame = generate_frame(bench_scene(0)).frame
            run_geometric(frame, PipelineConfig())
            run_bev(frame, PipelineConfig())
            print("numpy.ma" in sys.modules)
        """
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "False\n"

    def test_van_scene_detected_with_default_detector(self):
        frame = generate_frame(van_scene(13)).frame
        cfg = PipelineConfig()
        result = run_bev(frame, cfg)
        assert tuple(result.timings) == BEV_STAGES
        assert result.obstacles
        # dominant cluster is the van; anything else is a corner fragment
        main = max(result.obstacles, key=lambda o: o.length * o.width)
        assert math.hypot(main.center_x - 10.05, main.center_y - 0.15) <= 0.45
        assert main.length == pytest.approx(5.0, abs=0.3)
        assert main.width == pytest.approx(2.0, abs=0.3)
        for other in result.obstacles:
            if other is not main:
                assert other.length * other.width < 0.1


class TestSlopes:
    """Both routes level heights against the same fitted plane."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("deg", SLOPES_DEG)
    def test_bev_van_scene(self, deg, seed):
        # the scene of acceptance criterion 3, with its bounds, on a slope
        frame = generate_frame(van_scene(seed, ground_slope=math.radians(deg))).frame
        obstacles = run_bev(frame, PipelineConfig()).obstacles
        near = [o for o in obstacles
                if math.hypot(o.center_x - 10.05, o.center_y - 0.15) <= 0.45]
        assert len(near) == 1, [(o.center_x, o.center_y, o.length) for o in obstacles]
        assert 4.5 <= near[0].length <= 5.7
        assert 1.8 <= near[0].width <= 2.4
        assert all(o.length <= 0.5 for o in obstacles if o is not near[0])

    @pytest.mark.parametrize("deg", SLOPES_DEG)
    def test_bev_bench_scene_finds_every_box(self, deg):
        scene = replace(bench_scene(0), ground_slope=math.radians(deg))
        obstacles = run_bev(generate_frame(scene).frame, PipelineConfig()).obstacles
        for box in BENCH_BOXES:
            assert min(math.hypot(o.center_x - box.center_x, o.center_y - box.center_y)
                       for o in obstacles) <= 0.45, box

    @pytest.mark.parametrize("deg", SLOPES_DEG)
    def test_geometric_projects_the_levelled_cloud(self, monkeypatch, deg):
        projected = []

        def spy(points, grid):
            projected.append((points, project_to_grid(points, grid)))
            return projected[-1][1]

        monkeypatch.setattr("lidargrid.pipeline.project_to_grid", spy)
        scene = replace(bench_scene(3), ground_slope=math.radians(deg))
        frame = validate_frame(generate_frame(scene).frame)
        cfg = PipelineConfig()
        plane = run_geometric(frame, cfg).plane
        ((rows, hist),) = projected
        assert np.array_equal(rows[:, [0, 1, 3]], frame.points[:, [0, 1, 3]])
        assert np.array_equal(rows[:, 2], plane.signed_distance(frame.points))
        # the one crop at grid.z_min counts what the ground band and the
        # older crop at 0.1 counted together
        assert np.array_equal(hist.counts, band_then_crop_counts(rows, cfg))


@pytest.mark.parametrize("route", ["geometric", "bev"])
def test_reader_drops_reach_the_result(tmp_path, route):
    # the reader hands over the NaN row and the 8-bit intensities; the
    # front half drops and scales them as for the rows in memory
    points = generate_frame(van_scene()).frame.points.copy()
    points[:, 3] *= 255.0
    points[5, 2] = np.nan
    path = tmp_path / "nan.pcd"
    write_frame_pcd(PointCloudFrame(points=points), path)
    cfg = replace(PipelineConfig(), pipeline=route)
    got = run_pipeline(read_frame_pcd(path), cfg)
    want = run_pipeline(PointCloudFrame(points=points), cfg)
    assert got.dropped_points == want.dropped_points == 1
    assert (got.plane.normal.tobytes(), got.plane.offset, got.plane.inlier_count) == \
        (want.plane.normal.tobytes(), want.plane.offset, want.plane.inlier_count)
    assert got.obstacles
    assert [asdict(o) for o in got.obstacles] == [asdict(o) for o in want.obstacles]


class TestFrontHalf:
    """Every frame is validated in the front half, in one copy that is then levelled."""

    def test_levelled_is_the_array_validation_returned(self, monkeypatch):
        returned = []

        def spy(frame):
            returned.append(validate_frame(frame))
            return returned[-1]

        monkeypatch.setattr(pipeline, "validate_frame", spy)
        frame = generate_frame(van_scene(2)).frame
        dropped, plane, levelled = pipeline.front_half(frame, PipelineConfig())
        (valid,) = returned
        assert levelled is valid.points
        assert dropped == valid.dropped_points == 0
        np.testing.assert_array_equal(levelled[:, 2], plane.signed_distance(frame.points))

    @pytest.mark.parametrize("validated", [False, True], ids=["raw", "validated"])
    @pytest.mark.parametrize("route", ["geometric", "bev"])
    def test_routes_leave_the_callers_frame_as_it_was(self, route, validated):
        points = generate_frame(van_scene(4)).frame.points.copy()
        points[:, 3] *= 255.0  # 8-bit: validation divides, on its own copy
        frame = PointCloudFrame(points=points)
        if validated:
            frame = validate_frame(frame)
        before = frame.points.tobytes()
        cfg = replace(PipelineConfig(), pipeline=route)
        first, second = run_pipeline(frame, cfg), run_pipeline(frame, cfg)
        assert frame.points.tobytes() == before
        assert [asdict(o) for o in first.obstacles] == [asdict(o) for o in second.obstacles]
        assert first.dropped_points == second.dropped_points == 0


class TestBench:
    def test_report_schema_and_throughput(self):
        report = bench(PipelineConfig(), n_frames=3, seed=1)
        stages = [row[0] for row in report.rows]
        assert stages == list(GEOMETRIC_STAGES) + ["total"]
        assert report.total_p95_ms >= 0
        assert report.achieved_hz > 0
        assert report.frames == 3
        text = report.table()
        assert "total" in text and "achieved_hz" in text

    def test_invalid_frame_count(self):
        with pytest.raises(ValueError):
            bench(PipelineConfig(), 0)

    @pytest.mark.parametrize("route, stages", [("geometric", GEOMETRIC_STAGES),
                                               ("bev", BEV_STAGES)], ids=["geometric", "bev"])
    def test_rows_are_the_route_laps_plus_total(self, route, stages):
        report = bench(replace(PipelineConfig(), pipeline=route), n_frames=2, seed=1)
        assert [row[0] for row in report.rows] == list(stages) + ["total"]
        stage_sum = sum(mean_ms for _, mean_ms, _ in report.rows[:-1])
        assert report.rows[-1][1] == report.total_mean_ms
        assert abs(report.total_mean_ms - stage_sum) <= 1e-9

    def test_default_sensor_gives_the_bench_scene(self, monkeypatch):
        made = []

        def spy(spec, **kwargs):
            labeled = generate_frame(spec, **kwargs)
            made.append(labeled.frame.points)
            return labeled

        monkeypatch.setattr(pipeline, "generate_frame", spy)
        bench(PipelineConfig(), n_frames=2, seed=4)
        assert len(made) == 2
        for i, points in enumerate(made):
            assert points.tobytes() == generate_frame(bench_scene(4 + i)).frame.points.tobytes()

    def test_configured_sensor_is_measured(self):
        cfg = PipelineConfig()
        dense = replace(cfg, synth=replace(cfg.synth, beam_count=32))
        assert bench(dense, n_frames=1).mean_points > bench(cfg, n_frames=1).mean_points


class TestConfig:
    def test_default_yaml_round_trips(self):
        cfg = config_from_dict(yaml.safe_load(default_config_yaml()))
        assert cfg.pipeline == "geometric"
        assert cfg.grid.cell_size == 0.3
        assert cfg.profile.breakpoints == ((0.0, 5), (10.0, 3), (20.0, 2))
        assert cfg.ransac.max_plane_tilt == math.radians(15)
        assert len(cfg.synth.obstacles) == 1

    def test_default_yaml_is_the_default_config(self):
        assert config_from_dict(yaml.safe_load(default_config_yaml())) == PipelineConfig()

    def test_template_lists_every_field(self):
        def check(obj, section):
            for f in fields(obj):
                key = f.name + "_deg" if f.name in _DEGREES else f.name
                assert key in section, f"{key} missing from the template"
                if is_dataclass(getattr(obj, f.name)):
                    check(getattr(obj, f.name), section[key])

        check(PipelineConfig(), yaml.safe_load(default_config_yaml()))

    def test_notes_name_real_fields(self):
        for path in _NOTES:
            obj = PipelineConfig()
            for name in path.split("."):
                assert name in {f.name for f in fields(obj)}, path
                obj = getattr(obj, name)

    def test_degree_keys_read_as_radians(self):
        cfg = config_from_dict({"synth": {"ground_slope_deg": 2.0}})
        assert cfg.synth.ground_slope == math.radians(2.0)
        assert cfg.synth.obstacles == ()  # a given section starts from its class defaults

    def test_empty_dict_gives_defaults(self):
        assert config_from_dict({}) == PipelineConfig()

    def test_plain_dict_of_the_config_loads_back(self):
        assert config_from_dict(asdict(PipelineConfig())) == PipelineConfig()

    @pytest.mark.parametrize("path, bad", NON_FINITE, ids=[
        ".".join(map(str, path)) + f"={bad}" for path, bad in NON_FINITE])
    def test_non_finite_number_rejected_by_its_class_and_by_yaml(self, path, bad):
        # the constructor is the one check: the Python API and YAML agree
        with pytest.raises(ValueError):
            set_path(PipelineConfig(), path, bad)
        with pytest.raises(ConfigError):
            config_from_dict(set_path(asdict(PipelineConfig()), path, bad))

    @pytest.mark.parametrize("path, bad", NOT_WHOLE, ids=[
        ".".join(map(str, path)) + f"={bad}" for path, bad in NOT_WHOLE])
    def test_whole_number_field_refuses_a_non_integer(self, path, bad):
        # one check in the class: the Python API refuses what YAML refuses
        with pytest.raises(ValueError):
            set_path(PipelineConfig(), path, bad)
        with pytest.raises(ConfigError):
            config_from_dict(set_path(asdict(PipelineConfig()), path, bad))

    @pytest.mark.parametrize("path, bad", NOT_REAL, ids=[
        ".".join(map(str, path)) + f"={bad!r}" for path, bad in NOT_REAL])
    def test_real_field_refuses_what_is_not_a_number(self, path, bad):
        # one check in the class: from Python a bool once passed as 0 or 1,
        # and a string or None raised TypeError
        with pytest.raises(ValueError):
            set_path(PipelineConfig(), path, bad)
        if bad is True:
            key = next(k for k in reversed(path) if isinstance(k, str))
            with pytest.raises(ConfigError, match=f"^{key} cannot be a boolean"):
                config_from_dict(set_path(asdict(PipelineConfig()), path, bad))

    @pytest.mark.parametrize("ref_lat", [95.0, -90.5, 200])
    def test_latitude_past_a_pole_refused_by_its_class(self, ref_lat):
        # it was refused only when gt.csv was geodetic, as error[invalid-latitude]
        with pytest.raises(ValueError, match="^ref_lat must be"):
            EvalParams(ref_lat=ref_lat)
        assert EvalParams(ref_lat=-90.0, ref_lon=180.0).ref_lat == -90.0

    @pytest.mark.parametrize("ref_lon", [180.5, -200])
    def test_longitude_past_the_antimeridian_refused_by_its_class(self, ref_lon):
        # geodetic_to_plane wraps the difference, so [-180, 180] names every meridian
        with pytest.raises(ValueError, match="^ref_lon must be"):
            EvalParams(ref_lon=ref_lon)

    @pytest.mark.parametrize("cls, field, bad", [
        (SceneSpec, "vertical_fov_deg", None),
        (SceneSpec, "vertical_fov_deg", 10.0),
        (SceneSpec, "obstacles", None),
        (SceneSpec, "obstacles", ({"center_x": 1, "center_y": 2},)),
        (ThresholdProfile, "breakpoints", None),
        (ThresholdProfile, "breakpoints", (5,)),
        (ThresholdProfile, "breakpoints", ((0.0, 5, 1),)),
    ])
    def test_malformed_list_field_names_itself(self, cls, field, bad):
        # these once raised TypeError or AttributeError naming no field
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cls(**{field: bad})

    @pytest.mark.parametrize("data, key", [
        ({"synth": {"vertical_fov_deg": None}}, "vertical_fov_deg"),
        ({"synth": {"obstacles": None}}, "obstacles"),
        ({"profile": {"breakpoints": None}}, "breakpoints"),
        ({"profile": {"breakpoints": [5]}}, "breakpoints"),
        ({"ransac": {"max_plane_tilt_deg": "20"}}, "max_plane_tilt_deg"),
        ({"ransac": {"max_plane_tilt_deg": None}}, "max_plane_tilt_deg"),
        ({"synth": {"ground_slope_deg": [2]}}, "ground_slope_deg"),
        ({"profile": {"breakpoints": [[0, "abc"]]}}, "count thresholds"),
        ({"profile": {"breakpoints": [[0, "5.0"]]}}, "count thresholds"),
        ({"profile": {"breakpoints": [[0, "1" * 5000]]}}, "count thresholds"),
    ])
    def test_malformed_yaml_value_names_its_key(self, data, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            config_from_dict(data)

    def test_whole_float_connectivity_refused_from_python_read_as_int_from_yaml(self):
        # 4.0 in (4, 8) holds, so a float once got through
        with pytest.raises(ValueError, match="connectivity"):
            ClusterParams(connectivity=4.0)
        cfg = config_from_dict(yaml.safe_load("cluster: {connectivity: 4.0}"))
        assert cfg.cluster.connectivity == 4 and type(cfg.cluster.connectivity) is int

    @pytest.mark.parametrize("text, min_cells", [
        ("cluster: {min_cells: 2.0}", 2),
        ('cluster: {min_cells: "3"}', 3),
        ("profile: {breakpoints: [[0, 5.0], [10, 3], [20, 2]]}", 2),
        ('profile: {breakpoints: [[0, "5"], [10, 3.0], [20, 2]]}', 2),
    ])
    def test_whole_float_and_integer_string_read_as_ints(self, text, min_cells):
        cfg = config_from_dict(yaml.safe_load(text))
        assert cfg.cluster.min_cells == min_cells
        assert type(cfg.cluster.min_cells) is int
        assert cfg.profile == PipelineConfig().profile
        assert all(type(c) is int for _, c in cfg.profile.breakpoints)

    @pytest.mark.parametrize("section, name", [("ransac", "max_plane_tilt"),
                                               ("synth", "ground_slope")])
    def test_angle_under_both_keys_rejected(self, section, name):
        # one of the two values was silently dropped
        with pytest.raises(ConfigError, match=f"give {name} or {name}_deg, not both"):
            config_from_dict({section: {name: 0.1, f"{name}_deg": 2.0}})
        assert getattr(getattr(config_from_dict({section: {name: 0.1}}), section), name) == 0.1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"nope": {}})
        with pytest.raises(ValueError):
            config_from_dict({"grid": {"cell": 1}})
        with pytest.raises(ConfigError, match="noise_min_cont"):
            config_from_dict({"profile": {"noise_min_cont": 3}})

    def test_pipeline_selector_validated(self):
        with pytest.raises(ValueError):
            config_from_dict({"pipeline": "magic"})

    @pytest.mark.parametrize("key, value", [("obstacle_density", -5.0),
                                            ("max_range", -1.0), ("max_range", 0.0)])
    def test_scene_values_that_empty_the_scene_rejected(self, key, value):
        # a negative density still wrote the van as 0 obstacles, and a
        # non-positive range left a frame with no points at all
        van = {f.name: getattr(VAN, f.name) for f in fields(VAN)}
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"synth": {"obstacles": [van], key: value}})


REPLAY_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "pcd_replay.yaml")


class TestFrameSources:
    """``detect --input`` on the frames ``synth`` wrote, and ``detect --synth``."""

    @pytest.mark.parametrize("config", [None, REPLAY_CONFIG], ids=["default", "pcd_replay"])
    @pytest.mark.parametrize("route", ["geometric", "bev"])
    def test_written_frames_give_the_synth_obstacles(self, tmp_path, config, route):
        conf = ["--config", config] if config else []
        scene, det_input, det_synth = (str(tmp_path / d) for d in ("scene", "input", "synth"))
        assert main(["synth", "--frames", "3", "--out-dir", scene, *conf]) == 0
        assert main(["detect", "--input", scene, "--pipeline", route,
                     "--out-dir", det_input, *conf]) == 0
        assert main(["detect", "--synth", "3", "--pipeline", route,
                     "--out-dir", det_synth, *conf]) == 0
        with open(os.path.join(det_input, "obstacles.csv"), "rb") as a, \
                open(os.path.join(det_synth, "obstacles.csv"), "rb") as b:
            assert a.read() == b.read()

    def test_ascii_frames_from_the_row_writer(self, tmp_path):
        scene = tmp_path / "scene"
        scene.mkdir()
        for i, frame in enumerate(lidargrid.cli._synth_run(PipelineConfig(), 2)):
            write_pcd_by_rows(frame, scene / f"frame_{i:04d}.pcd")
        assert main(["detect", "--input", str(scene), "--out-dir", str(tmp_path / "in")]) == 0
        assert main(["detect", "--synth", "2", "--out-dir", str(tmp_path / "synth")]) == 0
        got = read_obstacles_csv(tmp_path / "in" / "obstacles.csv")
        want = read_obstacles_csv(tmp_path / "synth" / "obstacles.csv")
        assert [row[0] for row in got] == [row[0] for row in want] == [0, 1]
        for (_, _, est), (_, _, ref) in zip(got, want):
            assert est.center_x == pytest.approx(ref.center_x, abs=0.01)
            assert est.center_y == pytest.approx(ref.center_y, abs=0.01)


class TestCli:
    def test_no_subcommand_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().out.startswith("usage: lidargrid")

    def test_dump_default_config(self, capsys):
        assert main(["--dump-default-config"]) == 0
        out = capsys.readouterr().out
        assert yaml.safe_load(out)["pipeline"] == "geometric"

    def test_detect_synth_writes_obstacles(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(default_config_yaml())
        out_dir = tmp_path / "out"
        rc = main(["detect", "--synth", "2", "--config", str(cfg_path),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "obstacles.csv").read_text().splitlines()
        assert lines[0] == ("frame_id,t,center_x,center_y,length,width,"
                            "height,confidence,class,range")
        assert len(lines) == 3  # one van per frame

    def test_detect_synth_without_config_finds_the_van(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["detect", "--synth", "2", "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "obstacles.csv").read_text().splitlines()
        assert len(lines) == 3  # one van per frame

    def test_detect_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(default_config_yaml())
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            main(["detect", "--synth", "2", "--config", str(cfg_path),
                  "--seed", "5", "--out-dir", str(out_dir)])
            outs.append((out_dir / "obstacles.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_synth_then_detect_then_eval(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(default_config_yaml())
        scene_dir = tmp_path / "scene"
        rc = main(["synth", "--frames", "3", "--config", str(cfg_path),
                   "--out-dir", str(scene_dir)])
        assert rc == 0
        assert (scene_dir / "frame_0000.pcd").exists()
        assert (scene_dir / "gt.csv").read_text().startswith("t,X,Y")

        det_dir = tmp_path / "det"
        rc = main(["detect", "--input", str(scene_dir), "--config", str(cfg_path),
                   "--out-dir", str(det_dir)])
        assert rc == 0

        eval_dir = tmp_path / "eval"
        rc = main(["eval", "--estimates", str(det_dir / "obstacles.csv"),
                   "--ground-truth", str(scene_dir / "gt.csv"),
                   "--ego", str(scene_dir / "ego.csv"),
                   "--config", str(cfg_path), "--out-dir", str(eval_dir)])
        assert rc == 0
        offsets = (eval_dir / "offset_stats.csv").read_text().splitlines()
        assert offsets[0] == "axis,delta,sigma,availability"
        assert offsets[1].startswith("longitudinal")
        dims = (eval_dir / "dimension_stats.csv").read_text().splitlines()
        assert dims[0] == "E_l,sigma_l,E_w,sigma_w"
        comparison = (eval_dir / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "t,x_loc_gt,y_loc_gt,x_loc_est,y_loc_est"
        # detections are near-exact on the synthetic scene
        lon = offsets[1].split(",")
        assert abs(float(lon[1])) < 0.45
        assert float(lon[3]) == 1.0

    def test_detect_bev_pipeline(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(default_config_yaml())
        out_dir = tmp_path / "out"
        rc = main(["detect", "--synth", "1", "--pipeline", "bev",
                   "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "obstacles.csv").read_text().splitlines()
        assert len(lines) >= 2  # header plus at least the van

    def test_bench_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        rc = main(["bench", "--frames", "2", "--out-dir", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "bench.csv").read_text().splitlines()
        assert lines[0] == "stage,mean_ms,p95_ms"
        stages = [line.split(",")[0] for line in lines[1:]]
        assert stages == list(GEOMETRIC_STAGES) + ["total", "achieved_hz"]
        assert lines[-1].split(",")[2] == ""  # achieved_hz has no p95

    def test_bev_export(self, tmp_path):
        out_dir = tmp_path / "bev"
        rc = main(["bev-export", "--synth", "1", "--out-dir", str(out_dir)])
        assert rc == 0
        files = sorted(out_dir.glob("*.bev"))
        assert len(files) == 1
        with open(files[0], "rb") as fh:
            assert fh.readline() == b"BEV v1 6 672 672\n"

    def test_bev_export_stops_at_frame_without_ground(self, tmp_path, capsys):
        in_dir, out_dir = tmp_path / "pcd", tmp_path / "bev"
        in_dir.mkdir()
        write_frame_pcd(generate_frame(SceneSpec(rng_seed=0)).frame,
                        in_dir / "frame_0000.pcd")
        rng = np.random.default_rng(0)
        wall = np.column_stack([np.full(300, 5.0), rng.uniform(-3, 3, 300),
                                rng.uniform(-1, 1, 300), np.zeros(300)])
        write_frame_pcd(PointCloudFrame(wall), in_dir / "frame_0001.pcd")
        rc = main(["bev-export", "--input", str(in_dir), "--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[no-plane]")
        assert [p.name for p in out_dir.glob("*.bev")] == ["frame_0000.bev"]

    # past float32 max / 4: at 1e50 the fit's float32 scoring cast overflows,
    # at 1e150 the candidate normals' norms, at 1e200 the scatter
    @pytest.mark.parametrize("argv, scale", [
        pytest.param(argv, scale, id=name if scale == 1e200 else f"{name}-{scale:g}")
        for scale in (1e200, 1e50, 1e150)
        for name, argv in (("detect", ["detect", "--input", "{scene}"]),
                           ("detect-bev", ["detect", "--input", "{scene}", "--pipeline", "bev"]),
                           ("bev-export", ["bev-export", "--input", "{scene}"]))
    ] + [pytest.param(["detect", "--synth", "1", "--config", "{config}"], 1e200,
                      id="synth-noise")])
    def test_huge_coordinates_are_degenerate_input(self, tmp_path, capsys, argv, scale):
        scene = tmp_path / "scene"
        scene.mkdir()
        rng = np.random.default_rng(0)
        points = np.column_stack([rng.uniform(-1, 1, (50, 2)) * scale,
                                  rng.uniform(-1, 1, 50), np.zeros(50)])
        write_frame_pcd(PointCloudFrame(points), scene / "frame_0000.pcd")
        config = tmp_path / "noise.yaml"
        config.write_text("synth: {noise_sigma: 1.0e+300}\n")
        argv = [a.format(scene=scene, config=config) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + ["--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[degenerate-input]: point coordinates")
        assert caught == []

    @pytest.mark.parametrize("argv, calls", [
        (["synth", "--frames", "2"], {"generate_frame": 2, "write_frame_pcd": 2}),
        (["detect", "--synth", "2"], {"generate_frame": 2}),
        (["detect", "--input", "{scene}"], {"read_frame_pcd": 2}),
        (["bev-export", "--synth", "1"], {"generate_frame": 1}),
        (["bev-export", "--input", "{scene}"], {"read_frame_pcd": 2}),
    ], ids=["synth", "detect-synth", "detect-input", "bev-export-synth", "bev-export-input"])
    def test_frames_made_through_the_cli_module_names(self, tmp_path, monkeypatch,
                                                      argv, calls):
        # the benchmark traces these calls by wrapping the names in lidargrid.cli
        scene = tmp_path / "scene"
        assert main(["synth", "--frames", "2", "--out-dir", str(scene)]) == 0
        counts = dict.fromkeys(("generate_frame", "read_frame_pcd", "write_frame_pcd"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(f"lidargrid.cli.{name}",
                                counting(name, getattr(lidargrid.cli, name)))
        argv = [a.format(scene=scene) for a in argv]
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 0
        assert counts == {**dict.fromkeys(counts, 0), **calls}

    def test_module_error_exit_code_and_category(self, tmp_path, capsys):
        missing = tmp_path / "empty"
        missing.mkdir()
        rc = main(["detect", "--input", str(missing), "--out-dir",
                   str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[")

    @pytest.mark.parametrize("entry", [
        ("frame_0000.pcd", b"VERSION 0.7\nFIELDS x y z\nPOINTS -1\nDATA ascii\n"),
        ("frame_0000.pcd", b"FIELDS x y z\nPOINTS 2\nDATA ascii\n1 2 3\n4 \xff 6\n"),
        ("frame_0000.pcd", None),
    ], ids=["negative-points", "non-utf8-row", "directory"])
    def test_bad_pcd_is_pcd_parse_error(self, tmp_path, capsys, entry):
        name, data = entry
        scene = tmp_path / "scene"
        scene.mkdir()
        if data is None:
            (scene / name).mkdir()
        else:
            (scene / name).write_bytes(data)
        rc = main(["detect", "--input", str(scene), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[pcd-parse]")

    @pytest.mark.parametrize("argv", [["detect"], ["detect", "--pipeline", "bev"], ["bev-export"]],
                             ids=["geometric", "bev", "bev-export"])
    @pytest.mark.parametrize("rows", [np.full((3, 4), np.nan), np.empty((0, 4))],
                             ids=["all-nan", "no-points"])
    def test_pcd_without_a_finite_point_is_empty_frame(self, tmp_path, capsys, argv, rows):
        # the reader parses the file; the front half finds nothing to keep
        scene = tmp_path / "scene"
        scene.mkdir()
        write_frame_pcd(PointCloudFrame(points=rows), scene / "frame_0000.pcd")
        rc = main(argv + ["--input", str(scene), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[empty-frame]: frame 0: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "grid: {cell_size: -1}",
        "grid: [1, 2]",
        "cluster: {connectivity: 6}",
        "grid: {cell_size: [",
        "ransac: {max_iterations: 50.5}",
        "grid: {cell_size: .nan}",
        "grid: {x_max: .inf}",
        "synth: {noise_sigma: -1}",
        "profile: {breakpoints: [[0, 5], [.nan, 3]]}",
        'profile: {breakpoints: [[0, 5], ["nan", 3]]}',
        "synth: {obstacle_density: .inf}",
        "synth: {obstacle_density: -5}",
        "synth: {max_range: -1}",
        "eval: {gate: 0}",
        "bev_post: {objectness_threshold: 2}",
        "bev_post: {min_confidence: 1.5}",
        "grid: {z_min: 3.0, z_max: 0.1}",
        "kernel_radius: 0",
        "kernel_radius: 100",
        "cluster: {min_cells: 0}",
        "profile: {noise_min_count: -1}",
        "ransac: {max_iterations: 0}",
        "ransac: {distance_threshold: 0}",
        "ransac: {min_inlier_ratio: 1.5}",
        "synth: {beam_count: 0}",
        "synth: {azimuth_resolution_deg: 0}",
        "bev: {image_size: 0}",
        "bev: {range: 0}",
        "grid: {cell_size: 0.001}",
        "bev: {image_size: 100000}",
        "synth: {vertical_fov_deg: [10]}",
        "synth: {vertical_fov_deg: [-10, 10, 5]}",
        "synth: {vertical_fov_deg: [-1.0e308, 1.0e308]}",
        "profile: {breakpoints: [[0, 2.5]]}",
        "synth: {ground_z: -1.8}",
        "synth: {sensor_height: 0}",
        "synth: {sensor_height: -1.8}",
        "ransac: {max_iterations: 1000000000000000000}",
        "synth: {beam_count: 200000000000000}",
        "synth: {beam_count: 100000000000000000000000000000}",
        "synth: {azimuth_resolution_deg: 1.0e-12}",
        "synth: {azimuth_resolution_deg: 1.0e-300}",
        "synth: {obstacle_density: 1.0e+20, obstacles: [{center_x: 10, center_y: 0}]}",
        "synth: {obstacles: [{center_x: a, center_y: 0}]}",
        "synth: {obstacles: [{center_x: 10, center_y: null}]}",
        "synth: {obstacles: [{center_x: [10], center_y: 0}]}",
        "eval: {ref_lat: abc}",
        "eval: {ref_lon: [9, 10]}",
        "eval: {ref_lat: 95}",
        "eval: {ref_lat: -200}",
        "eval: {ref_lon: 200}",
        "profile: {breakpoints: [[0, .inf]]}",
        "grid: {cell_size: 1" + "0" * 400 + "}",
        "profile: {breakpoints: [[0, 1" + "0" * 400 + "]]}",
        'profile: {breakpoints: [[0, 5], ["10", 3]]}',
        "cluster: {min_cells: 1" + "0" * 4999 + "}",
    ], ids=["negative-cell-size", "section-not-a-mapping",
            "bad-connectivity", "yaml-syntax", "fractional-count", "nan-cell-size",
            "infinite-extent", "negative-noise", "nan-breakpoint", "nan-breakpoint-string",
            "infinite-density", "negative-density", "negative-range", "zero-gate",
            "objectness-threshold-above-one", "min-confidence-above-one",
            "inverted-height-crop", "zero-kernel-radius", "kernel-wider-than-grid",
            "zero-min-cells",
            "noise-floor-is-unknown-key", "zero-ransac-iterations", "zero-inlier-band",
            "inlier-ratio-above-one", "zero-beams", "zero-azimuth-step",
            "zero-bev-image-size", "zero-bev-range", "grid-over-cell-cap",
            "bev-over-cell-cap", "fov-one-value", "fov-three-values",
            "fov-read-as-strings", "fractional-breakpoint-count", "ground-z-is-unknown-key",
            "sensor-at-ground", "sensor-below-ground",
            "ransac-iterations-over-cap", "synth-beams", "synth-beams-1e29", "synth-azimuths",
            "synth-azimuths-1e-300", "box-samples-over-cap", "box-center-string",
            "box-center-null", "box-center-list", "ref-lat-string", "ref-lon-list",
            "ref-lat-past-pole", "ref-lat-past-south-pole", "ref-lon-past-antimeridian",
            "infinite-breakpoint-count", "cell-size-past-float", "breakpoint-count-past-float",
            "breakpoint-start-string", "integer-past-4300-digits"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text + "\n")
        rc = main(["detect", "--synth", "1", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[config]")

    @pytest.mark.parametrize("section", ["ransac", "synth"])
    def test_negative_rng_seed_is_config_error(self, tmp_path, capsys, section):
        cfg_path = tmp_path / "neg.yaml"
        cfg_path.write_text(f"{section}: {{rng_seed: -1}}\n")
        rc = main(["detect", "--synth", "1", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[config]: rng_seed")

    @pytest.mark.parametrize("text, key", [
        ("cluster: {min_cells: true}", "min_cells"),
        ("eval: {gate: true}", "gate"),
        ("ransac: {distance_threshold: false}", "distance_threshold"),
        ("synth: {vertical_fov_deg: [true, 10]}", "vertical_fov_deg"),
        ("profile: {breakpoints: [[0, 5], [true, 3]]}", "breakpoints"),
        ("ransac: {max_plane_tilt_deg: true}", "max_plane_tilt_deg"),
        ("synth: {obstacles: [{center_x: true, center_y: 0}]}", "center_x"),
        ("cluster: {connectivity: true}", "connectivity"),
    ])
    def test_yaml_boolean_is_config_error(self, tmp_path, capsys, text, key):
        # True would otherwise pass as 1 and False as 0
        cfg_path = tmp_path / "bool.yaml"
        cfg_path.write_text(text + "\n")
        rc = main(["detect", "--synth", "1", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error[config]: {key} cannot be a boolean")

    def test_noise_floor_key_is_unknown(self, tmp_path, capsys):
        # a floor f is the breakpoint table with counts max(c, f)
        cfg_path = tmp_path / "floor.yaml"
        cfg_path.write_text("profile: {noise_min_count: 3}\n")
        rc = main(["detect", "--synth", "1", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]: unknown ThresholdProfile keys")
        assert "noise_min_count" in err

    @pytest.mark.parametrize("tilt", ["-15", "120"])
    def test_plane_tilt_outside_quarter_turn_is_config_error(self, tmp_path, capsys,
                                                             tilt):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(f"ransac: {{max_plane_tilt_deg: {tilt}}}\n")
        rc = main(["detect", "--synth", "1", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[config]: max_plane_tilt")

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = main(["detect", "--synth", "1", "--config", str(tmp_path / "nope.yaml"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[config]")


    def test_bench_zero_frames_is_config_error(self, tmp_path, capsys):
        rc = main(["bench", "--frames", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[config]")

    def test_eval_schema_error_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("t,X,Y\n0,1,2\n")
        ego = tmp_path / "ego.csv"
        ego.write_text("t,X,Y,psi\n0,0,0,0\n")
        rc = main(["eval", "--estimates", str(bad), "--ground-truth", str(gt),
                   "--ego", str(ego), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "error[schema]" in capsys.readouterr().err

    @staticmethod
    def eval_inputs(tmp_path):
        """A two-frame detection run and its truth, written as CSVs."""
        rows = [(i, i / 20.0, ObstacleEstimate(center_x=10.0, center_y=0.0,
                                               length=5.0, width=2.0)) for i in range(2)]
        write_obstacles_csv(tmp_path / "obstacles.csv", rows)
        (tmp_path / "gt.csv").write_text("t,X,Y\n0.0,10.0,0.0\n0.05,10.0,0.0\n")
        (tmp_path / "ego.csv").write_text("t,X,Y,psi\n0.0,0,0,0\n0.05,0,0,0\n")
        return {"--estimates": tmp_path / "obstacles.csv",
                "--ground-truth": tmp_path / "gt.csv", "--ego": tmp_path / "ego.csv"}

    @pytest.mark.parametrize("flag, fault", [
        ("--estimates", "missing"),
        ("--ground-truth", "directory"),
        ("--ego", "non-numeric"),
        ("--ground-truth", "short-row"),
        ("--estimates", "non-numeric"),
        ("--ground-truth", "header-only"),
        ("--ego", "header-only"),
    ])
    def test_bad_eval_csv_is_schema_error(self, tmp_path, capsys, flag, fault):
        paths = self.eval_inputs(tmp_path)
        path = paths[flag]
        if fault == "missing":
            path.unlink()
        elif fault == "directory":
            path.unlink()
            path.mkdir()
        elif fault == "non-numeric":
            lines = path.read_text().splitlines()
            lines[1] = "abc" + lines[1][lines[1].index(","):]
            path.write_text("\n".join(lines) + "\n")
        elif fault == "header-only":
            path.write_text(path.read_text().splitlines()[0] + "\n")
        else:
            path.write_text(path.read_text() + "0.1,10.0\n")
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error[schema]: {path}")

    @pytest.mark.parametrize("field", ["length", "width"])
    def test_infinite_footprint_is_schema_error(self, tmp_path, capsys, field):
        # it would read back as an obstacle of infinite extent
        paths = self.eval_inputs(tmp_path)
        path = paths["--estimates"]
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[OBSTACLE_CSV_HEADER.index(field)] = "inf"
        path.write_text("\n".join(lines[:2] + [",".join(row)]) + "\n")
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error[schema]: {path}: line 3: need finite length >= width > 0")

    @pytest.mark.parametrize("flag, text", [
        ("--ground-truth", "t,X,Y\n0.1,10.0,0.0\n0.0,10.0,0.0\n0.05,10.0,0.0\n"),
        ("--ground-truth", "t,X,Y\n0.0,10.0,0.0\nnan,10.0,0.0\n"),
        ("--ego", "t,X,Y,psi\n0.0,0,0,0\n0.05,0,0,inf\n"),
        ("--ground-truth", "t,lat,lon\n0.0,45.0,9.0\n0.05,45.0,nan\n"),
    ], ids=["t-not-increasing", "nan-t", "infinite-heading", "nan-longitude"])
    def test_series_that_interp_misreads_is_schema_error(self, tmp_path, capsys,
                                                          flag, text):
        paths = self.eval_inputs(tmp_path)
        paths[flag].write_text(text)
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error[schema]: {paths[flag]}")

    @pytest.mark.parametrize("short", ["--ground-truth", "--ego"])
    def test_frame_outside_a_series_is_schema_error(self, tmp_path, capsys, short):
        # four frames, and one series that ends at the second
        paths = self.eval_inputs(tmp_path)
        write_obstacles_csv(paths["--estimates"], [
            (i, i / 20.0, ObstacleEstimate(center_x=10.0, center_y=0.0, length=5.0, width=2.0))
            for i in range(4)])
        times = [repr(i / 20.0) for i in range(4)]
        if short == "--ego":
            text = "t,X,Y\n" + "".join(f"{t},10.0,0.0\n" for t in times)
            paths["--ground-truth"].write_text(text)
        else:
            paths["--ego"].write_text("t,X,Y,psi\n" + "".join(f"{t},0,0,0\n" for t in times))
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error[schema]: frame 2 at t=0.1 lies outside")

    def test_frame_with_two_timestamps_is_schema_error(self, tmp_path, capsys):
        paths = self.eval_inputs(tmp_path)
        est = ObstacleEstimate(center_x=10.0, center_y=0.0, length=5.0, width=2.0)
        write_obstacles_csv(paths["--estimates"], [(0, 0.0, est), (0, 0.05, est)])
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error[schema]: frame 0 has two timestamps, 0.0 and 0.05")

    def test_synth_names_sort_in_frame_order_past_9999(self, tmp_path, monkeypatch):
        monkeypatch.setattr("lidargrid.cli.generate_frame", lambda spec, frame_id, timestamp:
                            SimpleNamespace(frame=SimpleNamespace(timestamp=timestamp)))
        monkeypatch.setattr("lidargrid.cli.write_frame_pcd", lambda frame, path: path.touch())
        assert main(["synth", "--frames", "10001", "--out-dir", str(tmp_path)]) == 0
        order = [int(p.stem.removeprefix("frame_")) for p in sorted(tmp_path.glob("*.pcd"))]
        assert order == list(range(10001))

    def test_bev_export_names_sort_in_frame_order_past_9999(self, tmp_path, monkeypatch):
        monkeypatch.setattr("lidargrid.cli.generate_frame",
                            lambda spec, frame_id, timestamp: SimpleNamespace(frame=None))
        monkeypatch.setattr("lidargrid.cli.front_half", lambda frame, cfg: (None, None, None))
        monkeypatch.setattr("lidargrid.cli.extract_channels",
                            lambda points, cfg: SimpleNamespace(save=lambda path: path.touch()))
        assert main(["bev-export", "--synth", "10001", "--out-dir", str(tmp_path)]) == 0
        order = [int(p.stem.removeprefix("frame_")) for p in sorted(tmp_path.glob("*.bev"))]
        assert order == list(range(10001))

    @pytest.mark.parametrize("text, rc", [
        ("eval: {ref_lat: abc}", 1), ("eval: {ref_lon: [9]}", 1),
        ("eval: {ref_lat: null, ref_lon: null}", 0), ("eval: {ref_lat: 45, ref_lon: 9}", 0),
    ])
    def test_geodetic_reference_from_config(self, tmp_path, capsys, text, rc):
        # null means the first truth row, here (45, 9), as no config does
        paths = self.eval_inputs(tmp_path)
        paths["--ground-truth"].write_text("t,lat,lon\n0.0,45.0,9.0\n0.05,45.0,9.0\n")
        at_origin = ObstacleEstimate(center_x=0.0, center_y=0.0, length=5.0, width=2.0)
        write_obstacles_csv(paths["--estimates"], [(i, i / 20.0, at_origin) for i in range(2)])
        (tmp_path / "cfg.yaml").write_text(text + "\n")
        argv = ["eval", "--config", str(tmp_path / "cfg.yaml"), "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        assert main(argv) == rc
        if rc:
            assert capsys.readouterr().err.startswith("error[config]: ref_")
        else:
            assert "availability 1.000" in capsys.readouterr().out

    def test_nan_range_is_schema_error(self, tmp_path, capsys):
        paths = self.eval_inputs(tmp_path)
        path = paths["--estimates"]
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0] + ",nan"]) + "\n")
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in paths.items():
            argv += [name, str(p)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error[schema]: {path}: line 3: range nan inconsistent")

    def test_eval_takes_no_seed(self, tmp_path, capsys):
        # scoring draws no random number, so a seed would change nothing
        argv = ["eval", "--seed", "1", "--out-dir", str(tmp_path / "o")]
        for name, p in self.eval_inputs(tmp_path).items():
            argv += [name, str(p)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err

    def test_bench_starts_at_the_configured_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "seed.yaml"
        cfg_path.write_text("synth: {rng_seed: 7}\n")
        assert main(["bench", "--frames", "2", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 0
        cfg = config_from_dict({"synth": {"rng_seed": 7}})
        points = {seed: f"mean_points={bench(cfg, 2, seed=seed).mean_points:.0f}"
                  for seed in (0, 7)}
        assert points[0] != points[7]
        assert points[7] in capsys.readouterr().out

    def test_eval_of_good_csvs_passes(self, tmp_path):
        argv = ["eval", "--out-dir", str(tmp_path / "o")]
        for name, p in self.eval_inputs(tmp_path).items():
            argv += [name, str(p)]
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["synth", "--frames", "2", "--out-dir", "{file}"],
        ["detect", "--synth", "1", "--seed", "-1", "--out-dir", "{dir}"],
        ["bench", "--frames", "1", "--seed", "-1", "--out-dir", "{dir}"],
        ["synth", "--frames", "-1", "--out-dir", "{dir}"],
        ["detect", "--synth", "0", "--out-dir", "{dir}"],
        ["eval", "--total-frames", "1", "--out-dir", "{dir}"],
        ["eval", "--total-frames", "0", "--out-dir", "{dir}"],
    ], ids=["out-dir-is-a-file", "negative-seed", "bench-negative-seed",
            "negative-frames", "zero-synth-frames", "total-frames-below-matches",
            "zero-total-frames"])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        argv = [a.format(file=tmp_path / "file", dir=tmp_path / "o") for a in argv]
        if argv[0] == "eval":
            for name, p in self.eval_inputs(tmp_path).items():
                argv += [name, str(p)]
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[config]")

    def test_synth_without_obstacles_notes_an_empty_ground_truth(self, tmp_path, capsys):
        # a synth section without obstacles has none
        cfg_path = tmp_path / "empty.yaml"
        cfg_path.write_text("synth: {noise_sigma: 0.01}\n")
        assert main(["synth", "--frames", "1", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err.startswith("note: synth scene has no obstacles")
        assert (tmp_path / "o" / "gt.csv").read_text().splitlines() == ["t,X,Y"]

    def test_out_of_memory_is_memory_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(frame, cfg):
            raise MemoryError("cannot allocate the grid")
        monkeypatch.setattr(lidargrid.cli, "run_pipeline", exhausted)
        assert main(["detect", "--synth", "1", "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error[memory]: cannot allocate the grid\n"

    @pytest.mark.parametrize("argv, blocked", [
        (["detect", "--synth", "1"], "obstacles.csv"),
        (["synth", "--frames", "1"], "frame_0000.pcd"),
        (["eval"], "offset_stats.csv"),
        (["bench", "--frames", "1"], "bench.csv"),
        (["bev-export", "--synth", "1"], "frame_0000.bev"),
    ], ids=["detect", "synth", "eval", "bench", "bev-export"])
    def test_unwritable_output_is_io_error(self, tmp_path, capsys, argv, blocked):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        argv = argv + ["--out-dir", str(out)]
        if argv[0] == "eval":
            for name, p in self.eval_inputs(tmp_path).items():
                argv += [name, str(p)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ") and blocked in err
