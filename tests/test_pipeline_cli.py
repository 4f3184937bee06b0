import math
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import lidargrid.pipeline as pipeline
from lidargrid.cli import main
from lidargrid.config import (
    _DEGREES,
    _NOTES,
    ConfigError,
    PipelineConfig,
    config_from_dict,
    default_config_yaml,
)
from lidargrid.core import ObstacleEstimate, PointCloudFrame, validate_frame
from lidargrid.evaluate import write_obstacles_csv
from lidargrid.grid import project_to_grid
from lidargrid.ground import split_ground
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
    def test_geometric_projects_the_non_ground_rows(self, monkeypatch, deg):
        projected = []

        def spy(points, grid):
            projected.append(points)
            return project_to_grid(points, grid)

        monkeypatch.setattr("lidargrid.pipeline.project_to_grid", spy)
        scene = replace(bench_scene(3), ground_slope=math.radians(deg))
        frame = validate_frame(generate_frame(scene).frame)
        cfg = PipelineConfig()
        plane = run_geometric(frame, cfg).plane
        _, non_ground = split_ground(frame.points, plane, cfg.ransac.distance_threshold)
        (rows,) = projected
        assert np.array_equal(rows[:, [0, 1, 3]], non_ground[:, [0, 1, 3]])
        assert np.array_equal(rows[:, 2], plane.signed_distance(non_ground))


@pytest.mark.parametrize("route", ["geometric", "bev"])
def test_reader_drops_reach_the_result(tmp_path, route):
    points = generate_frame(van_scene()).frame.points.copy()
    points[5, 2] = np.nan
    path = tmp_path / "nan.pcd"
    write_frame_pcd(PointCloudFrame(points=points), path)
    frame = read_frame_pcd(path)
    assert frame.dropped_points == 1
    cfg = replace(PipelineConfig(), pipeline=route)
    assert run_pipeline(frame, cfg).dropped_points == 1


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
    ], ids=["negative-cell-size", "section-not-a-mapping",
            "bad-connectivity", "yaml-syntax", "fractional-count", "nan-cell-size",
            "infinite-extent", "negative-noise", "nan-breakpoint", "nan-breakpoint-string",
            "infinite-density", "negative-density", "negative-range", "zero-gate",
            "objectness-threshold-above-one", "min-confidence-above-one",
            "inverted-height-crop", "zero-kernel-radius", "zero-min-cells",
            "negative-noise-floor", "zero-ransac-iterations", "zero-inlier-band",
            "inlier-ratio-above-one", "zero-beams", "zero-azimuth-step",
            "zero-bev-image-size", "zero-bev-range", "grid-over-cell-cap",
            "bev-over-cell-cap"])
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

    # the cell cap keeps every grid and raster allocatable, but both scans
    # ask for more rays than a 64-bit process can map, so the allocation
    # fails at once without touching memory
    @pytest.mark.parametrize("command, text, size", [
        ("detect", "synth: {beam_count: 200000000000000}", "1.42 PiB"),
        ("bev-export", "synth: {azimuth_resolution_deg: 1.0e-12}", "2.56 PiB"),
    ], ids=["synth-beams", "synth-azimuths"])
    def test_unallocatable_config_is_memory_error(self, tmp_path, capsys, command, text,
                                                  size):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text + "\n")
        rc = main([command, "--synth", "1", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[memory]: ") and size in err

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
        monkeypatch.setattr("lidargrid.cli.generate_frame",
                            lambda spec, frame_id, timestamp: SimpleNamespace(frame=None))
        monkeypatch.setattr("lidargrid.cli.write_frame_pcd", lambda frame, path: path.touch())
        assert main(["synth", "--frames", "10001", "--out-dir", str(tmp_path)]) == 0
        order = [int(p.stem.removeprefix("frame_")) for p in sorted(tmp_path.glob("*.pcd"))]
        assert order == list(range(10001))

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
