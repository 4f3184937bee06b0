"""Command-line front end.

Subcommands: detect (PCD dir or synthetic frames -> obstacles CSV), eval
(estimate/GT/ego CSVs -> metric CSVs), synth (scene -> PCD frames + GT),
bench (latency report), bev-export (frames -> binary channel images).
Exit code 0 on success; module errors print a machine-readable category
to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluate as ev
from .bev import extract_channels
from .config import PipelineConfig, default_config_yaml, load_config
from .core import ConfigError, LidarGridError
from .pcd import read_frame_pcd, write_frame_pcd
from .pipeline import FRAME_RATE_HZ, bench, front_half, run_pipeline
from .synth import generate_frame


class InputError(LidarGridError):
    """No usable input frames at the given location."""

    category = "no-input"


def _load_cfg(args) -> PipelineConfig:
    """The --config file with the command's overrides; checks counts and seeds."""
    for name, low in (("frames", 1), ("synth", 1), ("total_frames", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "pipeline", None):
        cfg = replace(cfg, pipeline=args.pipeline)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg,
                      ransac=replace(cfg.ransac, rng_seed=args.seed),
                      synth=replace(cfg.synth, rng_seed=args.seed))
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {out}: {exc.strerror or exc}") from exc
    return out


def _input_frames(args, cfg: PipelineConfig):
    """Yield frames from a PCD directory or the configured synthetic scene."""
    if args.input is not None:
        paths = sorted(Path(args.input).glob("*.pcd"))
        if not paths:
            raise InputError(f"no .pcd files in {args.input}")
        for i, path in enumerate(paths):
            yield read_frame_pcd(path, frame_id=i, timestamp=i / FRAME_RATE_HZ)
    else:
        base = cfg.synth.rng_seed
        for i in range(args.synth):
            spec = replace(cfg.synth, rng_seed=base + i)
            yield generate_frame(spec, frame_id=i, timestamp=i / FRAME_RATE_HZ).frame


def cmd_detect(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    rows = []
    for frame in _input_frames(args, cfg):
        result = run_pipeline(frame, cfg)
        for est in result.obstacles:
            rows.append((frame.frame_id, frame.timestamp, est))
    path = out / "obstacles.csv"
    ev.write_obstacles_csv(path, rows)
    print(f"wrote {path} ({len(rows)} obstacles)")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    if not cfg.synth.obstacles:
        print("note: synth scene has no obstacles; gt.csv will be empty",
              file=sys.stderr)
    base = cfg.synth.rng_seed
    gt_rows = []
    width = max(4, len(str(args.frames - 1)))  # names sort in frame order
    for i in range(args.frames):
        spec = replace(cfg.synth, rng_seed=base + i)
        labeled = generate_frame(spec, frame_id=i, timestamp=i / FRAME_RATE_HZ)
        write_frame_pcd(labeled.frame, out / f"frame_{i:0{width}d}.pcd")
        if spec.obstacles:
            box = spec.obstacles[0]
            gt_rows.append((i / FRAME_RATE_HZ, box.center_x, box.center_y))
    ev.write_csv(out / "gt.csv", ["t", "X", "Y"],
                 [[repr(t), repr(float(x)), repr(float(y))] for t, x, y in gt_rows])
    ev.write_csv(out / "ego.csv", ["t", "X", "Y", "psi"],
                 [[repr(i / FRAME_RATE_HZ), "0.0", "0.0", "0.0"] for i in range(args.frames)])
    print(f"wrote {args.frames} frames + gt.csv + ego.csv to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    est_rows = ev.read_obstacles_csv(args.estimates)
    gt_t, gt_x, gt_y = ev.read_ground_truth_csv(
        args.ground_truth, ref_lat=cfg.eval.ref_lat, ref_lon=cfg.eval.ref_lon)
    ego_t, ego_x, ego_y, ego_psi = ev.read_ego_csv(args.ego)
    result = ev.evaluate_detections(
        est_rows, gt_t, gt_x, gt_y, ego_t, ego_x, ego_y, ego_psi,
        gate=cfg.eval.gate,
        lever_arm=(cfg.eval.lever_arm_x, cfg.eval.lever_arm_y),
        total_frames=args.total_frames,
    )
    ev.write_offset_stats_csv(out / "offset_stats.csv", result)
    ev.write_dimension_stats_csv(out / "dimension_stats.csv", result.dimensions)
    ev.write_comparison_csv(out / "comparison.csv", result)
    lon, lat = result.longitudinal, result.lateral
    print(f"longitudinal delta={lon.mean_offset:.3f} sigma={lon.std:.3f}")
    print(f"lateral      delta={lat.mean_offset:.3f} sigma={lat.std:.3f}")
    print(f"availability {lon.availability:.3f}; wrote metrics to {out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    report = bench(cfg, args.frames, seed=args.seed or 0)
    print(report.table())
    path = out / "bench.csv"
    ev.write_csv(path, ["stage", "mean_ms", "p95_ms"],
                 [[stage, repr(mean_ms), repr(p95_ms)] for stage, mean_ms, p95_ms in report.rows]
                 + [["achieved_hz", repr(report.achieved_hz), ""]])
    print(f"wrote {path}")
    return 0


def cmd_bev_export(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    count = 0
    for frame in _input_frames(args, cfg):
        _, _, levelled = front_half(frame, cfg)
        channels = extract_channels(levelled, cfg.bev)
        channels.save(out / f"frame_{frame.frame_id:04d}.bev")
        count += 1
    print(f"wrote {count} channel images to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidargrid",
        description="Projection-based LiDAR obstacle detection and evaluation.",
    )
    parser.add_argument("--dump-default-config", action="store_true",
                        help="print the commented default config and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, pipeline=True):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="override RNG seeds")
        p.add_argument("--out-dir", default="out", help="output directory")
        if pipeline:
            p.add_argument("--pipeline", choices=["geometric", "bev"],
                           help="override the configured pipeline")

    p = sub.add_parser("detect", help="run detection over frames")
    common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="directory of ASCII .pcd frames")
    src.add_argument("--synth", type=int, metavar="N",
                     help="generate N synthetic frames instead")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("synth", help="write synthetic PCD frames + ground truth")
    common(p, pipeline=False)
    p.add_argument("--frames", type=int, default=10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score estimates against ground truth")
    common(p, pipeline=False)
    p.add_argument("--estimates", required=True, help="obstacles CSV")
    p.add_argument("--ground-truth", required=True, help="t,lat,lon or t,X,Y CSV")
    p.add_argument("--ego", required=True, help="t,X,Y,psi CSV")
    p.add_argument("--total-frames", type=int,
                   help="denominator for availability (default: frame-id span)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency benchmark on synthetic frames")
    common(p)
    p.add_argument("--frames", type=int, default=20)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bev-export", help="write binary channel images")
    common(p, pipeline=False)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="directory of ASCII .pcd frames")
    src.add_argument("--synth", type=int, metavar="N")
    p.set_defaults(func=cmd_bev_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_default_config:
        print(default_config_yaml(), end="")
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except LidarGridError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a grid or raster too large to allocate
        print(f"error[memory]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
