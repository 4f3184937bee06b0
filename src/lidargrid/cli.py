"""Command-line front end.

Subcommands: detect (PCD dir or synthetic frames -> obstacles CSV), eval
(estimate/GT/ego CSVs -> metric CSVs), synth (scene -> PCD frames + GT),
bench (latency report), bev-export (frames -> binary channel images).
Exit code 0 on success; module errors print a machine-readable category
to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import functools
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
        cfg = replace(cfg, ransac=replace(cfg.ransac, rng_seed=args.seed),
                      synth=replace(cfg.synth, rng_seed=args.seed))
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {out}: {exc.strerror or exc}") from exc
    return out


def _frame_name(i: int, count: int, suffix: str) -> str:
    """Frame ``i`` of ``count``, padded to the last index (4 digits or more) to sort in order."""
    return f"frame_{i:0{max(4, len(str(count - 1)))}d}{suffix}"


def _synth_run(cfg: PipelineConfig, count: int):
    """Frame i of the synthetic run: seed ``rng_seed + i``, id i, time ``i / FRAME_RATE_HZ``."""
    for i in range(count):
        spec = replace(cfg.synth, rng_seed=cfg.synth.rng_seed + i)
        yield generate_frame(spec, frame_id=i, timestamp=i / FRAME_RATE_HZ).frame


def _input_frames(args, cfg: PipelineConfig):
    """(count, lazy frames) from a PCD directory or the synthetic run."""
    if args.input is None:
        return args.synth, _synth_run(cfg, args.synth)
    paths = sorted(Path(args.input).glob("*.pcd"))
    if not paths:
        raise InputError(f"no .pcd files in {args.input}")
    return len(paths), (read_frame_pcd(path, frame_id=i, timestamp=i / FRAME_RATE_HZ)
                        for i, path in enumerate(paths))


def cmd_detect(args, cfg: PipelineConfig, out: Path) -> int:
    rows = []
    for frame in _input_frames(args, cfg)[1]:
        result = run_pipeline(frame, cfg)
        for est in result.obstacles:
            rows.append((frame.frame_id, frame.timestamp, est))
    path = out / "obstacles.csv"
    ev.write_obstacles_csv(path, rows)
    print(f"wrote {path} ({len(rows)} obstacles)")
    return 0


def cmd_synth(args, cfg: PipelineConfig, out: Path) -> int:
    if not cfg.synth.obstacles:
        print("note: synth scene has no obstacles; gt.csv will be empty",
              file=sys.stderr)
    times = []
    for i, frame in enumerate(_synth_run(cfg, args.frames)):
        write_frame_pcd(frame, out / _frame_name(i, args.frames, ".pcd"))
        times.append(frame.timestamp)
    ev.write_csv(out / "gt.csv", ["t", "X", "Y"],
                 [[t, box.center_x, box.center_y]
                  for t in times for box in cfg.synth.obstacles[:1]])
    ev.write_csv(out / "ego.csv", ["t", "X", "Y", "psi"], [[t, 0.0, 0.0, 0.0] for t in times])
    print(f"wrote {args.frames} frames + gt.csv + ego.csv to {out}")
    return 0


def cmd_eval(args, cfg: PipelineConfig, out: Path) -> int:
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
    ev.write_eval_csvs(out, result)
    lon, lat = result.longitudinal, result.lateral
    print(f"longitudinal delta={lon.mean_offset:.3f} sigma={lon.std:.3f}")
    print(f"lateral      delta={lat.mean_offset:.3f} sigma={lat.std:.3f}")
    print(f"availability {lon.availability:.3f}; wrote metrics to {out}")
    return 0


def cmd_bench(args, cfg: PipelineConfig, out: Path) -> int:
    report = bench(cfg, args.frames, seed=cfg.synth.rng_seed)
    print(report.table())
    path = out / "bench.csv"
    ev.write_csv(path, ["stage", "mean_ms", "p95_ms"],
                 report.rows + [("achieved_hz", report.achieved_hz, None)])
    print(f"wrote {path}")
    return 0


def cmd_bev_export(args, cfg: PipelineConfig, out: Path) -> int:
    count, frames = _input_frames(args, cfg)
    for i, frame in enumerate(frames):
        _, _, levelled = front_half(frame, cfg)
        channels = extract_channels(levelled, cfg.bev)
        channels.save(out / _frame_name(i, count, ".bev"))
    print(f"wrote {count} channel images to {out}")
    return 0


@functools.cache  # ~1 ms a build; the parser keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidargrid",
        description="Projection-based LiDAR obstacle detection and evaluation.",
    )
    parser.add_argument("--dump-default-config", action="store_true",
                        help="print the commented default config and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, pipeline=True, frames=False, seed=True):
        p.add_argument("--config", help="YAML config file")
        if seed:
            p.add_argument("--seed", type=int, help="override RNG seeds")
        p.add_argument("--out-dir", default="out", help="output directory")
        if pipeline:
            p.add_argument("--pipeline", choices=["geometric", "bev"],
                           help="override the configured pipeline")
        if frames:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--input", help="directory of .pcd frames, ASCII or binary")
            src.add_argument("--synth", type=int, metavar="N",
                             help="generate N synthetic frames instead")

    p = sub.add_parser("detect", help="run detection over frames")
    common(p, frames=True)

    p = sub.add_parser("synth", help="write synthetic PCD frames + ground truth")
    common(p, pipeline=False)
    p.add_argument("--frames", type=int, default=10)

    p = sub.add_parser("eval", help="score estimates against ground truth")
    common(p, pipeline=False, seed=False)  # scoring draws no random number
    p.add_argument("--estimates", required=True, help="obstacles CSV")
    p.add_argument("--ground-truth", required=True, help="t,lat,lon or t,X,Y CSV")
    p.add_argument("--ego", required=True, help="t,X,Y,psi CSV")
    p.add_argument("--total-frames", type=int,
                   help="denominator for availability (default: frame-id span)")

    p = sub.add_parser("bench", help="latency benchmark on synthetic frames")
    common(p)
    p.add_argument("--frames", type=int, default=20)

    p = sub.add_parser("bev-export", help="write binary channel images")
    common(p, pipeline=False, frames=True)

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
        # looked up at each call, so that a wrapper set on this module is the one run
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, _load_cfg(args), _out_dir(args))
    except LidarGridError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a grid or raster too large to allocate
        print(f"error[memory]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an output file that cannot be written
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
