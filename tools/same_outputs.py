"""Check that the working tree gives the same outputs as a git revision.

    python tools/same_outputs.py REV [--all]

REV is checked out with ``git worktree add`` into a temporary directory
(removed afterwards).  Each tree then makes one fixed set of outputs in a
Python process of its own, with that tree's ``src`` on the path:

- the ground plane and the obstacles of both routes on the 90 drive-mix
  frames (the bench scene, seeds 5000-5089, ground slope cycling 0, 2 and
  4 degrees), as hex floats;
- the generator's frames, points and labels as one SHA-256 each, for 60
  random scenes of 1-6 yawed boxes and for one 64-beam, 0.1 degree frame
  with a box over the sensor.  Each box after the first lies, by a coin
  toss, within 40 m of the sensor or within 4 m of the box before it (in
  x and in y); the ground slope cycles as above.  Each scene runs at
  two seeds in a row, so the second frame reuses its ground table;
- under the default config and under ``perfbench/pcd_replay.yaml`` (this
  tree's copy, for both sides): ``synth --frames 3``, ``detect --input``
  and ``detect --synth 4`` on both routes, ``eval`` of the geometric
  detections, and ``bev-export --synth 2``: every output file byte for
  byte, and each command's exit status and printed lines;
- three drive-mix frames with intensity scaled by 255 and one NaN record
  appended, the first as ASCII PCD and the others binary, through
  ``detect --input`` on both routes and ``bev-export --input`` (whose
  intensity planes show the normalization), compared as the CLI runs are.

It prints one line per item: ``same``, or the first difference.  A
drive-mix item that differs also says how many frames differ and the
largest change, each with its frame: in the plane's normal and offset,
or an obstacle's centre move and its change in length, width and
height.  ``--all`` lists every differing frame.  The exit status
is 1 when any item differs.  Both sides run on one host with one numpy,
so they compare bit for bit and no stored digest is needed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRAMES, FIRST_SEED, SLOPES_DEG = 90, 5000, (0.0, 2.0, 4.0)
SCENES, SCENE_DRAW_SEED = 60, 6000
CONFIGS = {"default": None, "pcd_replay": ROOT / "perfbench" / "pcd_replay.yaml"}
ROUTES = ("geometric", "bev")
OBSTACLE_FIELDS = ("center_x", "center_y", "length", "width", "height", "confidence")
NAN_ITEM, NAN_FRAMES = "nan-8bit", 3
NAN_STEPS = [*(["detect", "--input", "frames", "--pipeline", route, "--out-dir", f"detect-{route}"]
               for route in ROUTES),
             ["bev-export", "--input", "frames", "--out-dir", "bev-export"]]


def cli_steps(config):
    """(item, argv) of the CLI runs under one config, in order."""
    cfg = ["--config", str(config)] if config else []
    steps = [("synth", ["synth", "--frames", "3", "--out-dir", "synth"])]
    for route in ROUTES:
        steps.append((f"detect --input {route}", ["detect", "--input", "synth",
                                                  "--pipeline", route, "--out-dir", f"input-{route}"]))
        steps.append((f"detect --synth {route}", ["detect", "--synth", "4",
                                                  "--pipeline", route, "--out-dir", f"synth-{route}"]))
    steps.append(("eval", ["eval", "--estimates", "input-geometric/obstacles.csv",
                           "--ground-truth", "synth/gt.csv", "--ego", "synth/ego.csv",
                           "--out-dir", "eval"]))
    steps.append(("bev-export", ["bev-export", "--synth", "2", "--out-dir", "bev-export"]))
    return [(item, argv + cfg) for item, argv in steps]


def generator_scenes():
    """(name, SceneSpec) of the generator item, in the order they run."""
    import numpy as np

    from lidargrid.synth import BoxSpec, SceneSpec

    rng = np.random.default_rng(SCENE_DRAW_SEED)
    for k in range(SCENES):
        boxes, (x, y) = [], rng.uniform(-40.0, 40.0, 2)
        for _ in range(rng.integers(1, 7)):
            boxes.append(BoxSpec(center_x=float(x), center_y=float(y),
                                 length=float(rng.uniform(1.0, 8.0)),
                                 width=float(rng.uniform(0.5, 3.0)),
                                 height=float(rng.uniform(0.5, 3.0)),
                                 yaw=float(rng.uniform(-math.pi, math.pi)),
                                 clearance=float(rng.uniform(0.0, 0.5))))
            if rng.random() < 0.5:  # the next box near this one
                x, y = np.array([x, y]) + rng.uniform(-4.0, 4.0, 2)
            else:
                x, y = rng.uniform(-40.0, 40.0, 2)
        slope = math.radians(SLOPES_DEG[k % len(SLOPES_DEG)])
        for seed in (2 * k, 2 * k + 1):
            yield f"scene {k} seed {seed}", SceneSpec(obstacles=tuple(boxes), ground_slope=slope,
                                                      rng_seed=seed)
    over = BoxSpec(center_x=0.5, center_y=-0.3, length=6.0, width=3.0, height=1.0,
                   yaw=0.3, clearance=2.5)  # a roof over the sensor, 0.7-1.7 m above it
    yield "64-beam frame", SceneSpec(beam_count=64, azimuth_resolution_deg=0.1,
                                     obstacles=(over, BoxSpec(center_x=10.05, center_y=0.15)))


def write_nan_frames(frames: Path) -> None:
    """The NaN item's input: drive-mix frames with 8-bit intensity and a
    NaN record.  The package's writer is not used, so that both trees
    read the same bytes."""
    import numpy as np

    from lidargrid.pipeline import bench_scene
    from lidargrid.synth import generate_frame

    frames.mkdir(parents=True)
    for i in range(NAN_FRAMES):
        rows = generate_frame(bench_scene(FIRST_SEED + i)).frame.points * [1.0, 1.0, 1.0, 255.0]
        rows = np.vstack([rows, [np.nan, 1.0, 2.0, 3.0]])
        data = "ascii" if i == 0 else "binary"
        header = (f"VERSION 0.7\nFIELDS x y z intensity\nSIZE 8 8 8 8\nTYPE F F F F\n"
                  f"COUNT 1 1 1 1\nWIDTH {len(rows)}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                  f"POINTS {len(rows)}\nDATA {data}\n").encode()
        body = ("".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist()).encode()
                if data == "ascii" else np.ascontiguousarray(rows, "<f8").tobytes())
        (frames / f"frame_{i:04d}.pcd").write_bytes(header + body)


def run_cli(work: Path, argv) -> None:
    """Run one CLI command in ``work``; log its exit status and printed
    lines in its output directory."""
    from lidargrid.cli import main

    os.chdir(work)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    log = work / argv[argv.index("--out-dir") + 1] / "_log.txt"
    log.parent.mkdir(exist_ok=True)
    log.write_text(f"exit {code}\n{printed.getvalue()}")


def emit(out: Path, src: Path) -> None:
    """Make the output set with the package under ``src``: ``drive.json``,
    ``generator.json``, one directory per config and CLI step and the NaN
    item's directory under ``out``."""
    from dataclasses import replace

    import lidargrid
    from lidargrid.config import PipelineConfig
    from lidargrid.pipeline import bench_scene, run_bev, run_geometric
    from lidargrid.synth import generate_frame

    if not Path(lidargrid.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"imported {lidargrid.__file__}, not the package under {src}")
    cfg = PipelineConfig()
    drive = {"planes": [], **{route: [] for route in ROUTES}}
    for i in range(FRAMES):
        scene = replace(bench_scene(FIRST_SEED + i),
                        ground_slope=math.radians(SLOPES_DEG[i % len(SLOPES_DEG)]))
        frame = generate_frame(scene).frame
        results = [run(frame, cfg) for run in (run_geometric, run_bev)]
        for route, result in zip(ROUTES, results):
            drive[route].append([[float(getattr(o, name) or 0.0).hex() for name in OBSTACLE_FIELDS]
                                 + [o.class_tag] for o in result.obstacles])
        plane = results[0].plane  # both routes share the front half
        drive["planes"].append([float(v).hex() for v in (*plane.normal, plane.offset)]
                               + [plane.inlier_count])
    (out / "drive.json").write_text(json.dumps(drive))
    digests = []
    for name, scene in generator_scenes():
        labeled = generate_frame(scene)
        digest = hashlib.sha256(labeled.frame.points.tobytes())
        digest.update(labeled.labels.tobytes())
        digests.append([name, len(labeled.labels), digest.hexdigest()])
    (out / "generator.json").write_text(json.dumps(digests))
    for name, config in CONFIGS.items():
        work = out / name
        work.mkdir()
        for _, argv in cli_steps(config):
            run_cli(work, argv)
    write_nan_frames(out / NAN_ITEM / "frames")
    for argv in NAN_STEPS:
        run_cli(out / NAN_ITEM, argv)


def run_tree(tree: Path, out: Path) -> None:
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, "--emit", str(out), str(tree / "src")],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def plane_change(old, new):
    """(angle in degrees, offset change in m) between two plane rows."""
    a, b = [float.fromhex(v) for v in old[:4]], [float.fromhex(v) for v in new[:4]]
    cos = min(1.0, abs(sum(x * y for x, y in zip(a[:3], b[:3]))))
    return math.degrees(math.acos(cos)), abs(a[3] - b[3])


def describe_obstacles(old, new):
    """What changed in one frame's obstacle list."""
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} obstacles"
    changes = []
    for k, (o, n) in enumerate(zip(old, new)):
        if o == n:
            continue
        a, b = [float.fromhex(v) for v in o[:-1]], [float.fromhex(v) for v in n[:-1]]
        parts = [f"moved {1e3 * math.hypot(b[0] - a[0], b[1] - a[1]):.3g} mm"] \
            if a[:2] != b[:2] else []
        parts += [f"{name} {x:.4g} -> {y:.4g}"
                  for name, x, y in zip(OBSTACLE_FIELDS[2:], a[2:], b[2:]) if x != y]
        parts += [f"class {o[-1]} -> {n[-1]}"] if o[-1] != n[-1] else []
        changes.append(f"obstacle {k} at ({a[0]:.3f}, {a[1]:.3f}): {', '.join(parts)}")
    return "; ".join(changes)


def largest_obstacle_changes(old, new, differ):
    """The largest centre move and change in length, width and height over
    the frames ``differ`` whose obstacle counts match, each with its frame."""
    best = {}  # name -> (size, text, frame index)
    for i in differ:
        if len(old[i]) != len(new[i]):
            continue
        for o, n in zip(old[i], new[i]):
            a, b = [float.fromhex(v) for v in o[:-1]], [float.fromhex(v) for v in n[:-1]]
            move = math.hypot(b[0] - a[0], b[1] - a[1])
            found = [("move", move, f"move {1e3 * move:.3g} mm")]
            found += [(name, abs(y - x), f"{name} {x:.4g} -> {y:.4g} m")
                      for name, x, y in zip(OBSTACLE_FIELDS[2:5], a[2:5], b[2:5])]
            for name, size, text in found:
                if size and size >= best.get(name, (0.0,))[0]:  # ties: the last
                    best[name] = (size, text, i)
    return [f"{best[name][1]} (frame {FIRST_SEED + best[name][2]})"
            for name in ("move", *OBSTACLE_FIELDS[2:5]) if name in best]


def compare_drive(name, old, new, show_all):
    """Report lines for one drive-mix item."""
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    label = name if name == "planes" else f"{name} obstacles"
    if not differ:
        return [f"drive-mix {label}: same"], True
    if name == "planes":
        changes = {i: plane_change(old[i], new[i]) for i in differ}
        angle = max(c[0] for c in changes.values())
        offset = max(c[1] for c in changes.values())
        lines = [f"drive-mix planes: {len(differ)} of {len(old)} frames differ, first frame "
                 f"{FIRST_SEED + differ[0]}; largest change {angle:.4f} deg in the normal, "
                 f"{1e3 * offset:.2f} mm in the offset"]
        detail = {i: f"{c[0]:.4f} deg, {1e3 * c[1]:.2f} mm" for i, c in changes.items()}
    else:
        detail = {i: describe_obstacles(old[i], new[i]) for i in differ}
        recounted = sum(len(old[i]) != len(new[i]) for i in differ)
        largest = largest_obstacle_changes(old, new, differ)
        summary = [f"largest change {', '.join(largest)}"] if largest else []
        summary += [f"the obstacle count changes in {recounted} of them"] if recounted else []
        lines = [f"drive-mix {label}: {len(differ)} of {len(old)} frames differ, first frame "
                 f"{FIRST_SEED + differ[0]}; "
                 f"{'; '.join(summary) or detail[differ[0]]}"]
    if show_all:
        lines += [f"  frame {FIRST_SEED + i}: {detail[i]}" for i in differ]
    return lines, False


def first_file_difference(old: Path, new: Path):
    """None when two output directories hold the same files with the same
    bytes, else a description of the first difference."""
    old_files = sorted(p.relative_to(old) for p in old.rglob("*") if p.is_file())
    new_files = sorted(p.relative_to(new) for p in new.rglob("*") if p.is_file())
    if old_files != new_files:
        return f"files {[str(p) for p in old_files]} -> {[str(p) for p in new_files]}"
    for rel in old_files:
        a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
        if a == b:
            continue
        if rel.suffix != ".bev":
            for k, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
                if la != lb:
                    return f"{rel} line {k}: {la.decode()!r} -> {lb.decode()!r}"
            return f"{rel}: {len(a.splitlines())} -> {len(b.splitlines())} lines"
        at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"{rel}: first differing byte at offset {at} of {len(a)} -> {len(b)}"
    return None


def compare(old: Path, new: Path, show_all: bool):
    lines, same = [], True
    old_drive = json.loads((old / "drive.json").read_text())
    new_drive = json.loads((new / "drive.json").read_text())
    for name in ("planes", *ROUTES):
        out, ok = compare_drive(name, old_drive[name], new_drive[name], show_all)
        lines += out
        same &= ok
    old_gen = json.loads((old / "generator.json").read_text())
    new_gen = json.loads((new / "generator.json").read_text())
    differ = [(a, b) for a, b in zip(old_gen, new_gen) if a != b]
    if differ:
        (name, n_old, _), (_, n_new, _) = differ[0]
        lines.append(f"generator frames: {len(differ)} of {len(old_gen)} differ, first "
                     f"{name} ({n_old} -> {n_new} points)")
    else:
        lines.append("generator frames: same")
    same &= not differ
    for name, config in CONFIGS.items():
        for item, argv in cli_steps(config):
            out_dir = argv[argv.index("--out-dir") + 1]
            diff = first_file_difference(old / name / out_dir, new / name / out_dir)
            lines.append(f"{name} {item}: {diff or 'same'}")
            same &= diff is None
    diff = first_file_difference(old / NAN_ITEM, new / NAN_ITEM)
    lines.append(f"NaN-record 8-bit frames, detect and bev-export --input: {diff or 'same'}")
    return lines, same and diff is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--all", action="store_true", help="list every differing drive-mix frame")
    parser.add_argument("--emit", nargs=2, metavar=("OUT", "SRC"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(Path(args.emit[0]), Path(args.emit[1]))
        return 0
    if not args.rev:
        parser.error("give a revision")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        tree = tmp / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.rev], check=True)
        try:
            run_tree(tree, tmp / "old")
            run_tree(ROOT, tmp / "new")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        lines, same = compare(tmp / "old", tmp / "new", args.all)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
