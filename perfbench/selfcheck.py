"""Self-check of the benchmark itself; exits 0 when every check passes.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, traced and untraced, and checks the
result schema, that the metric names and units are exactly those of
``BENCHMARK.json``, that a traced run's self times add up to its frame
time, that the oracle catches a dropped obstacle and an injected false
one, how the speed gauge splits and scales an interval, and that the
runner fails without a result when the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

TINY = dict(stream_frames=3, warmup_frames=1, replay_frames=2,
            replay_warmup_frames=1, setup_reps=1)

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_record(record, section, name, trace):
    expect(set(record) == {"correct", "attempted", "failed", "metrics"},
           f"{name} trace={trace}: result keys")
    expect(record["correct"] is True, f"{name} trace={trace}: outputs correct")
    expect(isinstance(record["attempted"], int) and record["attempted"] >= 1
           and record["failed"] == 0, f"{name} trace={trace}: attempted >= 1, none failed")
    units = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    expect(got == units, f"{name} trace={trace}: metric names and units match BENCHMARK.json")
    expect(all(set(v) == {"value", "unit"} and isinstance(v["value"], float)
               for v in record["metrics"].values()),
           f"{name} trace={trace}: every metric is a number with a unit")


def check_workloads(spec):
    import workloads

    size = workloads.Size(**TINY)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                correct, attempted, failed, metrics, detail = workloads.run(
                    name, seed=5, seconds=0.0, trace=trace, size=size,
                    work_dir=work, import_seconds=0.0)
            section = spec["per_layer"] if trace else spec["end_to_end"]
            record = run.result_record(spec, trace, correct, attempted, failed, metrics)
            check_record(json.loads(json.dumps(record)), section, name, trace)
            if trace:
                ratio = metrics["trace.self_sum_ratio"]
                expect(0.95 <= ratio <= 1.0 + 1e-9,
                       f"{name}: self times sum to the traced time ({ratio:.4f})")
            else:
                expect(metrics["recall"] == 1.0, f"{name}: recall 1.0")
                if name == "bev-stream":
                    expect(detail["oracle.false_obstacles_per_frame"] > 0,
                           f"{name}: the slope false positives are reported")
                else:
                    expect(detail["oracle.false_obstacles_per_frame"] == 0,
                           f"{name}: no false obstacles")


def check_oracle():
    import lidargrid
    from lidargrid.pipeline import bench_scene

    import oracle

    truth = lidargrid.expected_obstacles(bench_scene(0))
    found, false = oracle.match_frame(truth, truth)
    expect((found, false) == (len(truth), 0), "oracle: the truth matches itself")
    found, false = oracle.match_frame(truth[1:], truth)
    expect((found, false) == (len(truth) - 1, 0), "oracle: a dropped obstacle lowers recall")
    moved = replace(truth[0], center_x=truth[0].center_x + 0.5, range=None)
    found, false = oracle.match_frame([moved] + truth[1:], truth)
    expect((found, false) == (len(truth) - 1, 1),
           "oracle: an obstacle 0.5 m off its box is both missed and false")
    ghost = replace(truth[0], center_x=-12.0, center_y=3.0, range=None)
    found, false = oracle.match_frame(truth + [ghost], truth)
    expect((found, false) == (len(truth), 1), "oracle: an injected false obstacle is counted")
    expect(oracle.obstacle_digest(truth) != oracle.obstacle_digest(truth[::-1]),
           "oracle: the digest sees a change in the output")


def check_gauge():
    import speed

    gauge = speed.Gauge(("points",))
    gauge.reference_s = 1.0
    # samples of 1 s from t=1 and 0.5 s from t=5
    gauge.starts, gauge.ends, gauge.seconds = [1.0, 5.0], [2.0, 5.5], [1.0, 0.5]
    expect(gauge.pieces(2.0, 7.0) == [(3.0, 1.0 / 0.75), (1.5, 2.0)],
           "gauge: a sample inside an interval is left out, each piece scaled by its neighbours")
    expect(gauge.pieces(0.0, 0.5) == [(0.5, 1.0)],
           "gauge: an interval before every sample takes the first one")


def check_replay_config():
    import lidargrid
    from lidargrid.pipeline import bench_scene

    import workloads

    cfg = lidargrid.load_config(workloads.REPLAY_CONFIG)
    bench = bench_scene(cfg.synth.rng_seed)
    expect(cfg.synth == bench, "pcd-replay config holds the flat bench scene")


def check_bare_directory():
    """In a directory without the package, the runner fails and prints no result."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "pcd-replay",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the package sources the runner exits non-zero, printing no result")


def main():
    run.pin_threads()
    spec = run.load_spec()
    run.import_package()
    run.OUT.mkdir(exist_ok=True)
    check_oracle()
    check_gauge()
    check_replay_config()
    check_bare_directory()
    check_workloads(spec)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
