"""lidargrid's benchmark runner.

    python3 perfbench/run.py --workload geometric-stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workloads, and why each exists, are in
``workloads.py``.  With ``--trace 0`` the run measures the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it splits its time
between an untraced pass and a traced one and reports the per-layer
metrics, the tracing overhead among them.

Standard output ends with two JSON lines: a detail record (environment,
oracle checks, output digest, sample counts) and then the result:
``{"correct", "attempted", "failed", "metrics"}``.  The detail record
and the spans of a traced run are also written to ``.perfbench_out/``.

Exits 1 without a result when the package or ``BENCHMARK.json`` cannot be
found, or when a run yields other metrics than ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# numpy's BLAS would otherwise start a thread per core, and the RANSAC
# inlier count is a matrix product; one thread keeps both commits of a
# comparison on the same footing on a shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import lidargrid from the checkout's sources; returns seconds spent."""
    if not (SRC / "lidargrid" / "__init__.py").is_file():
        raise SystemExit(f"error: no lidargrid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    start = time.perf_counter()
    import lidargrid
    import lidargrid.cli  # noqa: F401  (the CLI is part of the measured import)
    spent = time.perf_counter() - start
    if Path(lidargrid.__file__).resolve().parent != SRC / "lidargrid":
        raise SystemExit(f"error: lidargrid imported from {lidargrid.__file__}")
    return spent


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} not found")
    with open(path) as fh:
        return json.load(fh)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """A hash of the package sources, for checkouts that carry no .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lidargrid").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, size):
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stream_frames": size.stream_frames,
        "warmup_frames": size.warmup_frames,
        "replay_frames": size.replay_frames,
        "replay_warmup_frames": size.replay_warmup_frames,
        "setup_reps": size.setup_reps,
    }


def result_record(spec, trace, correct, attempted, failed, metrics):
    """The result line; the metric names must be exactly those of the spec."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    pin_threads()
    spec = load_spec()
    import_seconds = import_package()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    size = workloads.Size()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        correct, attempted, failed, metrics, detail = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, size, str(work_dir),
            import_seconds, spans_path=OUT / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record = result_record(spec, args.trace, correct, attempted, failed, metrics)
    detail["environment"] = environment(args, size)
    detail["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
