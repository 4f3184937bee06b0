"""The benchmark's workloads, driven through lidargrid's public API and CLI.

Every workload is a closed loop on one thread: the next frame (in
pcd-replay, the next command) is sent only when the previous one has
returned.  lidargrid runs a frame start to finish on one thread and keeps
no queue between frames, so the closed-loop rate is the rate it can
sustain.  Whether it keeps up with the sensor shows by comparing each
frame's latency with the 50 ms period of a 20 Hz LiDAR; nothing sleeps
through a 20 Hz schedule.

A run sets up ``Size.setup_reps`` times, each set-up followed by its
share of the measuring, and reports the median set-up.  An untraced run
measures one untraced pass.  A traced run alternates untraced and traced
cycles (pcd-replay: rounds): the traced ones give the per-layer numbers,
the untraced ones the base of the tracing overhead.  End-to-end metrics
come only from untraced passes, with every time scaled to the reference
speed of ``speed.py`` by gauge samples taken beside it; the raw times go
to the detail record.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import lidargrid
import lidargrid.cli
import lidargrid.evaluate
from lidargrid.pipeline import bench_scene

from oracle import Score, obstacle_digest
from speed import Gauge
from tracing import Tracer

FRAME_PERIOD_S = 0.050  # a 20 Hz sensor sends a frame every 50 ms
SLOPES_DEG = (0.0, 2.0, 4.0)
REPLAY_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pcd_replay.yaml")

# Criterion 3: every truth box is found in every frame.  Both routes meet
# it on the drive mix and the flat bench scene.
RECALL_FLOOR = 1.0


@dataclass(frozen=True)
class Size:
    """How much work one run does; the self-check shrinks it."""

    stream_frames: int = 30  # distinct drive-mix frames, a multiple of the slopes
    warmup_frames: int = 6  # two of each slope
    replay_frames: int = 8  # frames per pcd-replay round
    replay_warmup_frames: int = 2
    setup_reps: int = 3


def drive_mix(seed: int, count: int):
    """The drive mix: the four-box bench scene, about 26.8k points a
    frame, with the ground slope cycling 0, 2 and 4 degrees.

    The sloped thirds keep the BEV route's slope defect in view: it takes
    one ground level for the whole scene, so each 4-degree frame yields
    about a hundred false obstacles.
    """
    return [replace(bench_scene(seed + i),
                    ground_slope=math.radians(SLOPES_DEG[i % len(SLOPES_DEG)]))
            for i in range(count)]


class Pass:
    """Timings and outcomes of one measured pass.

    Times are kept as intervals of the clock.  A pass with a gauge
    (``speed.py``) reads each at the reference speed, from the gauge
    samples taken next to it; the reported figures are plain percentiles
    and totals of those times over the whole pass.  Without a gauge, as
    in a traced run, times stay raw.
    """

    def __init__(self, gauge=None):
        self.gauge = gauge
        self.frame_spans = []  # (start, end) of each frame that succeeded
        self.rate_spans = {}  # rate metric -> [frames, [(start, end), ...]]
        self.frames = 0  # frames attempted
        self.rounds = 0
        self.wall = 0.0  # time spent in the timed operations
        self.gen_wall = 0.0  # time spent generating frames in a traced pass
        self.attempted = 0  # operations: frames, or CLI commands
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(f"{what}: {traceback.format_exc(limit=4)}")

    def sample(self):
        if self.gauge is not None:
            self.gauge.sample()

    def add_rate(self, name, frames, spans):
        """Book ``frames`` frames done in the intervals ``spans`` to a rate."""
        total = self.rate_spans.setdefault(name, [0, []])
        total[0] += frames
        total[1].extend(spans)

    def seconds(self, span, scaled=True):
        """An interval's time, less any gauge samples in it; at the
        reference speed when ``scaled``."""
        if self.gauge is None:
            return span[1] - span[0]
        return sum(t * (f if scaled else 1.0) for t, f in self.gauge.pieces(*span))

    def frame_seconds(self, scaled=True):
        return [self.seconds(span, scaled) for span in self.frame_spans]

    def rates(self, scaled=True):
        """Frames per second of each rate metric over the whole pass."""
        return {name: frames / sum(self.seconds(span, scaled) for span in spans)
                for name, (frames, spans) in self.rate_spans.items()}

    def budget_miss_ratio(self):
        """Share of frames over the sensor period, in raw time; a failed
        frame is a miss."""
        late = sum(t > FRAME_PERIOD_S for t in self.frame_seconds(scaled=False))
        return (late + self.frames - len(self.frame_spans)) / self.frames


class Workload:
    """What every workload keeps: its oracle score and output checks."""

    def __init__(self, seed: int, size: Size, gauge: Gauge):
        self.seed = seed
        self.size = size
        self.gauge = gauge  # its parts are like this workload's work
        self.checks = {}  # check -> passed on every occasion
        self.score = Score()
        self.digest = None  # of all obstacle output, from the first replay

    def check(self, name, passed):
        self.checks[name] = self.checks.get(name, True) and bool(passed)


class Stream(Workload):
    """``run_pipeline`` over in-memory drive-mix frames, in whole cycles."""

    def __init__(self, seed, size, gauge, route):
        super().__init__(seed, size, gauge)
        self.cfg = replace(lidargrid.PipelineConfig(), pipeline=route)
        self.frames = []
        self.traced_frames = []
        self.specs = []
        self.truth = []
        self.first_cycle = []  # digest of each frame's obstacles, first cycle

    def generate(self):
        """Record the drive mix into memory."""
        self.specs = drive_mix(self.seed, self.size.stream_frames)
        self.truth = [lidargrid.expected_obstacles(spec) for spec in self.specs]
        return [self.record(i) for i in range(len(self.specs))]

    def record(self, i):
        return lidargrid.generate_frame(
            self.specs[i], frame_id=i, timestamp=i * FRAME_PERIOD_S).frame

    def setup_once(self):
        self.cfg = replace(lidargrid.PipelineConfig(), pipeline=self.cfg.pipeline)
        self.frames = self.generate()
        for frame in self.frames[:self.size.warmup_frames]:
            lidargrid.run_pipeline(frame, self.cfg)

    def measure(self, p, until, tracer=None):
        """Replay the frames in whole cycles until the clock passes ``until``."""
        frames = self.frames
        if tracer is not None:
            if not self.traced_frames:
                start = time.perf_counter()
                self.traced_frames = self.generate()
                p.gen_wall = time.perf_counter() - start
            frames = self.traced_frames
        outputs = []
        # whole cycles, so that every pass holds the three slopes equally
        while not outputs or time.perf_counter() < until:
            if tracer is not None:
                tracer.frame_base = p.rounds * len(frames)
            cycle = []
            for frame in frames:
                t0 = time.perf_counter()
                try:
                    obstacles = lidargrid.run_pipeline(frame, self.cfg).obstacles
                    cycle.append((t0, time.perf_counter()))
                except Exception:
                    obstacles = None
                    p.fail(f"frame {frame.frame_id}")
                outputs.append(obstacles)
                p.sample()
            p.rounds += 1
            p.frame_spans.extend(cycle)
            p.wall += sum(t1 - t0 for t0, t1 in cycle)
            # frames come from memory, so replaying them is the stream itself
            p.add_rate("frames_per_s", len(cycle), cycle)
            p.add_rate("replay_frames_per_s", len(cycle), cycle)
            if p.gauge is not None:
                # record input frames again after each cycle, one of each
                # slope, so that the recording rate is sampled through the
                # run like the others
                start = time.perf_counter()
                for k in range(len(SLOPES_DEG)):
                    self.record((p.rounds * len(SLOPES_DEG) + k) % len(frames))
                p.add_rate("record_frames_per_s", len(SLOPES_DEG),
                           [(start, time.perf_counter())])
                p.sample()
        p.frames += len(outputs)
        p.attempted += len(outputs)
        self.judge(outputs)

    def judge(self, outputs):
        """Score the first cycle; every later replay must repeat it exactly."""
        n = len(self.truth)
        digests = [None if out is None else obstacle_digest(out) for out in outputs]
        if self.digest is None:
            for out, truth in zip(outputs[:n], self.truth):
                self.score.add(out or [], truth)
            self.digest = obstacle_digest(o for out in outputs[:n] for o in out or [])
            self.first_cycle = digests[:n]
        self.check("replayed frames give identical obstacles",
                   all(d == self.first_cycle[i % n] for i, d in enumerate(digests)))


class PcdReplay(Workload):
    """The CLI round trip ``synth`` -> ``detect --input`` -> ``eval``."""

    def __init__(self, seed, size, gauge, work_dir):
        super().__init__(seed, size, gauge)
        self.scene_dir = os.path.join(work_dir, "scene")
        self.det_dir = os.path.join(work_dir, "det")
        self.metrics_dir = os.path.join(work_dir, "metrics")
        self.truth = []

    def setup_once(self):
        cfg = lidargrid.load_config(REPLAY_CONFIG)
        self.truth = lidargrid.expected_obstacles(cfg.synth)
        warm = Pass()
        if not self.round(self.size.replay_warmup_frames, warm, []):
            raise RuntimeError("pcd-replay warm-up failed:\n" + "\n".join(warm.errors))

    def cli(self, p, argv):
        """Run one CLI command, its output kept off the benchmark's stdout;
        returns whether it succeeded and the interval it took."""
        p.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = lidargrid.cli.main(argv)
        except Exception:
            code = None
            p.fail(argv[0])
        end = time.perf_counter()
        p.wall += end - start
        if code not in (0, None):
            p.failed += 1
            if len(p.errors) < 3:
                p.errors.append(f"{argv[0]} exited {code}")
        return code == 0, (start, end)

    def round(self, frames, p, marks):
        """One round trip of ``frames`` frames; True when every command succeeded.

        The gauge is sampled after each frame that ``synth`` writes and
        each that ``detect`` finishes, and around the round.
        """
        shutil.rmtree(self.scene_dir, ignore_errors=True)
        conf = ["--config", REPLAY_CONFIG]
        p.sample()
        with after_each("write_frame_pcd", p.sample):
            ok_synth, synth = self.cli(p, [
                "synth", *conf, "--seed", str(self.seed), "--frames", str(frames),
                "--out-dir", self.scene_dir])
        first = len(marks)
        ok_detect, detect = self.cli(p, [
            "detect", *conf, "--input", self.scene_dir, "--out-dir", self.det_dir])
        # a frame's replay latency runs from the previous frame's result
        # (after the gauge sample there), or for the first frame from the
        # start of detect, to the frame's result
        starts = [detect[0]] + [resume for _, resume in marks[first:-1]]
        p.frame_spans.extend(zip(starts, [done for done, _ in marks[first:]]))
        ok_eval, evaluation = self.cli(p, [
            "eval", *conf,
            "--estimates", os.path.join(self.det_dir, "obstacles.csv"),
            "--ground-truth", os.path.join(self.scene_dir, "gt.csv"),
            "--ego", os.path.join(self.scene_dir, "ego.csv"),
            "--total-frames", str(frames), "--out-dir", self.metrics_dir])
        p.sample()
        p.frames += frames
        p.rounds += 1
        p.add_rate("frames_per_s", frames, [synth, detect, evaluation])
        p.add_rate("replay_frames_per_s", frames, [detect])
        p.add_rate("record_frames_per_s", frames, [synth])
        return ok_synth and ok_detect and ok_eval

    def measure(self, p, until, tracer=None):
        """Make round trips until the clock passes ``until``."""
        n = self.size.replay_frames
        marks = []  # (result, resume) times of each frame leaving run_pipeline

        def mark():
            done = time.perf_counter()
            p.sample()
            marks.append((done, time.perf_counter()))

        rounds = p.rounds
        with after_each("run_pipeline", mark):
            while p.rounds == rounds or time.perf_counter() < until:
                if tracer is not None:
                    tracer.frame_base = p.rounds * n
                if self.round(n, p, marks):
                    self.judge_round(n, score=tracer is None)

    def judge_round(self, frames, score):
        path = os.path.join(self.det_dir, "obstacles.csv")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(self.metrics_dir, "offset_stats.csv"), newline="") as fh:
            availability = [float(row["availability"]) for row in csv.DictReader(fh)]
        self.check("eval reports availability 1.0", availability == [1.0, 1.0])
        if self.digest is None and score:
            by_frame = {i: [] for i in range(frames)}
            for frame_id, _, est in lidargrid.evaluate.read_obstacles_csv(path):
                by_frame[frame_id].append(est)
            for i in range(frames):
                self.score.add(by_frame[i], self.truth)
            self.digest = digest
        self.check("every round writes the same obstacles.csv",
                   self.digest is None or digest == self.digest)


@contextlib.contextmanager
def after_each(name, hook):
    """Call ``hook`` after each call the CLI makes to its function ``name``."""
    original = getattr(lidargrid.cli, name)

    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        hook()
        return result

    setattr(lidargrid.cli, name, hooked)
    try:
        yield
    finally:
        setattr(lidargrid.cli, name, original)


def make(name, seed, size, work_dir):
    # geometric-stream: the paper's main route.  Ground, grid and cluster
    # do the work (RANSAC, labeling the sparse 200x200 grid, validation);
    # the BEV and PCD layers are idle.  Each workload's gauge (speed.py)
    # is made of the parts that slow under host load as much as it does.
    if name == "geometric-stream":
        return Stream(seed, size, Gauge(("points", "large", "cells")), "geometric")
    # bev-stream: the same frames through the BEV route.  Channel
    # extraction and labeling the dense 672x672 mask dominate and the route
    # is over budget; ground and grid are idle.  A labeler change shows
    # differently here than on the sparse grid, and the sloped frames show
    # the slope defect, plus any cluster or post-process cost that grows
    # with the cluster count.
    if name == "bev-stream":
        return Stream(seed, size, Gauge(("large", "large", "points")), "bev")
    # pcd-replay: bound by I/O.  PCD writes sit beside PCD reads, so a
    # writer speed-up that slows the reader shows; it is also the only
    # workload that runs evaluate.  Frames are read back from the page
    # cache, so this measures parsing, not the disk.
    if name == "pcd-replay":
        return PcdReplay(seed, size, Gauge(("text", "points", "cells")), work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("geometric-stream", "bev-stream", "pcd-replay")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, size, work_dir, import_seconds, spans_path=None):
    """Run one workload; returns (correct, attempted, failed, metrics, detail)."""
    wl = make(name, seed, size, work_dir)
    gauge = wl.gauge
    untraced, traced, tracer = Pass(None if trace else gauge), Pass(), Tracer()
    passes = [untraced, traced] if trace else [untraced]
    # the import is read at the speed of the gauge sample right after it
    imported = time.perf_counter()
    untraced.sample()
    import_s = untraced.seconds((imported - import_seconds, imported))
    # The set-ups are spread over the run, each followed by its share of
    # the measuring, so that their median sees the same stretches of a
    # shared machine's load as the other figures do.
    setups = []
    for _ in range(size.setup_reps):
        start = time.perf_counter()
        wl.setup_once()
        setups.append((start, time.perf_counter()))
        untraced.sample()
        until = time.perf_counter() + seconds / size.setup_reps
        if not trace:
            wl.measure(untraced, until)
            continue
        # untraced and traced rounds alternate, so that both see the same load
        while True:
            wl.measure(untraced, 0)
            with tracer.installed():
                wl.measure(traced, 0, tracer)
            if time.perf_counter() >= until:
                break
    setup_s = import_s + statistics.median(untraced.seconds(span) for span in setups)
    outcome = {
        "run.budget_miss_ratio": untraced.budget_miss_ratio(),
        "run.error_ratio": untraced.failed / untraced.attempted,
        "oracle.false_obstacles_per_frame": wl.score.false_per_frame,
    }
    frame_ms = 1e3 * np.array(untraced.frame_seconds())
    raw_frame_ms = 1e3 * np.array(untraced.frame_seconds(scaled=False))
    if trace:
        metrics = tracer.layer_metrics(traced.frames)
        metrics.update(outcome)
        metrics["trace.overhead_ratio"] = ((traced.wall / traced.frames)
                                           / (untraced.wall / untraced.frames))
        metrics["trace.self_sum_ratio"] = (
            (sum(tracer.self_seconds().values()) + tracer.count_seconds)
            / (traced.wall + traced.gen_wall))
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = {
            "setup_s": setup_s,
            "frame_ms_p50": float(np.percentile(frame_ms, 50)),
            "frame_ms_p95": float(np.percentile(frame_ms, 95)),
            **untraced.rates(),
            "recall": wl.score.recall,
            "precision": wl.score.precision,
            "peak_rss_mb": peak_rss_mb(),
        }

    wl.check(f"recall >= {RECALL_FLOOR}", wl.score.recall >= RECALL_FLOOR)
    detail = {
        "workload": name,
        "frame_samples": len(untraced.frame_spans),
        # the same figures in raw time, as they went by on this host
        "frame_ms_p50_raw": float(np.percentile(raw_frame_ms, 50)),
        "frame_ms_p95_raw": float(np.percentile(raw_frame_ms, 95)),
        "rates_raw": untraced.rates(scaled=False),
        "setup_s_raw": import_seconds + statistics.median(b - a for a, b in setups),
        "import_s_raw": import_seconds,
        # reference seconds per raw second over all frames
        "speed_factor": float(frame_ms.sum() / raw_frame_ms.sum()),
        "frames": [p.frames for p in passes],
        "rounds": [p.rounds for p in passes],
        "recall": wl.score.recall,
        "truth_boxes": wl.score.truth,
        "detections": wl.score.detections,
        "obstacle_digest": wl.digest,
        "checks": wl.checks,
        "errors": [e for p in passes for e in p.errors],
        **outcome,
    }
    correct = all(wl.checks.values())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return correct, attempted, failed, metrics, detail
