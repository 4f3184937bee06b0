"""Outside-in tracing of lidargrid's layers.

Each traced function is replaced, for the length of a traced pass, by a
wrapper installed at the place where its caller looks the name up: a
module imported with ``from .cluster import label_components`` holds its
own reference, so ``lidargrid.pipeline.label_components`` is wrapped and
not ``lidargrid.cluster.label_components``.  The package itself is not
changed on disk and no wrapper stays installed after the pass.

A call records one span: name, start, end, parent span, frame id and the
counts read off its arguments and return value.  Spans stay in memory
until the benchmark writes them out at the end.  A span's self time is
its duration minus the time its children took; the calls are nested on
one thread, so the children never overlap.  Counts are computed after a
call returns, and that cost is charged neither to the call nor to its
caller: it is reported on its own as ``trace.count_ms``, so that the
self times of all spans plus the counting cost add up to the time the
outermost calls took.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import lidargrid
import lidargrid.bev
import lidargrid.cli
import lidargrid.evaluate
import lidargrid.pcd
import lidargrid.pipeline


def _dropped(args, kwargs, result):
    return {"points_dropped": result.dropped_points}


def _inlier_ratio(args, kwargs, result):
    return {"inlier_ratio": result.inlier_ratio}


def _grid_cells(args, kwargs, result):
    return {"occupied_cells": int(result.cells.sum())}


def _components(args, kwargs, result):
    return {"components": result.num_components}


def _bev_cells(args, kwargs, result):
    return {"occupied_cells": int(result.plane("occupancy").sum())}


def _clusters(args, kwargs, result):
    return {"clusters": len(result)}


def _kept(args, kwargs, result):
    return {"kept": len(result)}


def _obstacles(args, kwargs, result):
    return {"obstacles": len(result.obstacles)}


def _bytes_read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[1])}


# (module, attribute looked up by the caller, span name, count function)
SITES = (
    (lidargrid.pipeline, "validate_frame", "core.validate_frame", _dropped),
    (lidargrid.pcd, "validate_frame", "core.validate_frame", _dropped),
    (lidargrid.pipeline, "fit_plane_ransac", "ground.fit_plane_ransac", _inlier_ratio),
    (lidargrid.pipeline, "split_ground", "ground.split_ground", None),
    (lidargrid.pipeline, "project_to_grid", "grid.project_to_grid", None),
    (lidargrid.pipeline, "occupancy_from_counts", "grid.occupancy_from_counts", None),
    (lidargrid.pipeline, "morph_open_close", "grid.morph_open_close", _grid_cells),
    (lidargrid.pipeline, "label_components", "cluster.label_components", _components),
    (lidargrid.bev, "label_components", "cluster.label_components", _components),
    (lidargrid.pipeline, "extract_obstacles", "cluster.extract_obstacles", None),
    (lidargrid.bev, "extract_channels", "bev.extract_channels", _bev_cells),
    (lidargrid.bev, "height_gap_detector", "bev.height_gap_detector", None),
    (lidargrid.bev, "cluster_output_grid", "bev.cluster_output_grid", _clusters),
    (lidargrid.bev, "postprocess_clusters", "bev.postprocess_clusters", _kept),
    (lidargrid.pipeline, "run_geometric", "pipeline.run_geometric", _obstacles),
    (lidargrid.pipeline, "run_bev", "pipeline.run_bev", _obstacles),
    (lidargrid.cli, "read_frame_pcd", "pcd.read_frame_pcd", _bytes_read),
    (lidargrid.cli, "write_frame_pcd", "pcd.write_frame_pcd", _bytes_written),
    (lidargrid, "generate_frame", "synth.generate_frame", None),
    (lidargrid.cli, "generate_frame", "synth.generate_frame", None),
    (lidargrid.evaluate, "write_obstacles_csv", "evaluate.write_obstacles_csv", None),
    (lidargrid.evaluate, "read_obstacles_csv", "evaluate.read_obstacles_csv", None),
    (lidargrid.evaluate, "evaluate_detections", "evaluate.evaluate_detections", None),
    (lidargrid.cli, "cmd_synth", "cli.cmd_synth", None),
    (lidargrid.cli, "cmd_detect", "cli.cmd_detect", None),
    (lidargrid.cli, "cmd_eval", "cli.cmd_eval", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))


def _frame_of(args, kwargs):
    """The frame id a call carries: a ``frame_id`` argument or a frame's id."""
    if "frame_id" in kwargs:
        return kwargs["frame_id"]
    if args:
        return getattr(args[0], "frame_id", None)
    return None


class Tracer:
    """Collects spans from the wrappers it installs.

    ``frame_base`` is added to every frame id a call carries, so that a
    workload that replays the same frames in several cycles or rounds
    gives each replay its own ids.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, frame, counts, count_seconds]
        self.count_seconds = 0.0
        self.frame_base = 0
        self._stack = []

    def _wrap(self, name, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _frame_of(args, kwargs)
            if frame is not None:
                frame += self.frame_base
            elif parent is not None:
                frame = spans[parent][4]
            span = [name, 0.0, 0.0, parent, frame, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
                span[6] = clock() - span[2]
                self.count_seconds += span[6]
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the length of the block, then restore it."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in SITES]
        try:
            for (module, attr, name, count), (_, _, fn) in zip(SITES, originals):
                setattr(module, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_seconds(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _, counting in self.spans:
            if parent is not None:
                child[parent] += end - start + counting
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, *_) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def total(self, name, key):
        return sum(span[5][key] for span in self.spans
                   if span[0] == name and span[5] is not None)

    def layer_metrics(self, frames):
        """Per-frame self times and counts over ``frames`` processed frames.

        ``synth.generate_frame.self_ms`` is per generated frame instead,
        because the stream workloads generate each input frame once and
        replay it many times.
        """
        per = 1.0 / max(frames, 1)
        self_seconds = self.self_seconds()
        out = {f"{name}.self_ms": 1e3 * seconds * per
               for name, seconds in self_seconds.items()}
        generated = self.calls("synth.generate_frame")
        out["synth.generate_frame.self_ms"] = (
            1e3 * self_seconds["synth.generate_frame"] / max(generated, 1))

        planes = self.calls("ground.fit_plane_ransac")
        components = self.total("cluster.label_components", "components")
        clusters = self.total("bev.cluster_output_grid", "clusters")
        obstacles = (self.total("pipeline.run_geometric", "obstacles")
                     + self.total("pipeline.run_bev", "obstacles"))
        out.update({
            "core.points_dropped": self.total("core.validate_frame", "points_dropped") * per,
            "ground.inlier_ratio": (self.total("ground.fit_plane_ransac", "inlier_ratio")
                                    / planes if planes else 0.0),
            "grid.occupied_cells": self.total("grid.morph_open_close", "occupied_cells") * per,
            "cluster.label_components.calls": self.calls("cluster.label_components") * per,
            "cluster.components": components * per,
            "cluster.kept_ratio": obstacles / components if components else 0.0,
            "bev.occupied_cells": self.total("bev.extract_channels", "occupied_cells") * per,
            "bev.clusters": clusters * per,
            "bev.kept_ratio": (self.total("bev.postprocess_clusters", "kept") / clusters
                               if clusters else 0.0),
            "pcd.bytes_read": self.total("pcd.read_frame_pcd", "bytes_read") * per,
            "pcd.bytes_written": self.total("pcd.write_frame_pcd", "bytes_written") * per,
            "trace.count_ms": 1e3 * self.count_seconds * per,
        })
        return out

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, frame, counts, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": start - t0, "end_s": end - t0,
                    "parent": parent, "frame": frame, "counts": counts,
                }) + "\n")
