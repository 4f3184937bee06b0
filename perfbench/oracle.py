"""Correctness oracle: detections against the truth boxes of each scene."""

from __future__ import annotations

import hashlib
import math

# Criterion 3: a truth box is found when a detection's centre lies within
# this distance of the box centre.
MATCH_RADIUS_M = 0.45


def match_frame(detections, truth):
    """Match detections one to one with truth boxes by centre distance.

    Returns (truth boxes matched, detections matching no truth box).
    Pairs are taken nearest first.  Truth boxes in a scene stand further
    apart than twice the radius, so no detection can match two of them and
    nearest-first gives the largest matching.
    """
    pairs = sorted(
        (math.hypot(d.center_x - t.center_x, d.center_y - t.center_y), i, j)
        for i, d in enumerate(detections) for j, t in enumerate(truth))
    used_det, used_truth = set(), set()
    for dist, i, j in pairs:
        if dist > MATCH_RADIUS_M:
            break
        if i not in used_det and j not in used_truth:
            used_det.add(i)
            used_truth.add(j)
    return len(used_truth), len(detections) - len(used_det)


class Score:
    """Running recall and false-detection totals over frames."""

    def __init__(self):
        self.frames = 0
        self.truth = 0
        self.found = 0
        self.false = 0
        self.detections = 0

    def add(self, detections, truth):
        found, false = match_frame(detections, truth)
        self.frames += 1
        self.truth += len(truth)
        self.found += found
        self.false += false
        self.detections += len(detections)

    @property
    def recall(self):
        return self.found / self.truth if self.truth else 0.0

    @property
    def precision(self):
        return (self.detections - self.false) / self.detections if self.detections else 0.0

    @property
    def false_per_frame(self):
        return self.false / self.frames if self.frames else 0.0


def obstacle_digest(obstacles) -> str:
    """A hash of every field of every obstacle, in output order."""
    h = hashlib.sha256()
    for o in obstacles:
        h.update(repr((o.center_x, o.center_y, o.length, o.width, o.height,
                       o.confidence, o.class_tag, o.range)).encode())
    return h.hexdigest()
