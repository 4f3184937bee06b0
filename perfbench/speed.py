"""A gauge of the machine's momentary speed, for reading times at a fixed speed.

On a shared host the speed a process gets drifts by up to 1.7x over
seconds to minutes (other tenants' load on the same cores, caches and
memory), and the process's own CPU time drifts with it, so neither wall
nor CPU time of the program is steady from run to run.  The gauge times
fixed work that lidargrid does not touch, but which is like the work of
the workload at hand, between the program's own operations.  A stretch
of time measured between gauge samples that took ``g1`` and ``g2``
seconds is scaled by ``r / mean(g1, g2)``: it reads as it would on a
machine where the gauge takes ``r``, the reference time.  Both sides of
a comparison run the same gauge, so a change to lidargrid moves the
scaled time as it moves the raw time, while a drift of the host's speed
moves the gauge and the program alike and largely cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The reference time of one part of the gauge.  Any fixed value would
# do: it sets only the scale in which times read.  A part takes about
# this long on a quiet 2-core Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S_PER_PART = 0.001


class Gauge:
    """Times fixed work; ``pieces`` reads an interval at the reference speed.

    The work is made of parts of about a millisecond each, each like a
    kind of work lidargrid does:

    - ``points``: numpy passes over a frame-sized point array (ground, grid);
    - ``large``: passes over arrays too large for the core's own caches
      (the BEV channels and masks);
    - ``cells``: an interpreted loop that indexes a numpy grid cell by cell
      (the labelers);
    - ``text``: formatting and parsing numbers as text (PCD, CSV).

    Host load slows these kinds by different amounts (on the machine
    above, 1.25x for ``large`` against 1.8x for ``text``), so each
    workload names the parts that slow as much as it does.
    """

    def __init__(self, parts):
        rng = np.random.default_rng(12345)
        self.points = rng.normal(scale=10.0, size=(8000, 3))
        self.large = rng.normal(size=300_000)
        self.mask = rng.random((110, 110)) < 0.05
        self.lines = ["%.4f %.4f %.4f" % tuple(row) for row in self.points[:400]]
        self.parts = [getattr(self, "_" + name) for name in parts]
        self.reference_s = REFERENCE_S_PER_PART * len(self.parts)
        self.starts, self.ends, self.seconds = [], [], []
        self.work()

    def work(self):
        return sum(part() for part in self.parts)

    def _points(self):
        x, y, z = self.points[:, 0], self.points[:, 1], self.points[:, 2]
        kept = 0
        for _ in range(7):
            kept += len(self.points[np.abs(0.02 * x + 0.01 * y + z - 0.3) > 0.5])
        return kept

    def _large(self):
        return float((self.large * 1.5 + 2.0).sum() + (self.large * 0.5 - 1.0).sum())

    def _cells(self):
        labels = np.zeros(self.mask.shape, dtype=np.int64)
        count = 0
        for i, j in np.argwhere(self.mask):
            up, left = labels[i - 1, j], labels[i, j - 1]
            if up or left:
                labels[i, j] = max(up, left)
            else:
                count += 1
                labels[i, j] = count
        return count

    def _text(self):
        total = 0.0
        for line in self.lines:
            a, b, c = line.split()
            total += float(a) + float(b) - float(c)
        return total + len("\n".join("%.4f %.4f %.4f" % tuple(row) for row in self.points[:400]))

    def sample(self):
        """Time the work once; the sample is kept with where it fell in time."""
        start = time.perf_counter()
        self.work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def pieces(self, t0, t1):
        """The raw interval from ``t0`` to ``t1`` as (seconds, factor) pieces.

        Samples taken inside the interval are left out of it; each stretch
        between them gets the factor (reference seconds per raw second) of
        the nearest sample on either side, so that a time is read at the
        speed the host gave while it was measured.
        """
        pieces = []
        before = bisect.bisect_right(self.ends, t0) - 1
        start = t0
        after = before + 1
        while after < len(self.starts) and self.starts[after] < t1:
            pieces.append((self.starts[after] - start, self._factor(before, after)))
            start = self.ends[after]
            before, after = after, after + 1
        pieces.append((t1 - start, self._factor(before, after)))
        return pieces

    def _factor(self, before, after):
        near = [self.seconds[k] for k in (before, after) if 0 <= k < len(self.seconds)]
        if not near:
            raise RuntimeError("the gauge has no samples")
        return self.reference_s / statistics.fmean(near)
