"""Timings at a reference interpreter speed.

The machines this runs on are shared, and the speed of one core drifts by
up to 1.7x within seconds as neighbouring work comes and goes; the process's
CPU time drifts with its wall time, so the drift is not time spent waiting.
Raw wall times of identical runs a minute apart then differ by more than
the changes the benchmark must resolve.

While started, `SpeedClock` runs a fixed interpreter-bound probe (dict
lookups on tuple keys and small-int arithmetic, like the program's own) from
a timer signal every PROBE_PERIOD_S, so the probe samples the speed of the
core at the same moments the work runs.  The probe runs twice and only the
second, cache-warm pass is timed: a cold pass is slowed by whatever the work
evicted, which would tie the scale to the program's own memory use and
cancel gains that come from touching less memory.  For the same reason the
probe works on preallocated objects and allocates nothing the garbage
collector tracks, so no collection (whose cost depends on the program's
live objects) ever runs inside it.  `elapsed(mark)` returns the wall time since
`mark`, less the probes' own time, scaled by REFERENCE_PROBE_S over the mean
probe duration in that interval (or over the last few probes, for an
interval shorter than one period).  A number is thus the time the work
would take at the speed where one warm probe takes REFERENCE_PROBE_S, a
fixed constant between the fast and slow speeds of the machine the
reference figures in README.md come from.  Until `start()` it returns plain
wall time.  A spawned process measures itself with its own clock, since a
probe in the parent would sample another core, or, pinned to the child's
core, be preempted by the child.
"""

from __future__ import annotations

import signal
from collections import deque
from time import perf_counter

PROBE_PERIOD_S = 0.01
REFERENCE_PROBE_S = 26e-6
_RECENT = 8


_KEYS = [(i % 97, i % 13) for i in range(200)]
_TABLE = dict.fromkeys(_KEYS, 0)


def _probe() -> None:
    d = _TABLE
    for i in range(200):
        k = _KEYS[i]
        d[k] = (d[k] + i) & 255       # small ints are cached: no allocation


class SpeedClock:
    def __init__(self):
        self.samples = 0
        self.probe_s = 0.0            # sum of probe durations
        self.overhead_s = 0.0         # wall time spent in the signal handler
        self.recent: deque = deque(maxlen=_RECENT)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _probe()                      # warms the caches the work evicted
        warm = perf_counter()
        _probe()
        spent = perf_counter() - warm
        self.samples += 1
        self.probe_s += spent
        self.recent.append(spent)
        self.overhead_s += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference over mean probe duration so far; 1 before any probe."""
        if not self.samples:
            return 1.0
        return REFERENCE_PROBE_S * self.samples / self.probe_s

    def mark(self) -> tuple:
        return perf_counter(), self.overhead_s, self.samples, self.probe_s

    def elapsed(self, mark: tuple) -> float:
        """Seconds since `mark` at the reference speed."""
        start, overhead, samples, probe_s = mark
        wall = perf_counter() - start - (self.overhead_s - overhead)
        if self.samples > samples:
            speed = (self.probe_s - probe_s) / (self.samples - samples)
        elif self.recent:
            speed = sum(self.recent) / len(self.recent)
        else:
            return wall
        return wall * REFERENCE_PROBE_S / speed
