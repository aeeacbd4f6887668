"""Host-speed probe: report times in reference seconds, not raw wall seconds.

On a shared host the same pure-Python loop runs up to twice as slowly for
seconds or minutes at a time, and the program slows with it, so raw wall
times of identical code spread by more than any useful regression bound.
While a `SpeedProbe` runs, SIGALRM fires every PERIOD_S seconds of wall time
and its handler times a fixed reference kernel: interpreter-bound Python
(dict lookups, integer and float arithmetic, small tuples, dicts, sets and
sorts) like the program's own hot loops. A span of the run is then reported
as its wall time less the probe's own time, times the mean of
REFERENCE_S / kernel time over the samples taken during the span (or the
NEAR samples closest to it, for short spans): the work done, in seconds of
a host on which the kernel takes REFERENCE_S. The kernel is benchmark code,
so a change to the program moves reference seconds exactly as it moves wall
seconds on a steady host.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.025
NEAR = 12
# The kernel's time on an unloaded 2-core Intel Xeon VM (Python 3.11): on
# such a host reference seconds read about the same as wall seconds.
REFERENCE_S = 0.00075

_TABLE = {i: (i * 7919) % 1009 for i in range(256)}


def reference_kernel() -> int:
    table, acc, x = _TABLE, 0, 0.5
    for i in range(1500):
        v = table[i & 255]
        if v < 500:
            acc += v * i
        else:
            acc -= v
        x = x * 1.0000001 + 0.25
    for i in range(120):
        t = tuple(range(i % 10, i % 10 + 8))
        d = {k: k * 2 for k in t}
        acc += sum(sorted(d.values(), reverse=True)[:3])
        acc += len(frozenset(t) & {1, 2, 3})
    return acc + int(x)


class SpeedProbe:
    """Samples host speed while running (`with probe:`); samples are kept
    across runs, so spans of several probed stretches can be converted."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def _sample(self, signum, frame):
        # The kernel's garbage is freed by reference counting; a collection of
        # the program's heap would otherwise land in a sample now and then.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_kernel()
            self.samples.append((start, perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_s(self, start: float, end: float) -> float:
        """Seconds the probe itself took inside [start, end]."""
        return sum(took for at, took in self.samples if start <= at <= end)

    def reference_s(self, start: float, end: float) -> float:
        """The span [start, end] in reference seconds."""
        inside = [took for at, took in self.samples if start <= at <= end]
        if len(inside) < NEAR:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:NEAR]
            speeds = [took for _, took in nearest]
        else:
            speeds = inside
        if not speeds:
            raise RuntimeError("speed probe took no samples")
        net = end - start - sum(inside)
        return net * statistics.fmean(REFERENCE_S / took for took in speeds)
