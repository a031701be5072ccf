"""Host-speed probe: times on a host whose speed drifts, put on one scale.

The shared host this benchmark was tuned on runs the same pure-Python loop
at speeds that differ by up to 2x from one half-minute to the next (other
tenants' load), and the library's code slows with it, so raw wall times of
the same code spread past any useful bound.  While a pass runs, a timer
signal every INTERVAL_S seconds runs a short fixed loop in the benchmark's
own thread and records how long it took.  A time span of the pass is then
reported as the seconds it would have taken with the loop at NOMINAL_S:

    adjusted = (span - probe time inside it) * mean(NOMINAL_S / loop time)

where the mean is over the probes that started within WINDOW_S of the span
(or the one nearest to it, should none have), so a short span is not scaled
by a single noisy probe.  Averaging speeds rather than loop times weighs
every probe period by the work it could do, so a probe stalled by a rare
hiccup barely moves the result.  The probe's own time is never counted as
work, and the collector is off while it runs, so it never scans the
program's heap.  A change that halves the library's work halves the
adjusted time; a host that runs everything at half speed leaves it
unchanged.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time

LOOP = 20_000      # size of the probe loop, ~3-6 ms on the tuning host
NOMINAL_S = 0.004  # loop time that adjusted seconds refer to
INTERVAL_S = 0.2   # probe period, in wall seconds
WINDOW_S = 0.5     # probes this close to a span set its speed


def loop() -> int:
    """The probe's fixed work: integer arithmetic, then the tuple, set and
    dict traffic the library itself is made of."""
    x = 0
    for i in range(LOOP):
        x += i & 7
    d: dict = {}
    for i in range(LOOP // 7):
        k = (i & 63, i % 7)
        s = d.get(k)
        if s is None:
            d[k] = s = set()
        s.add(frozenset((i & 15, i & 3)))
    return x + len(d)


class Probe:
    """Samples host speed from SIGALRM while started; `ticks` holds the
    (start, end) perf_counter times of every probe loop, in order."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self.spent = 0.0  # total probe seconds so far
        self._busy = False

    def tick(self, *_):
        if self._busy:  # a signal that arrived while the probe ran
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        loop()
        e = time.perf_counter()
        if enabled:
            gc.enable()
        self.ticks.append((t, e))
        self._starts.append(t)
        self.spent += e - t
        self._busy = False

    def start(self):
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the probe's own time, for trace spans."""
        return time.perf_counter() - self.spent

    def adjust(self, a: float, b: float) -> float:
        """Seconds the span [a, b] would take at the nominal speed."""
        return adjust(self.ticks, self._starts, a, b)

    def factors(self) -> list[float]:
        """NOMINAL_S / loop time of every probe: 1 at the nominal speed."""
        return [NOMINAL_S / (e - s) for s, e in self.ticks]


def adjust(ticks, starts, a: float, b: float) -> float:
    i = bisect.bisect_left(starts, a)
    j = bisect.bisect_right(starts, b)
    spent = sum(min(e, b) - s for s, e in ticks[i:j])
    if i > 0:
        spent += max(0.0, min(ticks[i - 1][1], b) - a)
    near = ticks[bisect.bisect_left(starts, a - WINDOW_S):
                 bisect.bisect_right(starts, b + WINDOW_S)]
    if not near:
        mid = (a + b) / 2
        k = bisect.bisect_left(starts, mid)
        near = [min((ticks[n] for n in (k - 1, k) if 0 <= n < len(ticks)),
                    key=lambda se: abs(se[0] - mid))]
    return (b - a - spent) * sum(NOMINAL_S / (e - s) for s, e in near) / len(near)
