"""Machine-speed probe for timing on a shared, unsteady CPU.

On a host whose cores are shared with other tenants, the same computation
can take from 1x to 2x its quiet time, in phases that last from a fraction
of a second to minutes, and CPU time inflates with wall time.  A workload
round of a few seconds cannot average that away.  So the benchmark runs a
probe: a fixed piece of interpreter work that a timer signal runs in the
main thread every ``INTERVAL`` seconds, once to warm its caches and once
timed.  A region's full-speed time is its wall time less the probes' own
cost, scaled, window by window, by ``REFERENCE`` over the probe's mean
time in the window: the time the region would take on a machine on which
the probe always takes ``REFERENCE``.

The probe is pure Python so that a fresh interpreter can run it before it
imports anything else.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.02  # seconds between probes
WINDOW = 0.25  # seconds over which the speed is taken as constant
# The probe's fastest timed pass on the machine the README's reference
# figures come from, so that there full-speed times match quiet wall times.
# A fixed value: the fastest pass of each run varies by up to 10% from run
# to run, and would carry that into every figure.
REFERENCE = 35e-6


def _work() -> int:
    s = 0
    for i in range(300):
        s += (i * i) % 7 + len(str(i))
    return s


class SpeedProbe:
    """Context manager that samples the probe throughout a timed region."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []  # whole handler time, warm-up included
        self.durations: list[float] = []  # the timed pass alone

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        _work()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.costs.append(t2 - t0)
        self.durations.append(t2 - t1)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def full_speed(self, start: float, elapsed: float) -> float:
        """Time [start, start + elapsed) would take if the probe had run at
        ``REFERENCE`` speed throughout it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + elapsed)
        if lo == hi:
            return elapsed
        region_mean = sum(self.durations[lo:hi]) / (hi - lo)
        total, t = 0.0, start
        while t < start + elapsed:
            w = min(WINDOW, start + elapsed - t)
            a = bisect.bisect_left(self.starts, t)
            b = bisect.bisect_left(self.starts, t + w)
            if a == b:  # no probe ran, e.g. inside one long native call
                total += w * REFERENCE / region_mean
            else:
                busy = w - sum(self.costs[a:b])
                total += busy * REFERENCE / (sum(self.durations[a:b]) / (b - a))
            t += w
        return total
