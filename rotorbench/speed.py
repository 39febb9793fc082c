"""Host-speed sampling: timings scaled to one reference speed.

On a shared host the speed of a vCPU drifts by 20-50 % over seconds to
minutes as other tenants load the machine: a cold `rotorspec spectrum` job
doing identical work takes 2.7 s in one minute and 3.9 s in the next, the
same in CPU time as in wall time.  So while requests run, a timer signal
runs a fixed unit of exact rational arithmetic (the program's own kind of
work, but none of its code) every PERIOD_S on the same CPU, in this process
or, while a request's subprocess runs, by briefly pre-empting it.  A
request that took t seconds while the unit took c_1 .. c_k is reported as

    t * mean(REF_S / c_i)

the time it would take at the speed at which the unit takes REF_S.  REF_S
is what the unit takes on an unloaded 2-vCPU Intel Xeon VM, so there the
scaled figures read as plain seconds.  The unit does not depend on the
program, so the program's own cost stays in the figure; the sampling costs
the request about 1 %.  Over five seeds of each workload at 20 s a run, the
spread (IQR / median) of the median latency was 0.15-0.34 raw and
0.02-0.05 scaled.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.0006
PERIOD_S = 0.1
NEAREST = 5  # samples used for a section too short to hold that many


def _unit() -> Fraction:
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(k % 17 + 1, k % 13 + 2)
    return s


def pin_to_one_cpu() -> int | None:
    """Run this process and the processes it starts on one CPU, so the
    samples are taken where the timed work runs.  Returns the CPU, or None
    where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Sampler:
    """Context manager: samples the unit's time every `period` seconds of
    wall time while active.  `factor(t0, t1)` is the mean of REF_S / c over
    the samples taken in [t0, t1], or over the NEAREST samples to the
    section's middle when it holds fewer."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.times: list[float] = []
        self.units: list[float] = []
        self._saved = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _unit()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.units.append(end - start)

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.units:  # a phase shorter than one period
            self._sample(None, None)

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < NEAREST:
            mid = (t0 + t1) / 2
            lo = max(0, min(bisect.bisect_left(self.times, mid) - NEAREST // 2, len(self.times) - NEAREST))
            hi = min(len(self.times), lo + NEAREST)
        return statistics.fmean(REF_S / c for c in self.units[lo:hi])
