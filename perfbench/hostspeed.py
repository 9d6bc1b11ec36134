"""How fast the host runs, sampled all through a run.

On a shared VM the same Python code takes up to half as long again from
one second to the next, and the mix of fast and slow seconds drifts
over minutes.  Raw timings of identical runs then spread by 10–40%,
as much as any regression bound worth having.  So the runner times a
fixed pure-Python loop, the *probe*, every :data:`PERIOD_S` seconds,
from a ``SIGALRM`` handler in its main thread, and scales every
timing by :data:`REF_PROBE_MS` over the median probe taken while that
timing ran, to the power :data:`ELASTICITY`
(:meth:`HostSpeed.factor`).  A timed interval of work reads, after
scaling, about as it would on a host where the probe takes
:data:`REF_PROBE_MS`.

The probe is timed by the CPU time of its own thread, so it reads the
speed of the core it ran on, not how long it waited for the
interpreter lock or for the processor: a thread the program leaves
running cannot slow the probe by holding the lock, and so hide its own
cost.
It costs about 1% of the main thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any, List

#: Seconds between two probes.
PERIOD_S = 0.02
#: Iterations of the probe's loop, about 0.13 ms.
PROBE_LOOP = 2000
#: The probe's time, in ms, on the host the timings are scaled to:
#: about its lower decile on the 2-core VM the bounds were calibrated
#: on, where it ranged from 0.13 to 0.20 ms between deciles.
REF_PROBE_MS = 0.13
#: How much more the program's times move than the probe's: a time is
#: scaled by (REF_PROBE_MS / probe) ** ELASTICITY.  The program works
#: on a heap of tens of MiB and the probe in a few cache lines, so
#: contention from other tenants slows the program more.  1.3 gave the
#: smallest spread between runs over three sets of calibration runs
#: (see perfbench/README.md, Calibration); with 1.0 the spreads were
#: up to three times as wide.
ELASTICITY = 1.3
#: Probes this far before or after an interval also count for it, so
#: that an interval shorter than PERIOD_S still has a few.
PAD_S = 0.05


class HostSpeed:
    """Probe samples, each with the ``perf_counter`` time it was taken."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.probes_ms: List[float] = []
        self._previous: Any = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, *_: Any) -> None:
        began = time.thread_time()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        self.probes_ms.append((time.thread_time() - began) * 1000.0)
        self.times.append(time.perf_counter())

    def probe_ms(self, start: float, end: float) -> float:
        """Median probe over [start - PAD_S, end + PAD_S]."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo >= hi:
            raise RuntimeError("no host-speed probe near a timed interval")
        return statistics.median(self.probes_ms[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """What a time measured over [start, end] is multiplied by."""
        return (REF_PROBE_MS / self.probe_ms(start, end)) ** ELASTICITY
