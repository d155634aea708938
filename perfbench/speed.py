"""Machine-speed reference for the timed runs.

The shared hosts this benchmark runs on change speed by up to 1.6x,
sometimes for a few hundred milliseconds and sometimes for a whole run,
so raw wall times of one build spread by 20-40% from run to run.  Each
timed run therefore pins itself and its children to one CPU and runs
`probe`, a fixed piece of pure-Python work much like the program's own
(rational and integer arithmetic), between consecutive items.  An item's
time is scaled by REFERENCE_S over the mean of the probes on either side
of it: the reported times are milliseconds at the speed at which the
probe takes REFERENCE_S.  The raw figures go to the info line.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

REFERENCE_S = 0.22e-3  # about the probe's time on a 2-core Xeon host in its fast state


def pin():
    """Pin this process, and the children it starts, to its highest allowed
    CPU (the lowest one usually takes the device interrupts)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _work() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(1, k)
    x = 0
    for i in range(3000):
        x += i * i
    return time.perf_counter() - start


def probe() -> float:
    """Seconds taken by a fixed piece of rational and integer arithmetic:
    the fastest of three tries, so one interrupt does not count as a slow spell."""
    return min(_work() for _ in range(3))


class Scaler:
    """Turns raw durations into reference-speed durations, one probe per gap."""

    def __init__(self):
        self.last = probe()

    def factor(self) -> float:
        """Reference-speed factor of whatever ran since the last probe; probes the gap after it."""
        now = probe()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor

    def scale(self, duration: float) -> float:
        """A duration that ended just now, at reference speed."""
        return duration * self.factor()
