"""A fixed pure-Python calibration loop, and the scaling it gives.

On a shared VM the CPU speed changes with load from other tenants, within
seconds and over minutes, by up to a factor of 1.5.  The benchmark runs this
loop while it measures and scales each pass's times by SPIN_REF_S over the
mean loop time of that pass.  Times are then reported at the reference
speed, at which one loop takes SPIN_REF_S.  An in-process pass runs the
loop from a timer every PERIOD_S seconds, inside the items, and leaves the
loop's time out of the item times (`Sampler`).  A cli-session pass runs it
between commands, about twice per second of command time (`spins_after`).

The loop does the kind of work that dominates mdtk: schoolbook products of
small-integer lists, then gcd normalisation.  It never calls mdtk, so a
change to the program does not change it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

SPIN_REF_S = 0.025
PERIOD_S = 0.5


def spin() -> float:
    """Seconds taken by one fixed round of work, 20-40 ms on a shared
    2-vCPU Xeon VM."""
    t0 = time.perf_counter()
    a = [(i * 37) % 11 - 5 for i in range(40)]
    b = [(i * 53) % 13 - 6 for i in range(40)]
    for _ in range(200):
        raw = [0] * 79
        for i, v in enumerate(a):
            if v:
                for j, w in enumerate(b):
                    if w:
                        raw[i + j] += v * w
        g = 0
        for v in raw:
            g = math.gcd(g, v)
        b = b[1:] + b[:1]
    return time.perf_counter() - t0


def spins_after(item_seconds: float | None) -> list[float]:
    """Loop times taken after an item: two per started second of the item,
    so the samples are spread over a pass in proportion to time."""
    return [spin() for _ in range(max(1, math.ceil(2 * (item_seconds or 0))))]


def scale(spins: list[float]) -> float:
    """Factor that turns times measured alongside these loop times into
    times at the reference speed."""
    return SPIN_REF_S / statistics.mean(spins)


class Sampler:
    """Runs `spin` from SIGALRM every PERIOD_S seconds of wall time.  The
    handler runs between bytecodes of whatever is executing, so the samples
    are spread evenly over the items.  `clock` is a perf_counter that stops
    while a loop runs."""

    def __init__(self):
        self.spins: list[float] = []
        self.busy = 0.0

    def _tick(self, *_):
        t = spin()
        self.spins.append(t)
        self.busy += t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> float:
        return time.perf_counter() - self.busy
