"""Time at a reference machine speed.

The benchmark machine's speed drifts by tens of percent within seconds to
minutes, because other tenants share its cores, caches and memory; pure-Python
code of every kind slows and speeds up together (over 0.3 s windows a
cache-resident loop and a set-building loop correlate at about 0.9).  So the
benchmark also keeps every operation's time at a reference speed: while a
``SpeedClock`` runs, a timer signal interrupts the single worker thread every
``INTERVAL_S`` and times a fixed kernel of the benchmark's own code; the
wall time up to the next tick is scaled by ``NOMINAL_S`` over that timing.
The time the kernel itself takes is left out of both clocks.
"""

from __future__ import annotations

import gc
import signal
import time

import independent as ind

NOMINAL_S = 0.0003  # the kernel's typical time on a 2-core VM under Python 3.11
INTERVAL_S = 0.02

_WORD = bytes((i * 7 // 3) % 2 for i in range(60))
_OUTPUT = _WORD[:10] + _WORD[14:34] + _WORD[38:]


def kernel_seconds() -> float:
    """One timing of the kernel: a ball count, a membership test and a set
    of slices on one 60-symbol word, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ind.deletion_ball_size(_WORD, 2, 2)
        ind.is_burst_deletion_of(_WORD, _OUTPUT, 2, 4)
        {_WORD[i : i + 20] for i in range(40)}
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_factor() -> float:
    """NOMINAL_S over the best of three kernel timings: the present speed."""
    return NOMINAL_S / min(kernel_seconds() for _ in range(3))


class SpeedClock:
    """Two clocks that leave out the kernel's own time: ``raw()`` in wall
    seconds and ``now()`` in seconds at the reference speed.  Until ``start``
    is called (and after ``stop``) both advance at wall speed."""

    def __init__(self):
        self._factor = 1.0
        self._mark = time.perf_counter()  # wall time at the end of the last tick
        self._ref = 0.0  # reference seconds up to the mark
        self._probe_s = 0.0  # kernel time so far
        self.ticks = 0

    def raw(self) -> float:
        return time.perf_counter() - self._probe_s

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._mark) * self._factor

    def _tick(self, signum, frame) -> None:
        tick = time.perf_counter()
        factor = NOMINAL_S / kernel_seconds()
        done = time.perf_counter()
        self._ref += (tick - self._mark) * self._factor
        self._probe_s += done - tick
        self._factor = factor
        self._mark = done
        self.ticks += 1

    def start(self) -> None:
        self._ref = self.now()
        self._factor = reference_factor()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._ref = self.now()
        self._factor = 1.0
        self._mark = time.perf_counter()
