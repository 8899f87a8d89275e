"""Rescale measured times to one fixed host speed with a reference kernel.

The benchmark's host is a shared virtual machine.  Its speed for a fixed
single-threaded kernel drifts by 1.5-1.8x, in states that last from a
fraction of a second to minutes, so raw wall-clock times of the same code
spread far more between runs than the benchmark's bounds allow.

So the benchmark times a fixed kernel, a "tick", just before and just
after every stretch of work it measures, and in a long stretch every
PERIOD_S seconds in between: a real-time interval timer interrupts the
work, and the signal handler runs one tick between two Python bytecodes.  Each piece of work
between two ticks is divided by the mean slowdown of those two ticks, so
a reported time is in seconds at the speed at which one tick takes
REFERENCE_S.  Tick time itself is never counted as work.

The kernel never touches driftflow, so no change to the library can move
it.  It mixes the three kinds of work the workloads spend their time in:
interpreter-bound Python, numpy arithmetic on 16^3-sized arrays, and sine
transforms of a 64^2 grid like the Helmholtz preconditioner's.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.fft

# Median time of one tick on the reference host (2-vCPU Xeon VM at 2.0 GHz,
# Python 3.11, numpy 2.4, scipy 1.17) in a fast state.  Only the ratio of
# two runs on one machine matters, so it never needs retuning.
REFERENCE_S = 0.007
# Wall time between two ticks interleaved with a long stretch of work.
PERIOD_S = 0.1


def _inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's inputs; the same on every run, whatever the seed."""
    rng = np.random.default_rng(12345)
    symbol = 1.0 + np.arange(1, 64, dtype=float)[:, None] ** 2
    return rng.standard_normal((17, 16, 16)), rng.standard_normal((63, 63)), symbol


def _kernel(inputs) -> float:
    cube, square, symbol = inputs
    acc = 0.0
    for i in range(22000):
        acc += (i * i) % 7
    for _ in range(100):
        face = 0.5 * (cube[1:] + cube[:-1])
        np.clip(face, -1.0, 1.0, out=face)
        acc += float(np.abs(face * cube[:-1]).sum())
    for _ in range(20):
        hat = scipy.fft.dstn(square, type=1, norm="ortho")
        hat /= symbol
        acc += float(scipy.fft.idstn(hat, type=1, norm="ortho")[0, 0])
    return acc


class Stretch:
    """One measured stretch of work: `wall_s` without ticks, `ref_s` rescaled."""

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        # slowdown of the tick just before the work
        self.first_slowdown = 1.0


class Reference:
    """Times ticks for one process and rescales the work between them."""

    def __init__(self):
        self._inputs = _inputs()
        # the first call fills scipy.fft's plan cache; it is not kept
        _kernel(self._inputs)
        self.times: list[float] = []
        self._ticking = False

    def _tick(self) -> tuple[float, float, float]:
        """Run the kernel once; return (start, end, slowdown against REFERENCE_S)."""
        self._ticking = True
        start = time.perf_counter()
        _kernel(self._inputs)
        end = time.perf_counter()
        self._ticking = False
        self.times.append(end - start)
        return start, end, (end - start) / REFERENCE_S

    def _on_alarm(self, marks: list) -> None:
        # a tick that overran the period must not nest another inside it
        if not self._ticking:
            marks.append(self._tick())

    def slowdown(self) -> float:
        """Median slowdown over every tick so far."""
        return statistics.median(self.times) / REFERENCE_S

    @contextmanager
    def timed(self, period_s: float | None = None):
        """Measure the work in the `with` body; fills the yielded Stretch on exit.

        With `period_s` set, a tick also interrupts the work every `period_s`
        seconds.  Leave it unset where the body times pieces of itself, or
        runs traced spans: a tick inside them would count toward them.
        """
        stretch = Stretch()
        marks = [self._tick()]
        stretch.first_slowdown = marks[0][2]
        interleave = period_s is not None
        if interleave:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._on_alarm(marks))
            signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield stretch
        finally:
            if interleave:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        marks.append(self._tick())
        for (_, work_start, before), (work_end, _, after) in zip(marks, marks[1:]):
            stretch.wall_s += work_end - work_start
            stretch.ref_s += (work_end - work_start) / (0.5 * (before + after))
