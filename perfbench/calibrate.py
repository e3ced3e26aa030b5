"""Host-speed calibration: a fixed kernel timed all through the workload.

On a shared host the core's speed drifts by up to 2x over minutes, and
the program's times drift with it.  While a run measures, an interval
timer interrupts the workload every ``PERIOD_S`` seconds and runs a fixed
kernel that does not touch rejuvkit -- pure-Python adaptive quadrature,
small numpy solves and scalar random draws, the program's own mix -- in
the same thread, between two bytecodes of the workload.  The kernel's
own time is taken out of every time measured across it, and the time is
rescaled to the reference speed, at which one kernel call takes ``REF_S``
seconds::

    calibrated = measured x REF_S / typical(kernel times inside the interval)

A change to rejuvkit moves ``measured`` and leaves the kernel alone, so
it moves the calibrated time by the same share; a change in host speed
moves both and cancels.  Single kernel times jump between two levels
(about 6 and 10 ms on a shared 2-core VM) as the host's load comes and
goes, so ``typical`` is the mean of the middle half of the times: it
follows the share of fast samples smoothly, where a median would jump,
and it drops the outliers of a pre-empted call.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

# numpy loads numpy.random lazily; a kernel run that loaded it from inside
# an import of the workload could see it half-initialised, so load it now
from numpy.random import default_rng

REF_S = 0.010
PERIOD_S = 0.1


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return _simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _simpson(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def _integrand(t):
    return math.exp(-t / 3.0) * (1.0 + math.sin(t)) / (1.0 + t * t)


_MATRIX = np.eye(12) + np.outer(np.linspace(0.0, 1.0, 12), np.linspace(1.0, 0.0, 12)) / 12.0


def kernel():
    """The fixed calibration work; returns a checksum so nothing is skipped."""
    a, b = 0.0, 40.0
    fa, fm, fb = _integrand(a), _integrand(0.5 * (a + b)), _integrand(b)
    total = 0.0
    rng = default_rng(12345)
    for _ in range(10):
        total += _simpson(_integrand, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), 1e-9, 40)
        total += float(np.linalg.solve(_MATRIX, _MATRIX[0]).sum())
        total += sum(float(rng.exponential(2.0)) for _ in range(200))
    return total


def typical(times):
    """Mean of the middle half of ``times`` (the median when there are few)."""
    ordered = sorted(times)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def scale(times):
    """Factor that rescales a time measured next to ``times`` to reference speed."""
    return REF_S / typical(times) if times else 1.0


class Calibrator:
    """Kernel runs as ``(start, end)`` intervals, in time order."""

    def __init__(self):
        self.runs = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside the kernel is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.runs.append((start, time.perf_counter()))
        finally:
            self._busy = False

    @contextmanager
    def sampling(self, period=PERIOD_S):
        """Run the kernel every ``period`` seconds of the ``with`` body."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def between(self, start, end):
        """Times of the kernel runs inside ``[start, end]``."""
        return [e - s for s, e in self.runs if s >= start and e <= end]
