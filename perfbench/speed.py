"""How fast this thread runs Python right now, sampled while fqav runs.

On a shared machine the CPU time of identical work drifts by up to a
factor of two, in phases from a second to minutes long: other tenants'
work on the same physical core slows this one down.  Neither wall time nor
CPU time removes that.  So the benchmark times a fixed piece of pure-Python
work, ``calibrate``, which does not touch fqav, at regular points of its
own CPU time (a ``SIGPROF`` interval timer), also in the middle of a long
command.  A command's CPU time is then scaled by ``REFERENCE_S`` divided by
the mean time of the calibration samples taken during it and just
around it: the result reads as CPU seconds on a machine where one calibration
takes ``REFERENCE_S``.

All CPU times are read with ``time.thread_time``.  While a CPU interval
timer is armed, Linux updates ``time.process_time`` only at scheduler
ticks; the thread clock stays exact.  fqav is single-threaded.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001   # the calibration's CPU time on the reference scale
PERIOD_S = 0.02       # CPU time between two calibration samples
CALIBRATION_STEPS = 300

clock = time.thread_time


def calibrate():
    """A fixed mix of what fqav spends its time on: hashing tuples into a
    dict, and small ``Fraction`` arithmetic.  About 1 ms of CPU.  The
    garbage collector is held off, since a full collection it would
    trigger scans fqav's objects and takes several times as long."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        x = 12345
        for _ in range(CALIBRATION_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x % 997, (x >> 10) % 991, Fraction(x % 13, 1 + x % 7))
            table[key] = table.get(key, 0) + 1
        return len(table)
    finally:
        if enabled:
            gc.enable()


def time_calibrations(count):
    """CPU seconds of ``count`` calibrations run back to back."""
    out = []
    for _ in range(count):
        t0 = clock()
        calibrate()
        out.append(clock() - t0)
    return out


class Speedometer:
    """Calibration samples every ``PERIOD_S`` of CPU time, while entered."""

    def __init__(self):
        self.at = []      # thread CPU time at which each sample started
        self.took = []    # CPU seconds each sample took

    def __enter__(self):
        self._saved = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._saved)

    def _sample(self, signum, frame):
        t0 = clock()
        calibrate()
        self.at.append(t0)
        self.took.append(clock() - t0)

    def scaled(self, start, end):
        """CPU seconds of the span [start, end] of thread time, without the
        samples taken inside it, on the reference scale.  The scale is the
        mean of the samples inside and of two on each side: a long command
        takes as long as the mean slowdown over it, and a short one rests on
        more than one or two samples."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        own = end - start - sum(self.took[lo:hi])
        around = self.took[max(lo - 2, 0):hi + 2]
        return own * REFERENCE_S / statistics.fmean(around)
