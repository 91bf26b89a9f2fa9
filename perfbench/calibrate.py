"""Host-speed calibration by a reference kernel interleaved with the ops.

Shared cloud hosts change speed under a run: on a 2-vCPU Intel Xeon
virtual machine the same code ran about 1.6x slower for stretches of
seconds to minutes, on both vCPUs, with no steal time, and process CPU
time slowed with it.  Raw times of 30 s runs then spread by up to
~30 % between runs.  So while ops run, a SIGALRM timer runs a fixed
reference kernel (numpy calls on small arrays from a Python loop, like
the search's inner loop) every INTERVAL_S, and each op's time is
rescaled by the kernel's mean time during that op:

    normalised = measured * REF_S / mean reference time during the op

that is, seconds on a host where the kernel takes REF_S.  The time the
handler itself takes is subtracted from the op.  The kernel does not
use labskit, so no program change moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

REF_S = 0.001
INTERVAL_S = 0.1
BURST_REPEATS = 20

_A = np.arange(101, dtype=np.int64)


def reference_kernel() -> float:
    """Run the kernel once; its wall time (about REF_S on the host the
    constant was taken from).  The cyclic garbage collector is held off
    meanwhile: a collection of the program's objects triggered by the
    kernel's allocations would otherwise be charged to the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(160):
            s += int(np.sum(_A[i % 50: i % 50 + 40] * _A[:40]))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_burst() -> float:
    """Mean kernel time over back-to-back runs, for calibrating a span
    the timer cannot sample (a child process)."""
    return statistics.fmean(reference_kernel() for _ in range(BURST_REPEATS))


class Sampler:
    """Samples the reference kernel on a timer while active.

    `mark()` before an op and `since(mark)` after it give the handler's
    wall and CPU time inside the op and the kernel's mean time there
    (None when no sample fell inside the op).
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._old = None

    def _handler(self, signum, frame):
        c0 = time.process_time()
        dt = reference_kernel()
        self.samples.append(dt)
        self.spent_wall += dt
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self) -> tuple:
        return len(self.samples), self.spent_wall, self.spent_cpu

    def since(self, mark: tuple) -> tuple:
        n, wall, cpu = mark
        inside = self.samples[n:]
        ref = statistics.fmean(inside) if inside else None
        return self.spent_wall - wall, self.spent_cpu - cpu, ref
