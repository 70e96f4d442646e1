"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the CPU speed drifts by up to 1.5x over tens of
seconds, with CPU time moving together with wall time, so raw seconds from
two runs differ more than the changes the benchmark must detect.  While work
is timed, a short pure-Python kernel that never touches affgrass is timed
every ``INTERVAL`` seconds from a SIGALRM handler, and a time is reported in
reference seconds:

    measured seconds * mean(REFERENCE_KERNEL_S / kernel time sampled meanwhile)

that is, the time the work would take on a machine where the kernel takes
``REFERENCE_KERNEL_S``.  Raw seconds stay in the run record.  Only the
benchmark may change the kernel or the constants; doing so re-bases every
timing.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

# about the median kernel time on a 2-vCPU Intel Xeon virtual machine, Python 3.11
REFERENCE_KERNEL_S = 5.0e-4
INTERVAL = 0.1
WINDOW = 0.5      # samples this close to a timed interval set its speed factor

_P = 10007


def _kernel() -> int:
    """Products of short coefficient tuples mod p, kept in a dict."""
    a = tuple(range(1, 9))
    b = tuple(range(3, 11))
    seen = {}
    for _ in range(40):
        cs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                cs[i + j] = (cs[i + j] + x * y) % _P
        seen[tuple(cs)] = len(seen)
        a, b = b, tuple(cs[:8])
    return len(seen)


def kernel_time() -> float:
    """Median of three timed kernel runs, in seconds."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Sampler:
    """Samples the kernel time every INTERVAL seconds of wall time."""

    def __init__(self):
        # (start, end, kernel seconds) of each tick
        self.samples: List[Tuple[float, float, float]] = []
        self._old = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        k = kernel_time()
        self.samples.append((t0, time.perf_counter(), k))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between ``t0`` and ``t1``.

        The ticks inside the interval are not work and are taken out; the
        speed factor averages the samples within WINDOW of the interval.
        """
        busy = sum(e - s for s, e, _k in self.samples if t0 <= s and e <= t1)
        ks = [k for s, _e, k in self.samples if t0 - WINDOW <= s <= t1 + WINDOW]
        return (t1 - t0 - busy) * statistics.fmean(REFERENCE_KERNEL_S / k for k in ks)
