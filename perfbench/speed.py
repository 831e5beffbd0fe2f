"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of pure
Python code changes in phases lasting seconds to minutes, and CPU time moves
with wall time.  Two runs of the same code minutes apart can then differ by
30% or more, whatever the run length.  A ``Speedometer`` measures the
machine's speed while the program runs: a timer signal interrupts the main
thread every ``INTERVAL_S`` seconds, and the handler times a fixed reference
kernel, a sparse polynomial product with ``Fraction`` coefficients, which is
the kind of work koszulkit does.

``calibrated`` turns a wall or CPU interval into *reference seconds*: the
time the interval would have taken on a machine on which one reference
kernel takes ``REFERENCE_S`` seconds.  The time the handler itself takes is
removed first.  Each stretch of program time between two samples is scaled
by ``REFERENCE_S`` over the mean kernel time of the ``2 * HALF_WINDOW + 1``
samples around it (about four seconds), so that a phase lasting seconds is
followed and a single disturbed sample weighs little.  The kernel runs with
the garbage collector off, so the program's garbage is collected on the
program's time.

A change that makes koszulkit faster or slower moves its reference seconds
by the same share as its wall seconds on a machine of steady speed; the
kernel is benchmark code and does not change with the program.  Measured
over 150 s of one repeated ``verify`` call on such a box, the mean of
10-second windows ranged over +-20% in wall seconds and +-6% in reference
seconds.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.25
HALF_WINDOW = 8
# About the kernel's usual time on a 2-core x86 box shared with other
# tenants, so that reference seconds there come out near wall seconds.
REFERENCE_S = 0.008


def _reference_poly(shift):
    """A fixed sparse polynomial in three variables, exponent tuple -> coefficient."""
    terms = {}
    for k in range(40):
        e = ((k * 7 + shift) % 5, (k * 3 + shift) % 4, (k + 2 * shift) % 6)
        terms[e] = terms.get(e, 0) + Fraction((k * 5 + shift) % 11 - 5 or 1, k % 7 + 2)
    return terms


class Speedometer:
    """Reference-kernel samples taken by a timer signal while it is started."""

    def __init__(self):
        self._a = _reference_poly(1)
        self._b = _reference_poly(2)
        # per sample: perf_counter and process_time at its start and end
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._cpu_starts: list[float] = []
        self._cpu_ends: list[float] = []
        self._previous = None
        self._sampling = False

    def kernel(self):
        out = {}
        for ea, ca in self._a.items():
            for eb, cb in self._b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb
        return out

    def _on_timer(self, signum, frame):
        if not self._sampling:  # skip a tick that lands inside a sample
            self.sample()

    def sample(self):
        """Time the kernel once now; the timer calls this, and callers may
        too, between steps shorter than ``INTERVAL_S``."""
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            self.kernel()
            t1, c1 = time.perf_counter(), time.process_time()
            self._starts.append(t0)
            self._ends.append(t1)
            self._cpu_starts.append(c0)
            self._cpu_ends.append(c1)
        finally:
            if collecting:
                gc.enable()
            self._sampling = False

    def start(self):
        self.kernel()  # untimed: the first run is slower
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def now():
        """A mark: (perf_counter, process_time)."""
        return time.perf_counter(), time.process_time()

    def kernel_s(self):
        """The kernel time of every sample, in the order taken."""
        return [e - s for s, e in zip(self._starts, self._ends)]

    def calibrated(self, a, b):
        """Reference seconds between marks ``a`` and ``b`` taken while started,
        and seconds the program itself took there; each a (wall, cpu) pair."""
        kernel_s = self.kernel_s()
        n = len(kernel_s)
        if not n:
            raise RuntimeError("no speed samples were taken")

        def scale(k):
            window = kernel_s[max(0, k - HALF_WINDOW) : k + HALF_WINDOW + 1]
            return REFERENCE_S / statistics.fmean(window)

        first = bisect.bisect_left(self._starts, a[0])
        last = bisect.bisect_right(self._ends, b[0])  # samples first..last-1 lie inside
        wall = cpu = ref_wall = ref_cpu = 0.0
        t, c = a
        for k in range(first, last):
            dt, dc = self._starts[k] - t, self._cpu_starts[k] - c
            wall, cpu = wall + dt, cpu + dc
            ref_wall, ref_cpu = ref_wall + dt * scale(k), ref_cpu + dc * scale(k)
            t, c = self._ends[k], self._cpu_ends[k]
        # the stretch after the last sample inside takes the speed of the
        # sample nearest to it
        mid = (t + b[0]) / 2
        k = bisect.bisect_left(self._starts, mid)
        nearest = min((i for i in (k - 1, k) if 0 <= i < n), key=lambda i: abs(self._starts[i] - mid))
        dt, dc = b[0] - t, b[1] - c
        wall, cpu = wall + dt, cpu + dc
        ref_wall, ref_cpu = ref_wall + dt * scale(nearest), ref_cpu + dc * scale(nearest)
        return (ref_wall, ref_cpu), (wall, cpu)
