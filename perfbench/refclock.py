"""Reference clock: op costs in units of a fixed pure-Python kernel.

On a shared VM the speed of a vCPU swings by 15-25% over stretches of
seconds to minutes, and CPU time swings with it, so seconds measured at
different moments differ by more than a useful regression bound. While the
ops run, SIGALRM fires every ``PERIOD_S`` and its handler runs
``reference_kernel`` in the main thread, recording how long it took. An
op's cost is its own time, minus the kernel runs inside it, divided by the
median kernel time within ``WINDOW_S`` of the op: the number of kernel runs
the op is worth at the machine's speed of that moment. Multiplying a cost by
the kernel time (``kernel_ms``) gives milliseconds again.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
WINDOW_S = 0.5


def reference_kernel() -> Fraction:
    """Fixed work of the library's kind: Fraction arithmetic, growing
    integers and small Python loops (about 2.5 ms on CPython 3.11)."""
    acc = Fraction(0)
    x = Fraction(3, 7)
    for i in range(1, 150):
        acc += x * i / (i + 1)
        x = (x * x + 1) / (x + 2) if x.denominator < 10 ** 30 else Fraction(3, 7)
    return acc


class RefClock:
    """Context manager that samples the kernel while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, kernel units) of [t0, t1] without the kernel runs in it."""
        s, d = self.starts, self.durations
        net = (t1 - t0) - sum(d[bisect.bisect_left(s, t0):bisect.bisect_left(s, t1)])
        near = d[bisect.bisect_left(s, t0 - WINDOW_S):bisect.bisect_left(s, t1 + WINDOW_S)]
        return net, net / statistics.median(near or d)

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.durations)
