"""Frozen reference kernel: the unit `ref` of every normalised time.

The host's speed flips between two levels (about 2x apart) every few
seconds, and the guest cannot see it: process CPU time tracks wall time.
A fixed piece of work timed next to the measured work drifts with it, so
work time over kernel time repeats far better than either alone.  The kernel is shaped like the
program's hot path (a dim-4, order-3 truncated Taylor product: gather,
multiply, bincount on 35 coefficients) but imports nothing from paraherm,
so no change to the program can change it.

Changing anything here redefines `ref`; every earlier `*_ref` number stops
being comparable.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import sys
import time
from itertools import combinations_with_replacement

import numpy as np

DIM = 4
ORDER = 3
STEPS = 150


def _tables(dim, order):
    alphas = []
    for deg in range(order + 1):
        for combo in combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for v in combo:
                alpha[v] += 1
            alphas.append(tuple(alpha))
    index = {a: i for i, a in enumerate(alphas)}
    ia, ib, it = [], [], []
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            if sum(a) + sum(b) <= order:
                ia.append(i)
                ib.append(j)
                it.append(index[tuple(x + y for x, y in zip(a, b))])
    return len(alphas), np.array(ia), np.array(ib), np.array(it)


class ReferenceKernel:
    """`STEPS` chained truncated products on fixed data; `sample()` times one pass."""

    def __init__(self):
        self.n, self._a, self._b, self._t = _tables(DIM, ORDER)
        rng = np.random.default_rng(20261017)
        self._x = rng.uniform(-1.0, 1.0, self.n)
        self._y = rng.uniform(-1.0, 1.0, self.n)

    def run(self):
        a, b, t, n = self._a, self._b, self._t, self.n
        x, y = self._x, self._y
        acc = x
        for _ in range(STEPS):
            acc = np.bincount(t, weights=acc[a] * y[b], minlength=n)
            acc *= 0.5
        return acc

    def sample(self) -> float:
        """Seconds for one pass of the kernel."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class Sampler:
    """Times the kernel every `interval` seconds, interleaved with the work.

    SIGALRM runs the kernel in the main thread between two bytecodes of
    whatever the program is doing, so the benchmark adds no thread.  While
    the program has threads of its own running, a sample would measure the
    fight for the interpreter lock (by wall time) or the workers' cache
    traffic (by CPU time) rather than the host, so none is taken.  `clock()`
    is wall time with every kernel pass cut out, so the kernel's own time
    never counts as work.
    """

    def __init__(self, kernel, interval=0.1):
        self.kernel = kernel
        self.interval = interval
        self.excluded = 0.0
        self.samples = []          # (clock() at the start, kernel seconds)
        self.skipped = 0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.excluded

    def take(self):
        start = time.perf_counter()
        d = self.kernel.sample()
        self.samples.append((start - self.excluded, d))
        self.excluded += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        # Not threading.active_count(): it takes a lock that the interrupted
        # code may hold, for instance while starting a thread.
        if len(sys._current_frames()) > 1:
            self.skipped += 1
        else:
            self.take()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside: for work that is not the program's, such as a
        child process, which the kernel would otherwise compete with."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def in_ref(self, start, end) -> float:
        """Length of [start, end] of `clock()` in kernel passes.

        The host's speed flips between two levels every few seconds, so the
        interval is cut at each sample and every stretch is divided by the
        mean of the two samples around it."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_right(times, start)
        hi = bisect.bisect_left(times, end)
        before = self.samples[max(lo - 1, 0)][1]
        after = self.samples[min(hi, len(times) - 1)][1]
        knots = [(start, before)] + self.samples[lo:hi] + [(end, after)]
        return sum((t1 - t0) / ((d0 + d1) / 2)
                   for (t0, d0), (t1, d1) in zip(knots, knots[1:]))

    def summary(self):
        """Median kernel ms, its quartile spread over the median, and counts."""
        ds = [d for _, d in self.samples]
        med = statistics.median(ds)
        q = statistics.quantiles(ds, n=4) if len(ds) > 1 else [med, med, med]
        return {"ref_ms": med * 1e3, "ref_spread": (q[2] - q[0]) / med,
                "ref_samples": len(ds), "ref_skipped": self.skipped}
