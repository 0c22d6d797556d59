"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants the same op can take
30% longer for minutes at a time, which swamps the regression bounds. The
benchmark therefore times a fixed kernel that does not touch insdual
between ops, and rescales each op's time by
kernel.REFERENCE_S / (kernel time around that op). The reported times are
seconds on a host where the kernel takes its REFERENCE_S; the raw wall
times are printed beside them.

The kernel is an interpreter loop with many small numpy calls, the kind
of work the ops of cli-default and mc-paths do. README.md gives the
run-to-run spreads it leaves, beside the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# a calibration sample is taken once at least this much op time has passed
EVERY_S = 0.05
# kernel runs per second of op time behind one sample, and their cap
SAMPLE_PER_S = 0.4
MAX_RUNS = 11


def _timed(fn):
    started = perf_counter()
    fn()
    return perf_counter() - started


class InterpreterKernel:
    """An interpreter loop and many small numpy calls."""

    # about the kernel's time on one uncontended 2.1 GHz Xeon core; a
    # fixed constant, so calibrated times of two commits compare directly
    REFERENCE_S = 0.011

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.nodes = np.sort(rng.random(400))
        self.queries = rng.random(3000).tolist()
        self.run()

    def run(self):
        acc = 0
        for i in range(60000):
            acc += i * i
        for x in self.queries:
            acc += int(np.searchsorted(self.nodes, x))
        return acc

    def sample(self, runs):
        """Median kernel time over ``runs`` runs."""
        return statistics.median(_timed(self.run) for _ in range(runs))


class Calibrated:
    """Op times with calibration samples interleaved; rescaled on demand.

    A sample is taken after every EVERY_S of op time. After long ops it is
    the median of one kernel run per SAMPLE_PER_S of op time (at most
    MAX_RUNS), so a multi-second op is not rescaled by one noisy run. No
    sample precedes the first op: the kernel runs faster on a host that
    has just been idle than on one that has been computing.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.raw: list[float] = []
        self._before: list[int] = []
        self._since = 0.0

    def _sample(self):
        runs = min(MAX_RUNS, max(1, int(self._since / SAMPLE_PER_S)))
        self.samples.append(self.kernel.sample(runs))
        self._since = 0.0

    def add(self, seconds):
        """Record one op's raw time; sample the kernel when one is due."""
        self.raw.append(seconds)
        self._before.append(len(self.samples) - 1)
        self._since += seconds
        if self._since >= EVERY_S:
            self._sample()

    def finish(self):
        if self._since > 0.0:
            self._sample()

    def scaled(self):
        """Each op's time rescaled by the samples just before and after it."""
        out = []
        for seconds, before in zip(self.raw, self._before):
            around = self.samples[max(before, 0) : before + 2]
            out.append(seconds * self.kernel.REFERENCE_S * len(around) / sum(around))
        return out
