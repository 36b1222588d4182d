"""Host-speed calibration for a shared, drifting machine.

On the 2-vCPU reference host the speed of identical work drifts by up to
1.7x over minutes (other tenants), so wall times of runs taken minutes
apart are not comparable. A fixed kernel, in the same mix of interpreter
work and 10 x 10 matrix products as anwsim's inner loops, is timed after
each operation; an operation's time is divided by the median of the ten
kernel times nearest to it over ``REFERENCE_S``. Over ten seeds this took
the spread of run_s from 0.14 to 0.05 on cluster_fc and from 0.16 to 0.05
on cli_sweep, whose operations last well under a second. For operations
of several seconds the samples at their two ends do not represent the
whole operation and made the spread worse (emulation_fp 0.08 to 0.25), so
workloads made of such operations are not calibrated. The kernel is part
of the benchmark, not of the package, so no change under ``src/`` moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.015  # median kernel time on the reference host
NEAREST = 10  # kernel samples behind one slowdown estimate
OVERHEAD = 0.05  # kernel time spent per second of timed work

_M = np.random.default_rng(0).standard_normal((10, 10))


def _kernel() -> float:
    acc = 0.0
    a = _M
    for i in range(3000):
        a = a @ _M * 0.1
        acc += float(a[0, 0]) + i * 0.5
        acc += len(str({"k": i, "v": [i, i + 1]}))
    return acc


class HostSpeed:
    """Kernel timings over a run, each kept with the time it was taken."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def probe(self, samples: int = NEAREST) -> None:
        for _ in range(samples):
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            self.samples.append((0.5 * (t0 + t1), t1 - t0))

    def after(self, seconds: float) -> None:
        """Probe in proportion to the work just timed, at least once."""
        self.probe(max(1, round(OVERHEAD * seconds / REFERENCE_S)))

    def slowdown(self, t0: float, t1: float) -> float:
        """Host slowdown over [t0, t1] from the nearest kernel samples; above 1 is slow."""
        def distance(sample):
            return max(t0 - sample[0], sample[0] - t1, 0.0)

        nearest = sorted(self.samples, key=distance)[:NEAREST]
        return statistics.median(dt for _, dt in nearest) / REFERENCE_S
