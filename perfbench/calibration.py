"""Machine-speed calibration for the latency metrics.

The machines this benchmark runs on change speed while it runs: on the
2-core container it was written on, a fixed kernel flips between about
3 ms and 5.5 ms every few seconds, on either core, and the share of time
spent slow differs from run to run.  Raw times followed it: across ten
runs of one workload the spread of the latency median reached 0.38, and
between two sets of ten runs the medians of latency and of set-up time
moved by up to 36% and 29%, with no change to the program.

So every run samples a fixed pure-Python kernel (Fraction arithmetic,
big-integer modular arithmetic and dict work) about once a second, and
the gated latencies are the raw ones times REFERENCE_MS over the mean
kernel time of the run.  The mean, not the median, because the slowdown
of a run grows with the share of time the machine spent slow.  Set-up
steps run once each, at one moment of the run, so each is rescaled by
kernel samples taken just before and after it (at_reference_speed).  The
kernel does not call the program.  Raw times are printed next to the
gated ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Kernel time that defines the reference speed: its fast-state time on the
# machine the benchmark was written on.
REFERENCE_MS = 3.0

# Seconds between kernel samples during a run.
INTERVAL_S = 1.0


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    x = 3**2000
    m = 10**600 + 7
    for i in range(100):
        x = (x * 7 + i) % m
    d: dict[int, int] = {}
    for i in range(7000):
        d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - t0


def kernel_ms(runs: int = 3) -> float:
    """One sample: median kernel time over `runs` runs, in milliseconds."""
    return statistics.median(kernel() for _ in range(runs)) * 1e3


def speed_factor(samples_ms: list[float]) -> float:
    """How much slower than the reference the machine ran: 1.2 means 20%."""
    return statistics.fmean(samples_ms) / REFERENCE_MS


def at_reference_speed(timed) -> float:
    """Call timed(), which returns a wall time in seconds, between two kernel
    samples, and return that time rescaled to the reference speed by their
    mean: for set-up steps, which run once each at some moment of the run
    rather than all through it."""
    before = kernel_ms()
    seconds = timed()
    return seconds * REFERENCE_MS * 2 / (before + kernel_ms())
