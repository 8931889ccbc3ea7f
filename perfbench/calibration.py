"""A fixed reference workload, timed next to every op, that turns wall
times into reference-speed times.

The cores this benchmark runs on may be shared with other tenants.  On the
machine it was built on (a 2-vCPU virtual machine), the same op took
between 1x and 2x its best time within one minute, with phases lasting tens
of seconds, while steal time stayed near zero: the core itself ran slower.
A wall time read in such a phase measures the neighbours as much as the
program.  The benchmark therefore times this kernel before the first op and
after every op, and scales each op's wall time by ``REFERENCE_S`` over the
median of the kernel times nearest to it.  The kernel has two halves,
because contention slows the two kinds of work in the package by different
amounts: interpreter-bound dictionary and tuple work, like the memoised DPs
and the trial loops, and small numpy products, like the dense simplex's
pivots.  Over 100 s of interleaved samples, scaling by the two halves
together cut the spread of per-window medians from 10-23% to 2-4% for every
kind of op, where either half alone left 5-8% on the other kind.  The
kernel does not depend on the package, so it runs the same on every
commit.  Raw wall times are kept in the run record beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.002  # the kernel's time on the reference machine when quiet
HALF_WINDOW = 2      # kernel samples on each side of an op that scale it

_MATRIX = np.random.default_rng(0).random((60, 60))


def kernel() -> float:
    memo = {}
    total = 0.0
    for i in range(3000):
        key = (i & 63, i >> 6)
        memo[key] = memo.get((key[0] - 1, key[1]), 0.5) * 0.999 + i
    for key, value in memo.items():
        total += value if key[0] & 1 else -value
    x = np.ones(60)
    for _ in range(100):
        x = _MATRIX @ x
        x = x / x.sum()
        total += float(np.outer(x, x)[0, 0])
    return total


def time_kernel(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs.  The collector is off
    meanwhile, so the kernel's time does not depend on the size of the
    program's heap."""
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, in
    reference-speed seconds."""
    return seconds * REFERENCE_S / kernel_s


def scale_ops(latencies: list[float], kernels: list[float]) -> list[float]:
    """Scale each op by the median of the ``2 * HALF_WINDOW`` kernel times nearest
    to it (``kernels[i]`` and ``kernels[i + 1]`` bracket op ``i``).  The
    median smooths the noise of single kernel samples; on recorded runs,
    windows wider than a few ops followed the contention worse."""
    out = []
    for i, seconds in enumerate(latencies):
        window = kernels[max(0, i - HALF_WINDOW + 1): i + HALF_WINDOW + 1]
        out.append(scale(seconds, statistics.median(window)))
    return out
