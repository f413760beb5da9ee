"""A fixed piece of work that uses no cvsteer, timed to gauge the host's speed.

On a shared 2-vCPU host the same op ran 25-45% slower or faster from one
minute to the next, because of load from outside the container.  Longer runs
did not average this out, since the drift is slower than a run.  The
benchmark therefore times this kernel between ops and divides each op time
by the kernel's median time near it (in the same tenth of the run), relative
to REFERENCE_NS.  The kernel mixes
what the workloads do: small-matrix LAPACK calls, interpreted Python and a
pass over arrays larger than the L2 cache.  Nothing in it depends on cvsteer,
so a change to cvsteer moves the normalised times as much as the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

# Median of time_ns() on the reference host (2 vCPU Xeon at 2.1 GHz, Python
# 3.11, numpy 2.4, one BLAS thread).  Normalised times are on that scale.
REFERENCE_NS = 2_500_000

_SMALL = np.array([[2.0, 0.3, 0.9, 0.0], [0.3, 2.0, 0.0, -0.9],
                   [0.9, 0.0, 2.0, 0.3], [0.0, -0.9, 0.3, 2.0]])
_BIG = np.linspace(0.0, 1.0, 1 << 19)   # 4 MiB, the size of the L2 cache


def _kernel() -> float:
    total = 0.0
    for k in range(80):
        total += float(np.linalg.eigvalsh(_SMALL + 0.01 * k)[0])
    total += sum(i * i for i in range(10_000)) * 1e-12
    for _ in range(3):
        total += float(np.dot(_BIG, _BIG))
    return total


def time_ns() -> int:
    """Wall time of one run of the kernel."""
    start = perf_counter_ns()
    _kernel()
    return perf_counter_ns() - start


def host_factor(samples_ns) -> float:
    """How much slower than the reference host this run's host was (>1 = slower)."""
    return statistics.median(samples_ns) / REFERENCE_NS
