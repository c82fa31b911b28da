"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is a shared VM whose cores switch between two speeds,
about 1.5x apart for pure Python and 1.8x for numpy loops, in spells from
under a second to many minutes.  A spell as long as a whole run moves every
wall time in it, and no estimator inside the run can see past it.  The ratio
of an op's time to this kernel's time next to it does not move: both slow
down together.

run.py times the kernel between every two ops and reports each op's time
scaled to REFERENCE_MS, the kernel's time at the reference speed:

    op_ms * REFERENCE_MS / (mean of the kernel times just before and after)

The kernel is the benchmark's own code and calls nothing in slespec, so a
change to the library moves the scaled times exactly as it moves the wall
times.  It mixes a pure-Python loop with small numpy array ops, like the
workloads.  Raw wall times stay in the report line.
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's wall time at the reference speed: about its fastest on a
# 2-core Intel Xeon VM at 2.0 GHz with Python 3.11 and numpy 2.4.
REFERENCE_MS = 3.2

_LANES = np.linspace(0.1, 0.9, 512) * np.exp(1j * np.linspace(0.0, 6.0, 512))


def _kernel() -> float:
    s = 0
    for i in range(25000):
        s += i * i % 7
    z = _LANES
    for _ in range(150):
        z = (z * z + _LANES) * 0.5
    return s + float(z.real[0])


def sample_ms() -> float:
    """Wall time of one run of the reference kernel, in ms."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3
