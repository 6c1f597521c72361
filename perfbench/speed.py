"""Machine-speed reference, to calibrate wall times on a shared host.

On a shared virtual machine the speed of one core drifts by tens of
percent over seconds to minutes, with the neighbours' load. Timing a
fixed reference kernel (small numpy matmuls and chain-step-like array
operations driven from Python, the mix of the program's hot paths; it
never calls the program) next to each program call measures that drift.
A calibrated time is

    measured wall time * NOMINAL_S / reference time,

the time the call would take on a machine where the kernel takes
NOMINAL_S. The program cannot change the kernel, so a change to the
program moves calibrated times as it moves raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.020
REPEATS = 3


def _kernel() -> int:
    rng = np.random.default_rng(0)
    acc = 0
    # BF-sweep-like: small int16 matmuls, with Python dict work in between
    a = rng.integers(-1, 2, size=(40, 40)).astype(np.int16)
    for i in range(100):
        b = a @ a - a
        acc += int(np.count_nonzero(b > 0))
        acc += sum({j: j * i for j in range(100)}.values())
    # chain-step-like: gather, exp, cumsum and searchsorted at the sizes of
    # K=40 with triangle checks and K=14 with plaquette checks
    for n, m, degree, steps in ((780, 9880, 38, 60), (91, 91, 4, 300)):
        x = rng.random(n)
        s = np.ones(m, dtype=np.int8)
        adj = rng.integers(0, m, size=(n, degree))
        for _ in range(steps):
            w = np.exp(np.minimum(0.0, -x * s[adj].sum(axis=1)))
            c = np.cumsum(w)
            k = int(np.searchsorted(c, c[-1] * 0.5))
            s[adj[k]] = -s[adj[k]]
            acc += int(c[-1])
    return acc


def reference_s() -> float:
    """Median wall time of REPEATS runs of the reference kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def calibrate(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds bracketed by two reference times, at nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))
