"""The machine's current speed, from a fixed reference kernel.

The benchmark runs on shared hosts whose speed changes by tens of percent
over seconds, as neighbours come and go. A fixed kernel, timed between
ops, measures that change: its work never changes, so any change in its
time is the machine's. The worker divides each measured time by the speed
the kernel saw around it, which gives the time at *reference speed*, the
speed at which the kernel takes ``REFERENCE_S``.

The kernel mixes what the workloads spend their time on: small numpy
calls inside Python loops (the amplitude sampler), sorting arrays of 10^4
points (outcome laws) and a dense Schur factorisation (the walk
reflections). It touches nothing of ``qmcs``, and it runs with the garbage
collector off, so the program's heap cannot change its time.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.linalg

# The kernel's median time, over several minutes, on the machine the
# benchmark was written on (2 shared vCPUs of an Intel Xeon, Python 3.11,
# numpy 2.4, scipy 1.17, 1 BLAS thread). It only sets the unit: it is a
# constant, so both sides of a comparison use the same one.
REFERENCE_S = 0.0029

_RNG = np.random.default_rng(20150424)
_SMALL = _RNG.random(64)
_INTS = _RNG.integers(0, 50, 200)
_LARGE = _RNG.random(10_000)
_DENSE = _RNG.random((30, 30))


def _kernel() -> float:
    acc = 0.0
    for _ in range(40):
        u = np.unique(_INTS)
        x = np.cumsum(_SMALL) * 0.5 + np.sin(_SMALL)
        d = {i: i * 0.5 for i in range(32)}
        acc += float(x[-1]) + len(u) + sum(d.values())
    for _ in range(12):
        acc += float(np.sort(_LARGE)[5000])
    t, _z = scipy.linalg.schur(_DENSE, output="complex")
    return acc + float(abs(t[0, 0]))


def reference_seconds() -> float:
    """Time the kernel now: the faster of two runs, with gc off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best
