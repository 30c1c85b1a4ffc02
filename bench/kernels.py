"""Calibration kernels for the in-process workloads.

Each kernel is fixed numpy code that does not depend on this repository
and does the same kind of work as the workload it calibrates:

- "vector" works on a few thousand rows at once with matrix products,
  comparisons and masked updates, as the batched orthant projector of
  safe-test-orders and power-grid does;
- "vector2" runs two copies of "vector" at once in two threads, as
  power-grid at workers=2 does, so it also sees how busy the second core is;
- "scalar" runs a Python loop of small-array numpy calls, as the exact
  cone enumeration of distance-stats does.

On a shared host the speed of such code moves between states within
seconds. A kernel timed just before and just after an operation moves with
it, so the operation's time divided by the kernel's time is steadier than
either. measure() is the kernel time a run uses: the fastest of a few
repetitions, so a single interruption does not count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REPEATS = 3

_ROWS = np.cos(np.arange(4096 * 6.0)).reshape(4096, 6)
_GAIN = np.eye(6) + 0.1
_SMALL = np.arange(64.0).reshape(8, 8) / 64.0 + 2.0 * np.eye(8)


def _vector():
    best = np.full(len(_ROWS), np.inf)
    for j in range(12):
        theta = _ROWS @ (_GAIN * (1.0 + 0.01 * j))
        feasible = np.all(theta >= -0.5, axis=1)
        diff = _ROWS - theta
        obj = np.einsum("ni,ij,nj->n", diff, _GAIN, diff)
        take = feasible & (obj < best)
        best[take] = obj[take]
    return best


def _scalar():
    x, acc = np.ones(8), 0.0
    for _ in range(400):
        x = np.linalg.solve(_SMALL, x + 1.0)
        acc += float(x @ x)
        x = x / np.sqrt(acc)
    return acc


def _vector2():
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda _: _vector(), range(2)))


KERNELS = {"vector": _vector, "vector2": _vector2, "scalar": _scalar}


def measure(name):
    """Seconds of the named kernel: the fastest of REPEATS runs."""
    fn = KERNELS[name]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
