"""Reference kernels that gauge the host's speed next to every solve.

On a shared host the speed a process gets drifts by a third over minutes,
with the load of other tenants, and the drift moves whole runs. Each kernel
below does a fixed piece of numpy work shaped like one of the library's hot
loops, with no call into ``hyperconv``, so a change to the library cannot move
it. Timed right before and right after a solve, it tells how fast the host
ran during that solve.

* ``rows``: short-array numpy calls in a Python loop, like the per-row loop of
  ``shell_pair_norm_sq`` and the per-cell loop of the field sampler;
* ``tables``: whole-array passes over n x n tables (elementwise products,
  gathers, cumulative sums, ``bincount``), like ``SliceEngine``.

Each workload names the kernels that match its hot loops, and the reference
time of a solve is the sum of their times, averaged over the calls before and
after it. ``NOMINAL_S`` holds each kernel's typical time on the host the
benchmark was tuned on (a 2-vCPU KVM guest, Intel Xeon, Python 3.11, numpy
2.4), so that a corrected time ``solve * nominal / reference`` reads in that
host's seconds.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"rows": 0.2, "tables": 0.2}

_ROW_X = np.linspace(0.0, 1.0, 512)
_TABLE_N = 800


def rows() -> float:
    acc = 0.0
    x = _ROW_X
    for i in range(9000):
        j = i % 300
        idx = np.arange(j, j + 96)
        v = x[idx] * x[511 - idx]
        c = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]))])
        acc += float(np.interp(0.37, x[idx], c)) + float(np.clip(v, 0.1, 0.9).sum())
    return acc


def tables() -> float:
    n = _TABLE_N
    a = np.linspace(0.0, 1.0, n * n).reshape(n, n)
    cols = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    acc = 0.0
    for _ in range(15):
        b = np.take_along_axis(a, cols, axis=1) * a.T
        c = np.cumsum(b, axis=1)
        acc += float(np.bincount(cols.ravel(), weights=c.ravel(), minlength=n).sum())
        acc += float(np.sum(np.where(b > 0.25, c, 0.0)))
    return acc


KERNELS = {"rows": rows, "tables": tables}


def reference_time(names) -> float:
    """Wall time of one call of each named kernel, in total."""
    t = time.perf_counter()
    for name in names:
        KERNELS[name]()
    return time.perf_counter() - t


def nominal_time(names) -> float:
    return sum(NOMINAL_S[name] for name in names)
