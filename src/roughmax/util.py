"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError

# Ordered, fixed-size chunking keeps every reduction bit-stable regardless of
# how the work would be split across workers.
CHUNK = 1 << 16
COMPENSATED_THRESHOLD = 1 << 20

# values per leaf of ``streamed_sum``, and points per call of phi.value and
# eta in ``expsum``, whose float temporaries are then 128 KiB.  Measured on
# the benchmark's expsum commands and on minnorm 4..19 x=5 (2 vCPU): in
# blocks of 2^15 malloc handed each block's temporaries back to the system
# and faulted them in afresh (minnorm 4..19 at --workers 1: 83k minor faults
# and 0.32 s, against 18k and 0.25 s), and blocks of 2^13 cost more per call
# under two threads (0.29 s against 0.23 s).
BLOCK = 1 << 14


def chunked_sum(values: np.ndarray) -> complex | float:
    """Deterministic sum: numpy's own pairwise sum up to COMPENSATED_THRESHOLD
    terms, above it the exact fsum of ``CHUNK``-chunk pairwise sums.

    Below the threshold pairwise summation is already accurate to ~1e-13
    relative; above it the fsum of chunk totals keeps the accumulated error
    independent of length.  This is the array form of ``streamed_sum``.
    """
    v = np.asarray(values)
    return streamed_sum(v.size, lambda a, b: v[a:b].sum(), np.iscomplexobj(v))


def streamed_sum(size: int, leaf: Callable, is_complex: bool) -> complex | float | list:
    """The bits of ``chunked_sum`` over ``size`` values that ``leaf(a, b)``
    gives, as ``np.sum`` of the contiguous values a..b-1, one leaf at a time.

    Up to COMPENSATED_THRESHOLD terms the leaves are the nodes of at most
    ``BLOCK`` values of numpy's pairwise tree, added in tree order, so the
    total has the bits of ``np.sum`` over all the values; above it each
    ``CHUNK`` chunk is such a tree, and the chunks' sums go to
    ``math.fsum``.  The leaves come left to right, and only a leaf's values
    need to exist at once.

    A leaf may instead give a 1-D array, the sums of several sequences of
    values over a..b-1: the trees add such arrays elementwise, and a list of
    totals comes back, each with the bits of its own sequence's sum.
    """
    d = 2 if is_complex else 1
    if size <= COMPENSATED_THRESHOLD:
        total = _pairwise(leaf, 0, size * d, d)
        kind = complex if is_complex else float
        sums = [kind(t) for t in np.atleast_1d(total)]
        several = np.ndim(total) > 0
    else:
        parts = np.array([_pairwise(leaf, i * d, min(CHUNK, size - i) * d, d)
                          for i in range(0, size, CHUNK)])
        # one row of chunk sums per sequence
        sums = [complex(math.fsum(c.real), math.fsum(c.imag)) if is_complex
                else math.fsum(c) for c in np.atleast_2d(parts.T)]
        several = parts.ndim > 1
    return sums if several else sums[0]


def _pairwise(leaf: Callable, start: int, n: int, d: int):
    """The sum of the node of numpy's pairwise tree over the n doubles from
    double ``start`` on, ``d`` doubles per value.  numpy splits a node of more
    than 128 doubles at n//2 rounded down to its 8-way unroll, and adds the
    halves' sums; a node of at most ``BLOCK`` values is that same sum as one
    ``np.sum``, whose 0.0 start changes at most the sign of a zero total."""
    if n <= BLOCK * d:
        return leaf(start // d, (start + n) // d)
    half = n // 2
    half -= half % 8
    return _pairwise(leaf, start, half, d) + _pairwise(leaf, start + half, n - half, d)


def map_scales(task: Callable, items: Sequence, workers: int = 1) -> list:
    """[task(i) for i in items], with the items in ascending scale order.

    With workers > 1 the tasks run on min(workers, #items) threads, largest
    scale first, as it costs about as much as the rest; the tasks must spend
    their time in numpy calls that release the GIL.  Results come back in
    scale order and the first failing scale raises, so nothing depends on
    the thread count.  A task must not touch mpmath, whose working precision
    is process-global.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [task(i) for i in items]
    # imported here, so commands that start no pool do not pay for it
    # (0.5 to 1.4 MB of peak RSS on the commands of the other workloads)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(task, i) for i in reversed(items)][::-1]
        try:
            return [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least two points for a slope")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires positive data")
    return float(np.polyfit(np.log2(x), np.log2(y), 1)[0])


def dist_to_nearest_int(t: np.ndarray | float) -> np.ndarray | float:
    """Distance to the nearest integer, |t - round(t)| with round-half-even."""
    t = np.asarray(t, dtype=float)
    d = np.abs(t - np.rint(t))
    return float(d) if d.ndim == 0 else d
