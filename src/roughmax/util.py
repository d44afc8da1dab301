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


def chunked_sum(values: np.ndarray) -> complex | float:
    """Deterministic sum: numpy's own pairwise sum up to COMPENSATED_THRESHOLD
    terms, above it the exact fsum of ``CHUNK``-chunk pairwise sums.

    Below the threshold pairwise summation is already accurate to ~1e-13
    relative; above it the fsum of chunk totals keeps the accumulated error
    independent of length.  This is the array form of ``streamed_sum``.
    """
    v = np.asarray(values)
    return streamed_sum(v.size, lambda a, b: v[a:b].sum(), np.iscomplexobj(v))


def streamed_sum(size: int, leaf: Callable, is_complex: bool) -> complex | float:
    """The bits of ``chunked_sum`` over ``size`` values that ``leaf(a, b)``
    gives, as ``np.sum`` of the contiguous values a..b-1, one leaf at a time.

    Up to COMPENSATED_THRESHOLD terms the leaves are the nodes of at most
    ``CHUNK`` values of numpy's pairwise tree, added in tree order, so the
    total has the bits of ``np.sum`` over all the values; above it they are
    the ``CHUNK`` chunks whose sums go to ``math.fsum``.  Only a leaf's
    values need to exist at once.
    """
    if size <= COMPENSATED_THRESHOLD:
        d = 2 if is_complex else 1
        total = _pairwise(leaf, 0, size * d, d)
        return complex(total) if is_complex else float(total)
    parts = [leaf(i, min(i + CHUNK, size)) for i in range(0, size, CHUNK)]
    if is_complex:
        return complex(math.fsum(p.real for p in parts),
                       math.fsum(p.imag for p in parts))
    return math.fsum(float(p) for p in parts)


def _pairwise(leaf: Callable, start: int, n: int, d: int):
    """The sum of the node of numpy's pairwise tree over the n doubles from
    double ``start`` on, ``d`` doubles per value.  numpy splits a node of more
    than 128 doubles at n//2 rounded down to its 8-way unroll, and adds the
    halves' sums; a node of at most ``CHUNK`` values is that same sum as one
    ``np.sum``, whose 0.0 start changes at most the sign of a zero total."""
    if n <= CHUNK * d:
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
