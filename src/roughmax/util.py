"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError

# Ordered, fixed-size chunking keeps every reduction bit-stable regardless of
# how the work would be split across workers.
CHUNK = 1 << 16
COMPENSATED_THRESHOLD = 1 << 20

# values per leaf of ``streamed_sum``, and points per call of phi.value and
# eta in ``expsum``, whose stack rows are then 128 KiB each; phi.value also
# solves any array BLOCK points at a time.  Measured on minnorm 4..19 x=5
# (2 vCPU, medians of 6 fresh runs at --workers 1 / 2): blocks of 2^13 took
# 0.15 / 0.19 s and 0.3k / 0.5k minor faults, 2^14 0.13 / 0.12 s and 0.7k /
# 1.0k, 2^15 0.12 / 0.10 s and 1.6k / 2.0k; but 2^15 doubles the stack each
# thread holds, and peak RSS went from 32.1 / 33.4 MB to 32.9 / 35.1 MB.
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
    the thread count: once a scale has failed, the threads take the scales
    left smallest first, as the loop would, and start none above a failure,
    whose error could not be the first.  Every thread has ended when the
    call returns or raises.  A task must not touch mpmath, whose working
    precision is process-global.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [task(i) for i in items]
    results = [None] * len(items)
    todo = list(range(len(items)))
    failed = {}         # index -> the error its task raised
    lock = threading.Lock()

    def run():
        while True:
            with lock:
                if not todo or (failed and todo[0] > min(failed)):
                    return
                i = todo.pop(0) if failed else todo.pop()
            try:
                results[i] = task(items[i])
            except BaseException as exc:
                with lock:
                    failed[i] = exc

    threads = [threading.Thread(target=run) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failed:
        raise failed[min(failed)]
    return results


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least two points for a slope")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires positive data")
    return float(np.polyfit(np.log2(x), np.log2(y), 1)[0])


def dist_to_nearest_int(t: np.ndarray | float, out=None) -> np.ndarray | float:
    """Distance to the nearest integer, |t - round(t)| with round-half-even,
    into ``out`` (a float array of t's shape, not t itself) when given."""
    t = np.asarray(t, dtype=float)
    d = np.empty_like(t) if out is None else out
    np.abs(np.subtract(t, np.rint(t, out=d), out=d), out=d)
    return float(d) if d.ndim == 0 else d
