"""The ordered reducer: numpy's own pairwise sum, one leaf at a time; and
the scale runner, whose results and errors do not depend on its threads."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from roughmax.util import (
    BLOCK,
    CHUNK,
    COMPENSATED_THRESHOLD,
    chunked_sum,
    map_scales,
    streamed_sum,
)


def bits(z) -> list:
    """The IEEE bits of a float or complex, as integers."""
    return np.array([z], dtype=complex).view(np.uint64).tolist()


def fsum_of_chunks(v):
    """The sum above COMPENSATED_THRESHOLD terms: the exact fsum of the
    pairwise sums of CHUNK-element chunks, real and imaginary apart."""
    parts = [v[i:i + CHUNK].sum() for i in range(0, v.size, CHUNK)]
    if np.iscomplexobj(v):
        return complex(math.fsum(p.real for p in parts),
                       math.fsum(p.imag for p in parts))
    return math.fsum(float(p) for p in parts)


def reference(v):
    if v.size <= COMPENSATED_THRESHOLD:
        return complex(v.sum()) if np.iscomplexobj(v) else float(v.sum())
    return fsum_of_chunks(v)


def values(rng, size, is_complex):
    """Terms over many orders of magnitude, so a change of grouping shows."""
    v = rng.normal(size=size) * np.exp(rng.normal(scale=8.0, size=size))
    if is_complex:
        v = v + 1j * rng.normal(size=size) * np.exp(rng.normal(scale=8.0, size=size))
    return v


SIZES = sorted(set(range(301)) | {
    CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
    COMPENSATED_THRESHOLD, COMPENSATED_THRESHOLD + 1,
    *np.random.default_rng(20).integers(CHUNK, 2 * COMPENSATED_THRESHOLD, 20).tolist()})


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_the_reducer_is_np_sum_then_a_fsum_of_chunks(is_complex):
    # np.sum's bits up to 2^20 terms, the chunks' fsum above: a numpy change
    # to its pairwise tree fails here rather than in a table
    rng = np.random.default_rng(21)
    for size in SIZES:
        v = values(rng, size, is_complex)
        got = chunked_sum(v)
        assert type(got) is (complex if is_complex else float)
        assert bits(got) == bits(reference(v)), size
    for size in (1000, CHUNK + 1, COMPENSATED_THRESHOLD + 1):
        zeros = np.full(size, -0.0, dtype=complex if is_complex else float)
        assert bits(chunked_sum(zeros)) == bits(reference(zeros)) == bits(0.0)


@pytest.mark.parametrize("size", [CHUNK - 1, 5 * CHUNK + 3, COMPENSATED_THRESHOLD,
                                  COMPENSATED_THRESHOLD + 1])
def test_the_leaves_cover_the_terms_once_in_order(size):
    # only a leaf's values need to exist at once: at most BLOCK of them, each
    # asked for once, from the first term to the last
    rng = np.random.default_rng(size)
    v = values(rng, size, True)
    leaves = []

    def leaf(a, b):
        leaves.append((a, b))
        return v[a:b].copy().sum()

    assert bits(streamed_sum(size, leaf, True)) == bits(chunked_sum(v))
    assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]]
    assert leaves[-1][1] == size
    assert all(0 < b - a <= BLOCK for a, b in leaves)


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("size", [BLOCK + 5, COMPENSATED_THRESHOLD,
                                  COMPENSATED_THRESHOLD + CHUNK + 7])
def test_a_leaf_of_several_sums_gives_each_its_own_bits(size, is_complex):
    # one pass over the leaves sums three sequences at once, each with the
    # bits of its own reduction, on both sides of the threshold
    rng = np.random.default_rng(size)
    vs = [values(rng, size, is_complex) for _ in range(3)]

    def leaf(a, b):
        return np.array([v[a:b].sum() for v in vs])

    got = streamed_sum(size, leaf, is_complex)
    assert [type(g) for g in got] == [complex if is_complex else float] * 3
    assert [bits(g) for g in got] == [bits(chunked_sum(v)) for v in vs]


# ---------------------------------------------------------------------------
# the scale runner
# ---------------------------------------------------------------------------

class ScaleFailed(Exception):
    pass


def scale_task(started, failing):
    """A task that notes each scale it starts, raises at the scales of
    ``failing`` at once, and takes (scale + 1) * 20 ms at every other."""
    def task(scale):
        started.append(scale)
        if scale in failing:
            raise ScaleFailed(f"scale {scale}")
        time.sleep(0.02 * (scale + 1))
        return scale * scale
    return task


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_map_scales_runs_the_largest_first_and_returns_in_scale_order(workers):
    threads = threading.active_count()
    started = []
    assert map_scales(scale_task(started, ()), range(6), workers) == [
        s * s for s in range(6)]
    assert threading.active_count() == threads
    # the first threads take the largest scales, one scale each
    assert set(started[:min(workers, 6)]) == set(range(6)[-min(workers, 6):])
    assert sorted(started) == list(range(6))


def test_map_scales_runs_each_scale_once_under_switching_threads():
    # more threads than cores, switching as often as the interpreter allows:
    # a lost update to the shared scale list would run a scale twice or never
    threads = threading.active_count()
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = map_scales(lambda s: ran.append(s) or -s, range(500), 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [-s for s in range(500)]
    assert sorted(ran) == list(range(500))
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2])
def test_map_scales_raises_the_first_failing_scale_and_starts_none_above_it(workers):
    # scales 7 and 1 fail.  The loop stops at 1; so do the threads: 7 fails
    # at once, the scales below it go smallest first, and once 1 has failed
    # no scale above it starts, so 2..5 never run.  Only 6, which a second
    # thread may take before 7 fails, runs beside them.
    threads = threading.active_count()
    started = []
    with pytest.raises(ScaleFailed, match="scale 1$"):
        map_scales(scale_task(started, {7, 1}), range(8), workers)
    assert threading.active_count() == threads
    assert {0, 1} <= set(started) <= {0, 1, 6, 7}
    assert len(started) == len(set(started))
    if workers == 1:
        assert started == [0, 1]
