"""The ordered reducer: numpy's own pairwise sum, one leaf at a time."""

import math

import numpy as np
import pytest

from roughmax.util import BLOCK, CHUNK, COMPENSATED_THRESHOLD, chunked_sum, streamed_sum


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
