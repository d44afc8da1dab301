"""The integer set {floor(h(m)) : m integer} with dual membership tests.

This module enumerates and dedups the set, tests membership and counts; a
set measures its inverse-test threshold ``p_min`` only when that is read.
It does no arithmetic of its own on h.  Every floor it reads is decided in
``growth``, next to the arithmetic it bounds: enumeration takes
``GrowthFunction._floors`` and the inverse test ``InverseFunction._floor_neg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, RangeError, ValidationError
from .growth import GrowthFunction, InverseFunction
from .util import CHUNK

N_MAX_CAP = 1 << 40
M_COUNT_CAP = 1 << 26
P_MIN_WINDOW = 1 << 16
# values of m per block of the enumeration: a block's float temporaries are
# then 64 KiB, below glibc malloc's 128 KiB mmap threshold, so they are
# recycled on the heap instead of being mapped and faulted in afresh for each
# block (in blocks of util.CHUNK, poweriterlog:1.02:1.0:2 at 2^22 took 19.3k
# minor page faults and 0.117 s, against 6.1k, the floors alone, and 0.088 s)
M_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# membership via the inverse function
# ---------------------------------------------------------------------------

def contains_via_inverse_batch(phi: InverseFunction, p: np.ndarray) -> np.ndarray:
    """Inverse-function membership test: floor(-phi(p)) - floor(-phi(p+1)) == 1.

    p is inverted once; floor(-phi(p[i] + 1)) is read off the next entry
    wherever p[i + 1] == p[i] + 1 and inverted only at the other entries, so
    a contiguous window of p inverts p.size + 1 points, in any order of p.
    Valid for p at and above the empirical threshold of the generated set.
    """
    p = np.asarray(p, dtype=np.int64)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if p.min() < phi.y0 * (1.0 - 1e-12):
        raise DomainError(
            f"p = {p.min()} below the inverse domain start {phi.y0}")
    lo = phi._floor_neg(p)
    run = np.zeros(p.size, dtype=bool)
    np.equal(p[1:], p[:-1] + 1, out=run[:-1])
    hi = np.empty_like(lo)
    hi[run] = lo[1:][run[:-1]]
    hi[~run] = phi._floor_neg(p[~run] + 1)
    return (lo - hi) == 1


# ---------------------------------------------------------------------------
# the set itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SequenceSet:
    """Sorted floors of h over the integers, in [1, n_max].

    Membership is ``_member``'s binary search on ``elements``.  The fields
    are immutable after generation; ``p_min`` is measured on first read.
    """

    growth: GrowthFunction
    n_max: int
    elements: np.ndarray       # sorted distinct int64 in [1, n_max]

    @property
    def phi(self) -> InverseFunction:
        """The inverse of ``growth``, derived on each access (one h(x0)), so
        it can never disagree with the set."""
        return self.growth.inverse()

    @cached_property
    def p_min(self) -> int:
        """Smallest p >= 16 past which the two membership tests agree up to
        P_MIN_WINDOW; a ValidationError if they disagree at its end."""
        phi = self.phi
        lo = max(16, int(math.ceil(phi.y0 - 1e-9)))
        hi = min(self.n_max - 1, P_MIN_WINDOW)
        if hi <= lo:
            return lo
        p = np.arange(lo, hi + 1, dtype=np.int64)
        agree = contains_via_inverse_batch(phi, p) == _member(self.elements, p)
        if not agree[-1] or not agree[-min(16, agree.size):].all():
            # where h' < 1 the set holds every integer, and the inverse
            # test, which needs h' > 1, cannot agree with it
            slope = float(self.growth.deriv(phi.value(float(hi)), 1))
            cause = "" if slope >= 1 else (
                f": h'(phi(p)) = {slope:.3g} < 1 at its end p = {hi}, "
                + ("so ask for a larger n_max" if hi < P_MIN_WINDOW
                   else f"and P_MIN_WINDOW = {P_MIN_WINDOW} caps the window"))
            raise ValidationError(
                "membership tests disagree through the calibration window" + cause)
        bad = np.nonzero(~agree)[0]
        return int(p[bad[-1]] + 1) if bad.size else lo


def _member(elements: np.ndarray, p):
    """Whether each p is in the sorted array ``elements``."""
    if elements.size == 0:
        return np.zeros(np.shape(p), dtype=bool)
    # a p past the last element lands on it after the clip and compares unequal
    i = np.minimum(np.searchsorted(elements, p), elements.size - 1)
    return elements[i] == p


def generate(g: GrowthFunction, n_max: int) -> SequenceSet:
    """Enumerate {floor(h(m))} ∩ [1, n_max] with exact floors near integers.

    Time and memory scale with the number of enumerated m, about phi(n_max),
    not with n_max.  The m are walked in ``M_BLOCK`` blocks, and the
    deduplicated floors are compacted to the front of the int64 floors,
    ``util.CHUNK`` at a time, so that array is the only one held at full
    length and its prefix is the elements: the peak is ~8 B per m
    (tracemalloc, 2^22 values of m on pure:1.02), plus about 1 MiB for one
    block's temporaries.  A ValidationError refuses, before
    any array is built, an n_max above N_MAX_CAP = 2^40 (from 2^53 on a float
    h(m) can lie several integers from its floor, and the error band of
    ``GrowthFunction._floors`` only chooses between the nearest integer and
    the one below) and a set needing more than M_COUNT_CAP = 2^26 values of m
    (the identity needs exactly n_max).  Floors come from
    ``GrowthFunction._floors``.
    """
    n_max = int(n_max)
    if n_max > N_MAX_CAP:
        # past 2^64, hundreds of digits: its binary order says as much
        what = f"= {n_max}" if n_max < 1 << 64 else f">= 2^{n_max.bit_length() - 1}"
        raise ValidationError(f"n_max {what} above the 2^40 cap")
    phi = g.inverse()
    if n_max < phi.y0:
        raise RangeError(f"n_max = {n_max} below h(x0) = {phi.y0}")
    x_end = float(phi.value(float(n_max) + 1.0))
    m_start = int(math.ceil(g.x0 - 1e-12))
    m_end = int(math.floor(x_end)) + 2
    if m_end < m_start:
        raise RangeError("empty enumeration range")
    # the cap leaves out the two slack values of m past x_end, so that the
    # identity still runs at n_max = 2^26
    if m_end - 2 - m_start > M_COUNT_CAP:
        raise ValidationError(
            f"n_max = {n_max} needs {m_end - 2 - m_start} values of m, "
            "above the 2^26 cap")

    floors = np.empty(m_end + 1 - m_start, dtype=np.int64)
    for i in range(0, floors.size, M_BLOCK):
        m = np.arange(m_start + i, min(m_start + i + M_BLOCK, m_end + 1),
                      dtype=np.int64)
        floors[i:i + M_BLOCK] = g._floors(m)

    # the sort is linear on the nondecreasing floors of an increasing h, and
    # keeps the dedup right where a float floor breaks that order
    floors.sort(kind="stable")
    start = int(np.searchsorted(floors, 1))
    stop = int(np.searchsorted(floors, n_max, side="right"))
    # the distinct floors in [1, n_max] are compacted to the front of the
    # array, one block at a time; writes never pass the block being read
    size, last = 0, 0
    for i in range(start, stop, CHUNK):
        block = floors[i:min(i + CHUNK, stop)]
        new = np.empty(block.size, dtype=bool)
        new[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=new[1:])
        last = block[-1]
        kept = block[new]
        floors[size:size + kept.size] = kept
        size += kept.size
    return SequenceSet(g, n_max, floors[:size])


def count(s: SequenceSet, n) -> int | np.ndarray:
    """|elements ∩ [1, n]| by binary search; n may be a scalar or an array."""
    ns = np.asarray(n)
    bad = (ns < 1) | (ns > s.n_max)
    if np.any(bad):
        raise RangeError(f"N = {ns[bad][0]} outside [1, {s.n_max}]")
    out = np.searchsorted(s.elements, ns, side="right")
    return int(out) if out.ndim == 0 else out


def verify_membership_equivalence(s: SequenceSet, lo: int, hi: int) -> int:
    """Number of p in [lo, hi] where the two membership tests disagree."""
    if lo < s.p_min:
        raise RangeError(f"lo = {lo} below the agreement threshold {s.p_min}")
    if hi > s.n_max - 1:
        raise RangeError("hi beyond n_max - 1")
    p = np.arange(lo, hi + 1, dtype=np.int64)
    agree = contains_via_inverse_batch(s.phi, p) == _member(s.elements, p)
    return int(np.count_nonzero(~agree))

