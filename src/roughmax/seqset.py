"""The integer set {floor(h(m)) : m integer} with dual membership tests.

Floors are never trusted to plain float arithmetic.  Enumeration settles any
h(m) within its error bound, 4 (1 + |c log m| + |lam(m)|) ulps, of an integer,
and the inverse test any phi(p) within max(10 * INVERSE_TOL * |phi(p)|, 8 ulp)
of one, by a sign test of h(r) - y at the nearest integer r: in exact
integers for a pure power whose exponent is a rational of small denominator,
at 60 digits for every other h; neither path has a second stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import (
    DomainError,
    RangeError,
    SequenceOverflowError,
    ValidationError,
)
from .growth import INVERSE_TOL, MP_DPS, GrowthFunction, InverseFunction
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
MP_ZERO_BAND = mpmath.mpf("1e-40")


# ---------------------------------------------------------------------------
# guarded floors
# ---------------------------------------------------------------------------

def _sign_at_integer(g: GrowthFunction, r: int, y: int) -> int:
    """Sign of h(r) - y, for an integer r >= 1 and an integer y >= 0.

    A rational pure power h = (a/b) x^(p/q) is settled exactly, as the sign
    of a^q r^p - b^q y^q in integers; any other h at 60 digits, with
    |h(r) - y| below 1e-40 * y treated as exact zero.
    """
    if g._exact is not None:
        p, q, aq, bq = g._exact
        d = aq * r ** p - bq * y ** q
        return (d > 0) - (d < 0)
    with mpmath.workdps(MP_DPS):
        s = g.value_mp(r) - y
        if abs(s) <= MP_ZERO_BAND * max(1, abs(y)):
            return 0
        return 1 if s > 0 else -1


def _floor_neg_phi_batch(phi: InverseFunction, p: np.ndarray) -> np.ndarray:
    """floor(-phi(p)) for each p, with the floor decided, never guessed.

    phi is inverted once; a value x within max(10 * INVERSE_TOL * |x|, 8 ulp)
    of an integer r is settled by the sign test of h(r) - p.
    """
    x = np.asarray(phi.value(p.astype(float)), dtype=float)
    r = np.rint(x)
    band = np.maximum(10.0 * INVERSE_TOL * np.abs(x), 8.0 * np.spacing(np.abs(x)))
    out = -np.ceil(x).astype(np.int64)
    for j in np.nonzero(np.abs(x - r) <= band)[0]:
        rj = int(r[j])
        # s < 0: h(r) < p so phi(p) > r and ceil = r + 1; otherwise ceil = r
        s = _sign_at_integer(phi.source, rj, int(p[j]))
        out[j] = -(rj + 1) if s < 0 else -rj
    return out


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
    lo = _floor_neg_phi_batch(phi, p)
    run = np.zeros(p.size, dtype=bool)
    np.equal(p[1:], p[:-1] + 1, out=run[:-1])
    hi = np.empty_like(lo)
    hi[run] = lo[1:][run[:-1]]
    hi[~run] = _floor_neg_phi_batch(phi, p[~run] + 1)
    return (lo - hi) == 1


# ---------------------------------------------------------------------------
# the set itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceSet:
    """Sorted floors of h over the integers, in [1, n_max].

    Membership is ``_member``'s binary search on ``elements``.  Immutable
    after generation.
    """

    growth: GrowthFunction
    n_max: int
    elements: np.ndarray       # sorted distinct int64 in [1, n_max]
    p_min: int                 # inverse-test agreement threshold

    @property
    def phi(self) -> InverseFunction:
        """The inverse of ``growth``, derived on each access (one h(x0)), so
        it can never disagree with the set."""
        return self.growth.inverse()


def _member(elements: np.ndarray, p):
    """Whether each p is in the sorted array ``elements``."""
    if elements.size == 0:
        return np.zeros(np.shape(p), dtype=bool)
    # a p past the last element lands on it after the clip and compares unequal
    i = np.minimum(np.searchsorted(elements, p), elements.size - 1)
    return elements[i] == p


def _floors(g: GrowthFunction, m: np.ndarray) -> np.ndarray:
    """floor(h(m)) for each integer m, with the floor decided, never guessed.

    The float h(m) = C_h exp(c log m + lam(m)) takes these rounding steps.
    Each product and sum lands within u = 2^-53 of its result, and each libm
    log, exp and pow within e u, where e is twice its worst error in ulps:
    e = 1 if correctly rounded, but numpy's reach 0.60, 0.70 and 0.69 ulp
    (e_log = 1.2, e_exp = 1.4, e_pow = 1.4; ``tests/test_seqset.py::
    test_libm_error_fits_the_floor_band`` measures them on the running
    machine).  log m and the scale by c put (e_log + 1) u |c log m| into the
    exponent; lam(m) puts in u (alpha + beta |lam|), with (alpha, beta) =
    (|a| e_log, e_log + 1) for powerlog, (0, b e_log + e_pow + 1) for
    powerexplog and (k e_log, e_log) for k nested logs (iterated logs are
    >= 1 on the domain); the add puts in u (|c log m| + |lam|).  exp turns
    that absolute error into a relative one and adds e_exp u, and the scale
    by C_h adds u.  The relative error of h(m) is thus below
    u ((1 + e_exp + alpha) + (e_log + 2) |c log m| + (beta + 1) |lam|), at
    most 3.75 u (1 + |c log m| + |lam|) for the measured e on the growths of
    the test, so below K u (1 + |c log m| + |lam|) with K = 4; and u |h| <
    spacing(h).  So a float h(m) farther than K (1 + |c log m| + |lam(m)|)
    ulps from every integer has the exact floor, and one within that band is
    settled by the sign test of h(m) against the nearest integer, exact for
    a rational pure power and at 60 digits otherwise.
    """
    mf = m.astype(float)
    v = np.asarray(g.value(mf), dtype=float)
    # a NaN or an infinity fails the comparison too
    if not v.max() < float(1 << 62):
        raise SequenceOverflowError("h(m) exceeds the 64-bit integer range")
    if g.variant.value == "pure" and g.c == 1.0 and g.c_h == 1.0:
        return m.copy()
    floors = v.astype(np.int64)     # h > 0, so truncation is the floor
    r = np.rint(v)
    dist = v - r
    np.abs(dist, out=dist)
    # lam = log(h/C_h) - c log m puts the band below K (1 + 2 |c| log m +
    # |log(h/C_h)|), whose maximum over the m given is one scalar; only the
    # values inside that wider band, taken with v 2^-52 >= spacing(v), pay
    # for the spacing and the per-m logs
    t_max = np.abs(np.log(np.array([v.min(), v.max()]) / g.c_h)).max()
    wide = 4.0 * (1.0 + 2.0 * abs(g.c) * math.log(m.max()) + t_max)
    cand = np.nonzero(dist <= (wide * 2.0 ** -52) * v)[0]
    c_log_m = g.c * np.log(mf[cand])
    lam = np.log(v[cand] / g.c_h) - c_log_m
    band = 4.0 * (1.0 + np.abs(c_log_m) + np.abs(lam)) * np.spacing(v[cand])
    for j in cand[dist[cand] <= band]:
        ri = int(r[j])
        s = _sign_at_integer(g, int(m[j]), ri)
        # h(m) >= ri exactly when s >= 0, so the floor is ri; else ri - 1
        floors[j] = ri if s >= 0 else ri - 1
    return floors


def generate(g: GrowthFunction, n_max: int) -> SequenceSet:
    """Enumerate {floor(h(m))} ∩ [1, n_max] with exact floors near integers.

    Time and memory scale with the number of enumerated m, about phi(n_max),
    not with n_max.  The m are walked in ``M_BLOCK`` blocks, and the
    deduplicated floors are compacted to the front of the int64 floors,
    ``util.CHUNK`` at a time, so that array is the only one held at full
    length and its prefix is the elements: the peak is ~8 B per m
    (tracemalloc, 2^22 values of m on pure:1.02), plus a few MiB for the
    calibration window.  A ValidationError refuses, before
    any array is built, an n_max above N_MAX_CAP = 2^40 (from 2^53 on a float
    h(m) can lie several integers from its floor, and the error band of
    ``_floors`` only chooses between the nearest integer and the one below)
    and a set needing more than M_COUNT_CAP = 2^26 values of m (the identity
    needs exactly n_max).  Floors come from ``_floors``.
    """
    n_max = int(n_max)
    if n_max > N_MAX_CAP:
        raise ValidationError(f"n_max = {n_max} above the 2^40 cap")
    y0 = float(g.value(g.x0))
    if n_max < y0:
        raise RangeError(f"n_max = {n_max} below h(x0) = {y0}")
    phi = g.inverse()
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
        floors[i:i + M_BLOCK] = _floors(g, m)

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
    elements = floors[:size]

    p_min = _calibrate_p_min(phi, elements, n_max, y0)
    return SequenceSet(g, n_max, elements, p_min)


def _calibrate_p_min(phi, elements, n_max, y0) -> int:
    """Smallest p >= 16 past which the two membership tests agree on a window."""
    lo = max(16, int(math.ceil(y0 - 1e-9)))
    hi = min(n_max - 1, P_MIN_WINDOW)
    if hi <= lo:
        return lo
    p = np.arange(lo, hi + 1, dtype=np.int64)
    agree = contains_via_inverse_batch(phi, p) == _member(elements, p)
    if not agree[-1] or not agree[-min(16, agree.size):].all():
        raise ValidationError(
            "membership tests disagree through the calibration window")
    bad = np.nonzero(~agree)[0]
    return int(p[bad[-1]] + 1) if bad.size else lo


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

