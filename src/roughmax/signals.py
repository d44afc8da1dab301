"""Finitely supported real functions on the integers, and their convolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import SignalSizeError
from .util import CHUNK

MAX_SUPPORT = 1 << 30
# the transform length from which the power spectrum is taken as
# conj(f) * f rather than f * conj(f).  The two orders round apart in the
# last bits, and every table was made with ``f * f.conj()``, which numpy's
# temporary elision computes as conj(f) * f in the conj buffer once that
# buffer, n/2 + 1 complex values, reaches 256 KiB: from n = 2^15 on
POWER_ORDER_SWAP = 1 << 15


def check_size(size: int, what: str) -> None:
    """Refuse ``what``, a description that names its size, above MAX_SUPPORT."""
    if size > MAX_SUPPORT:
        raise SignalSizeError(f"{what} exceeds MAX_SUPPORT = {MAX_SUPPORT}")


@dataclass(frozen=True, eq=False)
class Signal:
    """Dense values over a contiguous index window starting at ``offset``.

    Construction trims leading and trailing zeros, so two signals with equal
    content (offset and values) compare equal.  Immutable; unhashable.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        self._hold(np.asarray(self.values, dtype=float), copy=True)

    def __eq__(self, other):
        if not isinstance(other, Signal):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.values, other.values)

    def _hold(self, v: np.ndarray, copy: bool) -> None:
        lo, hi = _nonzero_ends(v)
        object.__setattr__(self, "offset", int(self.offset) + lo if hi else 0)
        v = v[lo:hi].copy() if copy else v[lo:hi]
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _own(cls, offset: int, values: np.ndarray) -> "Signal":
        """The signal of a float array built for it and held by no one else:
        trimmed by a view and made read-only in place, never copied."""
        s = object.__new__(cls)
        object.__setattr__(s, "offset", offset)
        s._hold(values, copy=False)
        return s

    @staticmethod
    def zero() -> "Signal":
        return Signal(0, np.zeros(0))

    @staticmethod
    def delta(pos: int, amp: float = 1.0) -> "Signal":
        return Signal(pos, np.array([amp], dtype=float))

    @staticmethod
    def from_dict(items: dict) -> "Signal":
        if not items:
            return Signal.zero()
        lo = min(items)
        hi = max(items)
        v = np.zeros(hi - lo + 1)
        for x, val in items.items():
            v[x - lo] = float(val)
        return Signal._own(lo, v)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    @property
    def support(self) -> tuple[int, int]:
        """Closed index range [lo, hi] of the stored window; (0, -1) if zero."""
        if self.is_zero:
            return (0, -1)
        return (self.offset, self.offset + self.values.size - 1)

    def sum(self) -> float:
        return float(self.values.sum())

    def l1(self) -> float:
        return float(np.abs(self.values).sum())

    def linf(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def to_dict(self) -> dict:
        return {self.offset + i: float(v)
                for i, v in enumerate(self.values) if v != 0.0}


def convolve(a: Signal, b: Signal, method: str = "direct") -> Signal:
    """Discrete convolution; ``direct`` is the multiply-add oracle, ``fast``
    runs ``_Segments`` on one kernel, with the narrower signal as f and the
    nonzeros of the other as the kernel's points, its blocks written into a
    zero output.  The two agree within 1e-9 per coefficient.
    """
    if method not in ("direct", "fast"):
        raise ValueError(f"unknown convolution method {method!r}")
    if a.is_zero or b.is_zero:
        return Signal.zero()
    out_len = a.values.size + b.values.size - 1
    check_size(out_len, f"convolution output support {out_len}")
    if method == "direct":
        v = np.convolve(a.values, b.values)
    else:
        f, k = sorted((a, b), key=lambda s: s.values.size)
        nz = np.flatnonzero(k.values)
        v = np.zeros(out_len)
        origin = a.offset + b.offset
        pos, vals = nz + k.offset, k.values[nz]
        seg = _Segments(f)
        for batch in seg.batches(pos):
            for start, block in seg.outputs(pos, batch, lambda i, j: vals[i:j]):
                v[start - origin:start - origin + block.size] = block
    return Signal._own(a.offset + b.offset, v)


# Points per overlap-save batch.  Smaller batches hold a few MB less, but
# then every transform maps pocketfft's scratch afresh: weaktype on pure:1.9
# 16..24 with random:32:1 took 7.1-7.2 s and 1.0-1.1M minor faults with
# 2^16- or 2^17-point batches, against 4.9-5.5 s and 26k with 2^18 (2 vCPU).
BATCH = 1 << 18


class _Segments:
    """The overlap-save segments of f * k, for any kernel k given as points.

    A kernel is given as its points: ascending int64 ``pos`` with nonzero
    values at both ends, and ``values(a, b)``, the values of pos[a:b].  f is
    transformed once, at the power of two L >= 4 * width(f).  The kernel,
    zero outside its points, is cut into length-L segments with step
    B = L - width(f) + 1, anchored at pos[0], whose circular convolutions
    with f each hold B linear outputs.  Segments go through the transform
    ``rows = max(1, BATCH // L)`` at a time: a batch is the rows
    r0..r0+count-1 of that grid, and ``batches`` names the ones that hold a
    point (found by ``np.searchsorted``) before any is transformed; a
    segment that holds no point is skipped, as its convolution is 0.
    ``outputs`` fills a batch's segments straight from its points, CHUNK
    points at a time, so a segment gets the same array as if the kernel
    were dense.  Besides the transform of f, only one batch's segment and
    spectrum buffers are held, allocated once, and one chunk of points.  An
    L above MAX_SUPPORT is refused before anything is allocated.
    """

    def __init__(self, f: Signal):
        w = f.values.size
        n = 1 << (4 * w - 1).bit_length()
        check_size(n, f"overlap-save transform length {n}")
        self.offset, self.w, self.n = f.offset, w, n
        self.step = n - w + 1
        self.rows = max(1, BATCH // n)
        self.ff = np.fft.rfft(f.values, n)
        # the transforms write into these with out= (numpy >= 2.0): fresh
        # arrays per batch are unmapped and faulted in again, batch after
        # batch.  The inverse transform writes back into the segments
        self.segs = np.empty((self.rows, n))
        self.spec = np.empty((self.rows, n // 2 + 1), dtype=complex)

    def batches(self, pos: np.ndarray) -> Iterator[tuple[int, int, int, int, int]]:
        """``(first, r0, count, i, j)`` for each batch that holds a point, left
        to right: its rows r0..r0+count-1 hold the points pos[i:j], and its
        outputs lie in [first, first + count * B)."""
        w, n, step = self.w, self.n, self.step
        # segment r covers the kernel from pos[0] - (w - 1) + r * step on and
        # holds the outputs from pos[0] + r * step on
        base = int(pos[0]) - (w - 1)
        total = -(-(w + int(pos[-1]) - int(pos[0])) // step)
        for r0 in range(0, total, self.rows):
            count = min(self.rows, total - r0)
            lo = base + r0 * step
            i, j = np.searchsorted(pos, (lo, lo + (count - 1) * step + n))
            if i < j:
                yield (int(pos[0]) + self.offset + r0 * step, r0, count,
                       int(i), int(j))

    def outputs(self, pos: np.ndarray, batch: tuple, values: Callable
                ) -> Iterator[tuple[int, np.ndarray]]:
        """f * k on one batch of ``batches(pos)`` as ``(position, block)``
        pairs: ``block[i]`` is the convolution at ``position + i``, one block
        per run of consecutive rows that hold a point.  Every output the
        blocks leave out is exactly 0.  A block is a view of a buffer that
        the next batch overwrites, and the caller may write into it.
        """
        w, n, step = self.w, self.n, self.step
        _, r0, count, i, j = batch
        lo = int(pos[0]) - (w - 1) + r0 * step
        out_len = w + int(pos[-1]) - int(pos[0])

        def placed():
            # (a, q, c, one, two) for the points pos[a:a + CHUNK]: a point at
            # column c of row q lies at column c + B of row q - 1 too when
            # c < w - 1, and q == count only for such a point
            for a in range(i, j, CHUNK):
                q, c = np.divmod(pos[a:min(a + CHUNK, j)] - lo, step)
                yield a, q, c, q < count, (c < w - 1) & (q > 0)

        held = np.zeros(count, dtype=bool)
        for _, q, _, one, two in placed():
            held[q[one]] = True
            held[q[two] - 1] = True
        del q, one, two             # the last chunk, before the next pass
        rows_held = np.flatnonzero(held)
        h = rows_held.size
        slot = np.empty(count, dtype=np.intp)
        slot[rows_held] = np.arange(h)
        segs, spec = self.segs[:h], self.spec[:h]
        segs[:] = 0.0
        for a, q, c, one, two in placed():
            v = values(a, a + q.size)
            segs[slot[q[one]], c[one]] = v[one]
            segs[slot[q[two] - 1], c[two] + step] = v[two]
            del v                   # one chunk's values at a time
        np.fft.rfft(segs, axis=1, out=spec)
        np.multiply(spec, self.ff, out=spec)
        np.fft.irfft(spec, n, axis=1, out=segs)
        # one block per run of consecutive held rows
        breaks = np.flatnonzero(np.diff(rows_held) != 1) + 1
        for s, e in zip([0, *breaks.tolist()], [*breaks.tolist(), h]):
            first = (r0 + int(rows_held[s])) * step
            block = segs[s:e, w - 1:].reshape(-1)[:out_len - first]
            yield int(pos[0]) + self.offset + first, block


def _last_nonzero(v: np.ndarray) -> int:
    """Index of the last nonzero entry of a nonempty v; -1 if there is none.

    Searched in CHUNK blocks from the end, so no temporary outgrows a block."""
    for hi in range(v.size, 0, -CHUNK):
        nz = v[max(hi - CHUNK, 0):hi][::-1] != 0
        i = int(np.argmax(nz))
        if nz[i]:
            return hi - 1 - i
    return -1


def _nonzero_ends(v: np.ndarray) -> tuple[int, int]:
    """(first nonzero index, last nonzero index + 1) of v; (0, 0) if none.

    Searched in CHUNK blocks from each end, as ``_last_nonzero``."""
    hi = _last_nonzero(v) + 1 if v.size else 0
    for lo in range(0, hi, CHUNK):
        nz = v[lo:lo + CHUNK] != 0
        i = int(np.argmax(nz))
        if nz[i]:
            return lo + i, hi
    return 0, 0


def _even_autocorrelation(v: np.ndarray, method: str = "fast", mass: bool = False):
    """The even autocorrelation of v at lags 0..L-1 (L = v.size).

    With c the correlation of v with its reflection, entry j is
    0.5 * (c[j] + c[-j]): read straight from the inverse-transform buffer
    (c[-j] sits at n - j) or from the direct convolution.  With ``mass`` the
    total over all lags -(L-1)..L-1 comes back as well, as the pairwise sum of
    the zero-trimmed full even array, mirrored in place into that buffer.
    The transform length is the power of two n >= 2L - 1; a length above
    MAX_SUPPORT is refused before anything is allocated.
    """
    size = v.size
    out_len = 2 * size - 1
    check_size(out_len, f"autocorrelation support {out_len}")
    half = np.empty(size)
    if method == "direct":
        buf = np.convolve(v, v[::-1])
        np.add(buf[size - 1:], buf[size - 1::-1], out=half)
    else:
        n = 1 << (out_len - 1).bit_length()
        f = np.fft.rfft(v, n)
        c = f.conj()
        if n < POWER_ORDER_SWAP:
            power = np.multiply(f, c, out=c)
        else:
            power = np.multiply(c, f, out=c)
        del f, c
        buf = np.fft.irfft(power, n)
        del power
        half[0] = buf[0] + buf[0]
        np.add(buf[1:size], buf[:n - size:-1], out=half[1:])
    half *= 0.5
    if not mass:
        return half
    t = _last_nonzero(half)
    if t < 0:
        return half, 0.0
    buf[:t] = half[t:0:-1]
    buf[t:2 * t + 1] = half[:t + 1]
    return half, float(buf[:2 * t + 1].sum())


def _even_signal(half: np.ndarray) -> Signal:
    """The even signal whose values at lags 0, 1, ... are ``half``."""
    return Signal._own(1 - half.size, np.concatenate((half[:0:-1], half)))


def autocorrelation_signal(s: Signal, method: str = "fast") -> Signal:
    """s correlated with its reflection, symmetrized to be exactly even.

    A view of the half-lag autocorrelation: the value at x and at -x is
    0.5 * (c[x] + c[-x]) for the raw correlation c, so value(x) == value(-x)
    holds exactly.
    """
    if method not in ("direct", "fast"):
        raise ValueError(f"unknown autocorrelation method {method!r}")
    if s.is_zero:
        return s
    return _even_signal(_even_autocorrelation(s.values, method))
