"""Smoothed averaging kernels on the integer set, and their autocorrelation.

The kernel at scale N places mass eta(n/N)/norm on every set element n, with
eta a fixed smooth cutoff (1 on [1, 2], supported in (1/2, 4)).  The maximal
operator's norm is the exact element count up to N, as in M_h; that of the
decomposition's kernel (``build_kernel``) is phi(N), as in G_N below.

The autocorrelation splits, away from zero, into a slowly varying profile

    G_N(x) = phi(N)^-2 * sum_n phi'(n) phi'(n + |x|) eta(n/N) eta((n+|x|)/N)

plus a small error; the decomposition report measures the size of both pieces
and the smoothness of G_N across a sweep of scales N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import signals
from .errors import DegenerateError, InsufficientDataError, RangeError
from .growth import InverseFunction
from .seqset import SequenceSet, count
from .signals import (
    Signal,
    _even_autocorrelation,
    _even_signal,
    _last_nonzero,
    _nonzero_ends,
    autocorrelation_signal,
)
from .util import BLOCK, _pairwise, loglog_slope, map_scales


# ---------------------------------------------------------------------------
# the cutoff
# ---------------------------------------------------------------------------

def _bump_ratio(u: np.ndarray, b: np.ndarray, m: np.ndarray) -> None:
    """exp(-1/u) / (exp(-1/u) + exp(-1/(1-u))) on (0, 1), a smooth 0 -> 1 step,
    written over u where the mask m holds; b is scratch of u's shape."""
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u, where=m)
    np.exp(np.divide(-1.0, np.subtract(1.0, u, out=b, where=m), out=b, where=m),
           out=b, where=m)
    np.exp(np.divide(-1.0, u, out=u, where=m), out=u, where=m)
    np.divide(u, np.add(u, b, out=b, where=m), out=u, where=m)


ETA_ROWS = 3


def eta(t, out=None) -> np.ndarray | float:
    """Fixed smooth cutoff: 0 off (1/2, 4), 1 on [1, 2], smooth joins between.

    The rise on (1/2, 1) and fall on (2, 4) are the standard exp(-1/t) bump
    steps, pinned here once so every experiment is reproducible.  Each step
    is computed where its mask holds, so every point has the bits it has
    alone.  ``out`` is a float stack of at least ``ETA_ROWS`` rows of t.size
    values: the cutoff lands in the first and the steps are worked out in the
    others, so the call allocates no array of t's size but the masks.
    """
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).reshape(-1)
    v, u, b = (np.empty((ETA_ROWS, t.size)) if out is None else out)[:ETA_ROWS, :t.size]
    v.fill(0.0)
    v[(t >= 1.0) & (t <= 2.0)] = 1.0
    m = (t > 0.5) & (t < 1.0)
    if m.any():
        np.subtract(np.multiply(2.0, t, out=u, where=m), 1.0, out=u, where=m)
        _bump_ratio(u, b, m)
        np.copyto(v, u, where=m)
    m = (t > 2.0) & (t < 4.0)
    if m.any():
        np.divide(np.subtract(t, 2.0, out=u, where=m), 2.0, out=u, where=m)
        _bump_ratio(u, b, m)
        np.subtract(1.0, u, out=v, where=m)
    return float(v[0]) if shape == () else v.reshape(shape)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _support_window(n: int) -> tuple[int, int]:
    """Closed integer range [N//2 + 1, 4N - 1] of the m with eta(m/N) != 0."""
    return n // 2 + 1, 4 * n - 1


@dataclass(frozen=True)
class Kernel:
    """Nonnegative averaging kernel at scale N over phi(N), built on the set
    ``s``; immutable."""

    scale_n: int
    signal: Signal
    s: SequenceSet = field(compare=False, repr=False)


def _kernel_window(s: SequenceSet, n: int,
                   by_phi: bool = False) -> tuple[np.ndarray, float]:
    """(els, norm): the set elements m in ``_support_window(n)`` (ascending
    int64, a view of ``s.elements``) and norm, the count of elements up to N,
    or phi(N) when ``by_phi``.  The checks of ``build_kernel`` that need no
    kernel value run here, the mass check (``_check_mass``) after it."""
    n = int(n)
    if 4 * n > s.n_max:
        raise RangeError(f"kernel at N = {n} needs n_max >= 4N, have {s.n_max}")
    cnt = count(s, n)
    if cnt == 0:
        raise DegenerateError(f"no set elements in [1, {n}]")
    norm = float(s.phi.value(float(n))) if by_phi else float(cnt)
    first, last = _support_window(n)
    els = s.elements[np.searchsorted(s.elements, first, side="left"):
                     np.searchsorted(s.elements, last, side="right")]
    if els.size == 0:
        raise DegenerateError(f"no set elements in the support window of N = {n}")
    width = int(els[-1] - els[0] + 1)
    signals.check_size(width, f"kernel support {width} at N = {n}")
    return els, norm


def _kernel_values(els: np.ndarray, n: int, norm: float) -> np.ndarray:
    """eta(m/N)/norm at each m of ``els``, in ``BLOCK`` pieces, so no
    temporary of eta outgrows one; eta works point by point, so the value at
    m has the same bits in a slice of the window as in the whole."""
    out = np.empty(els.size)
    for i in range(0, els.size, BLOCK):
        out[i:i + BLOCK] = eta(els[i:i + BLOCK] / float(n))
    out /= norm
    return out


def _check_mass(total: float) -> None:
    if not (0.0 < total <= 8.0):
        raise DegenerateError(f"kernel mass {total} outside (0, 8]")


def _kernel_support(s: SequenceSet, n: int) -> tuple[np.ndarray, float]:
    """(els, norm) of the maximal operator's kernel at scale N, after every
    check of ``build_kernel``, with els trimmed to the elements whose
    value is not 0; the values are ``_kernel_values(els, n, norm)`` on any
    slice.  They are built one ``util.streamed_sum`` leaf (at most
    ``util.BLOCK`` values) at a time, for the mass (the bits of
    ``vals.sum()``, added along numpy's pairwise tree) and the trim, and
    none is kept."""
    els, norm = _kernel_window(s, n)
    ends = []

    def leaf(a, b):
        v = _kernel_values(els[a:b], n, norm)
        nz = np.flatnonzero(v)
        if nz.size:
            ends.append((a + int(nz[0]), a + int(nz[-1]) + 1))
        return v.sum()

    # the leaves come left to right, so the first and last ends are the trim
    _check_mass(float(_pairwise(leaf, 0, els.size, 1)))
    return els[ends[0][0]:ends[-1][1]], norm


def build_kernel(s: SequenceSet, n: int) -> Kernel:
    """Kernel value eta(m/N)/phi(N), phi = ``s.phi``, at every set element m
    with eta(m/N) != 0: the values of ``_kernel_window`` over phi(N), laid
    out densely.  eta may underflow to 0 at the window ends, and the signal
    trims those zeros.  The values are written one ``_pairwise`` leaf (at
    most ``util.BLOCK`` values) at a time, which also adds up the mass as
    ``_kernel_support`` does, so only the dense array is held at full
    length."""
    els, norm = _kernel_window(s, n, by_phi=True)
    first = int(els[0])
    dense = np.zeros(int(els[-1]) - first + 1)

    def leaf(a, b):
        v = _kernel_values(els[a:b], n, norm)
        dense[els[a:b] - first] = v
        return v.sum()

    _check_mass(float(_pairwise(leaf, 0, els.size, 1)))
    return Kernel(int(n), Signal._own(first, dense), s)


def autocorrelation(k: Kernel) -> Signal:
    """K correlated with its reflection, by FFT; exactly even by construction."""
    return autocorrelation_signal(k.signal, "fast")


# ---------------------------------------------------------------------------
# the slowly varying profile G_N
# ---------------------------------------------------------------------------

def _density_window(phi: InverseFunction, n: int) -> np.ndarray:
    """phi'(m) * eta(m/N) at each m of the support window of N.

    A window wider than ``signals.MAX_SUPPORT`` is refused before it is built.
    """
    lo, hi = _support_window(n)
    signals.check_size(hi - lo + 1, f"G_N window {hi - lo + 1} at N = {n}")
    w = np.empty(hi - lo + 1)
    # in BLOCK pieces, so only w is held at full length; phi' and eta work
    # point by point, so the pieces do not change a bit
    for i in range(0, w.size, BLOCK):
        m = np.arange(lo + i, min(lo + i + BLOCK, hi + 1), dtype=float)
        np.multiply(np.asarray(phi.deriv(m, 1), dtype=float),
                    np.asarray(eta(m / n), dtype=float), out=w[i:i + BLOCK])
    return w


def compute_gn(phi: InverseFunction, n: int, x: int) -> float:
    """G_N(x) by direct summation; the reference path for single points."""
    ax = abs(int(x))
    w = _density_window(phi, n)
    if ax >= w.size:
        return 0.0
    phin = float(phi.value(float(n)))
    if ax == 0:
        return float(np.dot(w, w)) / phin ** 2
    return float(np.dot(w[:-ax], w[ax:])) / phin ** 2


def _gn_lags(phi: InverseFunction, n: int, phin: float) -> np.ndarray:
    """G_N at lags 0, 1, ...: the half-lag autocorrelation of the density
    window, trimmed of the zeros eta leaves at its ends, over phi(N)^2.  The
    window is built inside the autocorrelation, which frees it after the
    forward transform."""
    def window():
        w = _density_window(phi, n)
        lo, hi = _nonzero_ends(w)
        return w[lo:hi]

    g = _even_autocorrelation(window, "fast")
    g *= 1.0 / phin ** 2
    return g


def gn_profile(phi: InverseFunction, n: int) -> Signal:
    """G_N at every lag at once: the even signal of the half-lag profile.

    Matches compute_gn pointwise (transform-based, 1e-9 per coefficient) but
    costs O(N log N) for the whole profile, so the large-lag region can be
    scanned exhaustively instead of sampled.  The same lags, unmirrored, are
    what the decomposition report reads.
    """
    return _even_signal(_gn_lags(phi, n, float(phi.value(float(n)))))


# ---------------------------------------------------------------------------
# decomposition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    """Scale-N measurements of the autocorrelation decomposition.

    point_mass     autocorr(0), unscaled
    small_x_bound  max of N * |autocorr(x)| over 0 < |x| <= phi(N)
    gn_sup         max of N * |G_N(x)| over |x| > phi(N)
    en_sup         max of |autocorr(x) - G_N(x)| over |x| > phi(N)
    gn_lipschitz   max of N^2 |G_N(x+d) - G_N(x)| / d, d in {1,2,4,8},
                   both points beyond phi(N)
    mass           total autocorrelation mass (equals kernel mass squared)

    The kernel and G_N are both over phi(N).  verify_family_hypotheses is a
    view of these reports, rescaled from N to D_n = 4N.
    """

    scale_n: int
    point_mass: float
    small_x_bound: float
    gn_sup: float
    en_sup: float
    gn_lipschitz: float
    mass: float


_LIPSCHITZ_STEPS = (1, 2, 4, 8)


def _on_lags(h: np.ndarray, size: int) -> np.ndarray:
    """h at lags 0..size-1, zero past its end."""
    if h.size >= size:
        return h[:size]
    out = np.zeros(size)
    out[:h.size] = h
    return out


def decomposition_report(s: SequenceSet, n: int) -> DecompositionReport:
    """The split autocorr = point mass + G_N + E_N of ``build_kernel(s, n)``,
    with G_N from the inverse ``s.phi`` of the same set.

    Both profiles are even, so only their half-lag arrays are read: on lags
    0..X, where X is the last nonzero lag of either, or cut + 1 if larger,
    with cut = floor(phi(N)).

    The kernel is built inside its autocorrelation and the density window
    inside its own, so each is freed once its forward transform has read
    it.  At either inverse transform, of a power of two T >= 7N, the report
    holds that transform's spectrum and output (about 2T doubles) and, at the
    second, the kernel's half-lag profile (3.5N values); pocketfft adds
    about 2T doubles of scratch.
    """
    n, phi = int(n), s.phi
    a, mass = _even_autocorrelation(lambda: build_kernel(s, n).signal.values,
                                    "fast", mass=True)
    phin = float(phi.value(float(n)))
    cut = int(math.floor(phin))
    g = _gn_lags(phi, n, phin)

    size = max(_last_nonzero(a), _last_nonzero(g), cut + 1) + 1
    a = _on_lags(a, size)
    tail = _on_lags(g, size)[cut + 1:]  # never empty: the lags reach past the cut
    small = float(np.max(np.abs(a[1:cut + 1]))) if cut >= 1 else 0.0
    lip = 0.0
    for d in _LIPSCHITZ_STEPS:
        if tail.size > d:
            lip = max(lip, float(np.max(np.abs(tail[d:] - tail[:-d]))) / d)
    return DecompositionReport(
        scale_n=n,
        point_mass=float(a[0]),
        small_x_bound=n * small,
        gn_sup=float(np.max(np.abs(tail))) * n,
        en_sup=float(np.max(np.abs(a[cut + 1:] - tail))),
        gn_lipschitz=n * n * lip,
        mass=mass,
    )


def decomposition_reports(s: SequenceSet, scales,
                          workers: int = 1) -> list[DecompositionReport]:
    """decomposition_report at each scale, in the order given (ascending).

    Each scale is one task that builds its own kernel; ``util.map_scales``
    runs them on up to ``workers`` threads (the transforms release the GIL),
    so the reports do not depend on the thread count.
    """
    return map_scales(lambda n: decomposition_report(s, n), scales, workers)


def estimate_chi(reports: list[DecompositionReport]) -> float:
    """Error-decay exponent: -(slope of log2 en_sup against log2(4N)) - 1."""
    if len({r.scale_n for r in reports}) < 4:
        raise InsufficientDataError("need reports at >= 4 distinct scales")
    big_d = np.array([4 * r.scale_n for r in reports], dtype=float)
    es = np.array([r.en_sup for r in reports], dtype=float)
    return -loglog_slope(big_d, es) - 1.0
