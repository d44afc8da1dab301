"""Exponential sums over the cutoff window and their second-derivative bounds.

Every operation returns both the exactly computed sum and the bound the
van der Corput machinery predicts for it, so sweeps over a list of scales
can check that the ratio stays trend-bounded.  Every sum runs over the integer
points of the cutoff window (N/2 - min(x, 0), 4N - max(x, 0)], which
``_window`` counts in exact integers.  The slowly varying factor of the
c = 1 regime is constantly 1 for c > 1, the only regime wired into the
bounds here.

Every window sum is fed to ``util.streamed_sum`` one leaf of numpy's
pairwise tree at a time, so it has the bits of ``chunked_sum`` over the
whole window.  One pass over the leaves serves every alpha probe of a
phase: each leaf inverts phi at its own points once and returns the sums of
all the probes, so nothing of the window's length is held, only buffers of
at most ``util.BLOCK`` points and, for the two-point phase, the x phi values
that the next leaves read at offset 0.

The sweeps run their scales through ``util.map_scales`` on up to ``workers``
threads.  A task calls only ``phi.value``/``phi.deriv``, ``eta`` and
``streamed_sum`` (numpy throughout, no mpmath), and every reduction is
ordered, so the results do not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import signals
from .errors import EmptyRangeError, PreconditionError, ValidationError
from .growth import InverseFunction
from .kernel import eta
from .util import BLOCK, chunked_sum, dist_to_nearest_int, map_scales, streamed_sum


# ---------------------------------------------------------------------------
# the sawtooth
# ---------------------------------------------------------------------------

def sawtooth(t: float) -> float:
    """Fractional part minus one half; -1/2 at integers."""
    t = float(t)
    return (t - math.floor(t)) - 0.5


# ---------------------------------------------------------------------------
# summation by parts
# ---------------------------------------------------------------------------

def abel_sum(u, g: Callable[[int], complex]) -> complex:
    """sum u(n) g(n) over n = 1..b, b = len(u), via partial sums of u.

    Evaluates U(b) g(b) - sum_{n=1}^{b-1} U(n) (g(n+1) - g(n)) with
    U(t) = sum_{1 <= n <= t} u(n); an exact identity, so it matches the
    direct sum to rounding error on any input.
    """
    u = np.asarray(u)
    if u.size == 0:
        raise EmptyRangeError("summation by parts needs a nonempty range")
    big_u = np.cumsum(u)
    gv = np.array([g(n) for n in range(1, u.size + 1)])
    total = big_u[-1] * gv[-1]
    if u.size > 1:
        total = total - chunked_sum(big_u[:-1] * (gv[1:] - gv[:-1]))
    return complex(total) if np.iscomplexobj(u) or np.iscomplexobj(gv) else float(total)


# ---------------------------------------------------------------------------
# phase sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSumResult:
    actual: complex
    actual_abs: float
    bound: float
    ratio: float
    params: dict


def _window(n: int, x: int) -> tuple[int, int]:
    """(lo, hi): the integer points lo..hi of the cutoff window
    (N_1, N_2] = (N/2 - min(x, 0), 4N - max(x, 0)], on which both cutoff
    factors can be nonzero; hi < lo when it is empty.

    Counted in exact integers, so no float is formed from N or x, and a
    window of more than ``signals.MAX_SUPPORT`` points is refused before
    anything is built from a scale that may lie past the float range.
    """
    lo = (n - 2 * min(x, 0)) // 2 + 1
    hi = 4 * n - max(x, 0)
    size = max(hi - lo + 1, 0)     # an empty window's x is never formatted
    if n < 1 << 64:
        what = f"phase-sum window {size} at N = {n}"
    else:   # hundreds of digits: their binary orders say as much
        what = (f"phase-sum window of over 2^{int(size).bit_length() - 1} "
                f"points at N >= 2^{n.bit_length() - 1}")
    signals.check_size(size, what)
    return lo, hi


def _two_window(n: int, x: int) -> tuple[int, int]:
    """``_window(n, x)`` for the two-point phase, which inverts the union
    lo..hi + x of the window and its shift by x (x > 0): that union is
    checked against ``signals.MAX_SUPPORT`` too, before it is built."""
    lo, hi = _window(n, x)
    if hi >= lo:
        size = hi + x - lo + 1
        signals.check_size(size, f"two-point union {size} at N = {n}, x = {x}")
    return lo, hi


@dataclass(frozen=True, eq=False)
class _Phase:
    """A phase set up once per window for all its alpha probes: phi, the
    window's first point ``lo`` and size ``k``, the point ``first`` that the
    phi terms read at window point ``lo``, the terms as (multiplier, offset
    from ``first``), the cap, and the params with alpha unset.  No phi value
    is held: ``_phase_sums`` inverts the points as its leaves reach them."""
    phi: InverseFunction
    lo: int
    k: int
    first: int
    terms: tuple
    bound: float
    params: dict


def _single_setup(phi: InverseFunction, n: int, x: int, m: int, p: int,
                  q: int) -> _Phase:
    if m == 0:
        raise ValidationError("phase multiplier m must be nonzero")
    if p not in (0, 1) or q not in (0, 1):
        raise ValidationError("shift selectors p, q must lie in {0, 1}")
    lo, hi = _window(n, x)
    if hi < lo:
        raise EmptyRangeError(f"window {lo}..{hi} is empty for N={n}, x={x}")
    bound = math.sqrt(abs(m)) * n / math.sqrt(float(phi.value(float(n))))
    return _Phase(phi, lo, hi - lo + 1, lo + p * x + q, ((m, 0),), bound,
                  dict(N=n, x=x, alpha=None, m=m, p=p, q=q, N_prime=float(hi)))


def _two_setup(phi: InverseFunction, n: int, x: int, m1: int, m2: int,
               kappa: float) -> _Phase:
    if m1 == 0 or m2 == 0:
        raise ValidationError("phase multipliers m1, m2 must be nonzero")
    if not (0.0 <= kappa <= 1.0):
        raise ValidationError(f"kappa = {kappa} outside [0, 1]")
    phin = float(phi.value(float(n)))
    if x < phin ** kappa:
        raise PreconditionError(
            f"separation x = {x} below phi(N)^kappa = {phin ** kappa:.6g}; "
            "the two-point bound does not apply")
    if not float(x).is_integer():
        raise ValidationError(f"separation x = {x} must be an integer")
    x = int(x)
    lo, hi = _two_window(n, x)
    if hi < lo:
        raise EmptyRangeError(f"window {lo}..{hi} is empty for N={n}, x={x}")
    # the window and its shift by x share all but x points: both phi terms
    # read the one inversion of their union, at offsets 0 and x
    m = max(abs(m1), abs(m2))
    bound = m ** (2.0 / 3.0) * n ** (4.0 / 3.0) * phin ** (-(1.0 + kappa) / 3.0)
    return _Phase(phi, lo, hi - lo + 1, lo, ((m1, 0), (m2, x)), bound,
                  dict(N=n, x=x, alpha=None, m1=m1, m2=m2, kappa=kappa,
                       N_prime=float(hi)))


def _phase_sums(phase: _Phase, alphas) -> list[ExpSumResult]:
    """Sum of e^{2 pi i (alpha n + phi terms)} over a phase's window for each
    alpha of ``alphas``, from one left-to-right pass over the leaves of
    ``util.streamed_sum``.

    A leaf inverts phi only at the points it reaches first: the points of
    the terms at the largest offset (x for the two-point phase).  The x
    points below them, which the offset-0 term reads next, carry over from
    the leaves before in a ring of x + ``BLOCK`` values, so every point is
    inverted once and nothing of the window's length is held.  The terms
    are formed once per leaf and added one by one to each alpha's linear
    term, since pre-adding them would change the last bits; the phase is
    built in the imaginary half of a complex buffer that exp then
    overwrites.  Every step is per point, so each alpha's sum has the bits
    of ``chunked_sum(exp(2j * pi * phase))`` over the whole window.
    """
    phi, lo, first, terms = phase.phi, phase.lo, phase.first, phase.terms
    reach = max(off for _, off in terms)
    size = min(phase.k, BLOCK)
    iota = np.arange(min(phase.k + reach, BLOCK), dtype=float)
    ring = np.empty(reach + size)      # phi(first + i) at ring[i % ring.size]
    pts, z = np.empty(size), np.empty(size, dtype=complex)
    scaled = np.empty((len(terms), size))
    inverted = 0

    def leaf(a, b):
        nonlocal inverted
        w = b - a
        while inverted < b + reach:
            v = phi.value(iota[:min(iota.size, b + reach - inverted)]
                          + (first + inverted))
            j = inverted % ring.size
            c = min(v.size, ring.size - j)
            ring[j:j + c] = v[:c]
            ring[:v.size - c] = v[c:]
            inverted += v.size
        for (mult, off), out in zip(terms, scaled):
            j = (a + off) % ring.size
            c = min(w, ring.size - j)
            np.multiply(mult, ring[j:j + c], out=out[:c])
            np.multiply(mult, ring[:w - c], out=out[c:w])
        np.add(iota[:w], lo + a, out=pts[:w])
        zl = z[:w]
        t = zl.imag
        sums = np.empty(len(alphas), dtype=complex)
        for i, alpha in enumerate(alphas):
            np.multiply(pts[:w], alpha, out=t)
            for out in scaled:
                t += out[:w]
            t *= 2.0 * np.pi
            zl.real = 0.0
            np.exp(zl, out=zl)
            sums[i] = zl.sum()
        return sums

    return [ExpSumResult(s, abs(s), phase.bound, abs(s) / phase.bound,
                         dict(phase.params, alpha=alpha))
            for s, alpha in zip(streamed_sum(phase.k, leaf, True), alphas)]


def single_phase_sum(phi: InverseFunction, n: int, x: int, alpha: float,
                     m: int, p: int, q: int) -> ExpSumResult:
    """Sum of e^{2 pi i (alpha n + m phi(n + p x + q))} over the window
    (N/2 - min(x, 0), 4N - max(x, 0)].

    The predicted cap is |m|^(1/2) * N / phi(N)^(1/2): one second-derivative
    estimate applied to the phase, whose curvature is controlled by the
    product identity for y^2 phi''(y).
    """
    return _phase_sums(_single_setup(phi, n, x, m, p, q), (alpha,))[0]


def two_phase_sum(phi: InverseFunction, n: int, x: int, alpha: float,
                  m1: int, m2: int, kappa: float) -> ExpSumResult:
    """Sum of e^{2 pi i (alpha n + m1 phi(n) + m2 phi(n + x))} over the
    window (N/2 - min(x, 0), 4N - max(x, 0)].

    Requires the separation x >= phi(N)^kappa; the cap is
    m^(2/3) N^(4/3) phi(N)^(-(1+kappa)/3) with m = max(|m1|, |m2|).
    """
    return _phase_sums(_two_setup(phi, n, x, m1, m2, kappa), (alpha,))[0]


def min_norm_sum(phi: InverseFunction, n: int, x: int,
                 m_terms: int) -> tuple[float, float]:
    """Sum of min(1, 1/(M ||phi(n)||)) eta(n/N) eta((n + x)/N) across the
    window (N/2 - min(x, 0), 4N - max(x, 0)], 0 when it is empty.

    Returns (actual, bound) with the cap N log M / M
    + N sqrt(M) log M / sqrt(phi(N)).  The summands are built one
    ``util.streamed_sum`` leaf at a time, in buffers of at most ``BLOCK``
    points, so no array of the window's length is held; every step is per
    point, so the bits are those of ``chunked_sum`` over the whole window.
    """
    if m_terms < 2:
        raise ValidationError(f"M = {m_terms} must be >= 2")
    lo, hi = _window(n, x)
    if hi < lo:
        return 0.0, _min_norm_bound(phi, n, m_terms)
    k = hi - lo + 1
    iota = np.arange(min(k, BLOCK), dtype=float)
    out = np.empty(min(k, BLOCK))

    def leaf(a, b):
        pts = iota[:b - a] + (lo + a)
        terms = out[:b - a]
        norms = dist_to_nearest_int(np.asarray(phi.value(pts), dtype=float))
        with np.errstate(divide="ignore"):
            np.minimum(1.0, 1.0 / (m_terms * norms), out=terms)
        e = np.asarray(eta(pts / n), dtype=float)
        # at x = 0 the shifted cutoff is the same array
        terms *= e * (e if x == 0 else np.asarray(eta((pts + x) / n), dtype=float))
        return terms.sum()

    return streamed_sum(k, leaf, False), _min_norm_bound(phi, n, m_terms)


def _min_norm_bound(phi: InverseFunction, n: int, m_terms: int) -> float:
    phin = float(phi.value(float(n)))
    logm = math.log(m_terms)
    return n * logm / m_terms + n * math.sqrt(m_terms) * logm / math.sqrt(phin)


# ---------------------------------------------------------------------------
# designated sweeps
# ---------------------------------------------------------------------------

ALPHA_GOLDEN = 0.6180339887498949


def _keep_temporaries_mapped() -> None:
    """Free one 8 MiB block that is never written, so it costs no RSS.

    A sweep inverts phi one leaf of at most ``BLOCK`` points at a time, and
    phi.value makes 1 to 2.5 MB of temporaries per leaf.  glibc hands freed
    heap memory past its trim threshold (128 KiB at first) back to the
    system, and the next leaf faults it in again; freeing a mapped block
    raises that threshold to twice the block's size, for the process.  On
    the benchmark's expsum commands (2 vCPUs) this took minnorm 12..18 from
    23k to 0.2k minor faults and 0.097 to 0.058 s.
    """
    np.empty(1 << 20)


def resonant_alpha(phi: InverseFunction, n: int, slope_mult: float) -> float:
    """The alpha that cancels the phase slope at the window center.

    With this alpha the linear term tunes slope_mult * phi' to an integer at
    n = 2N, which is where the phase sum actually attains its cap; probing it
    turns the sweep into a worst-case test instead of a lottery over
    accidental resonances.
    """
    s = slope_mult * float(phi.deriv(2.0 * n, 1))
    return float(math.ceil(s) - s) % 1.0


def _alpha_probes(phi: InverseFunction, n: int, slope_mult: float) -> tuple:
    return (0.0, resonant_alpha(phi, n, slope_mult), 0.25, ALPHA_GOLDEN)


def ratio_sweep(phi: InverseFunction, mode: str, m: int, scales,
                kappa: float = 1.0, workers: int = 1) -> list[ExpSumResult]:
    """Worst-ratio-per-scale sweep for the phase-sum bounds.

    For each N of ``scales``, ascending integers, the phase of
    ``single_phase_sum`` (x = 0) or ``two_phase_sum`` (x = ceil(phi(N)^kappa))
    is summed in one pass over its window for a fixed probe set of linear
    coefficients alpha (zero, the slope-cancelling value, 1/4, and the
    golden ratio), and the ratio is maximized over the probes; each probe's
    sum has the bits of its own ``single_phase_sum`` or ``two_phase_sum``
    call.  The returned per-scale results are what trend-boundedness
    assertions run on.  Each scale, its setup and its one pass, is one task
    of ``util.map_scales`` on up to ``workers`` threads; every window, and
    every union that a two-point phase inverts, is checked against
    ``signals.MAX_SUPPORT`` before any scale runs, and a window that x
    empties raises ``EmptyRangeError`` from its scale's setup.
    """
    if mode not in ("single", "two"):
        raise ValidationError(f"mode {mode!r} not in {{single, two}}")
    # before x = ceil(phi(N)^kappa) is formed from it
    if mode == "two" and not (0.0 <= kappa <= 1.0):
        raise ValidationError(f"kappa = {kappa} outside [0, 1]")
    tasks = []      # (N, x) per scale, each window checked first
    for n in scales:
        x = 0
        if mode == "two":
            # counted in integers before phi(N) is formed: x is the ceiling
            # of a finite float, so under 2^1024, and a window only shrinks
            # as x grows, so its size at x = 2^1024 is a lower bound
            _window(n, 1 << 1024)
            x = int(math.ceil(float(phi.value(float(n))) ** kappa))
        (_two_window if mode == "two" else _window)(n, x)
        tasks.append((n, x))
    _keep_temporaries_mapped()

    def task(scale):
        n, x = scale
        if mode == "single":
            s, slope = _single_setup(phi, n, 0, m, 0, 0), m
        else:
            s, slope = _two_setup(phi, n, x, m, m, kappa), 2 * m
        # max keeps the first of equal ratios, as a strict > scan does
        return max(_phase_sums(s, _alpha_probes(phi, n, slope)),
                   key=lambda r: r.ratio)

    return map_scales(task, tasks, workers)


def min_norm_sweep(phi: InverseFunction, x: int, m_terms: int | None, scales,
                   workers: int = 1) -> list[tuple[float, float]]:
    """``min_norm_sum`` at each N of ``scales``, ascending integers, as
    (actual, bound).

    M is ``m_terms``, which must be at least 2, or max(2, isqrt(N)) when it
    is None.  The scales run as in ``ratio_sweep``: every window is checked
    against ``signals.MAX_SUPPORT`` first, then ``util.map_scales`` runs one
    task per scale on up to ``workers`` threads.
    """
    for n in scales:
        _window(n, x)
    _keep_temporaries_mapped()

    def task(n):
        m = max(2, math.isqrt(n)) if m_terms is None else m_terms
        return min_norm_sum(phi, n, x, m)

    return map_scales(task, scales, workers)
