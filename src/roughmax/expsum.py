"""Exponential sums over the cutoff window and their second-derivative bounds.

Every operation returns both the exactly computed sum and the bound the
van der Corput machinery predicts for it, so sweeps over dyadic scales can
check that the ratio stays trend-bounded.  A phase's phi terms are built once
per window, and every alpha probe sums those.  The slowly varying factor of
the c = 1 regime is constantly 1 for c > 1, the only regime wired into the
bounds here.

The sweeps run their scales through ``util.map_scales`` on up to ``workers``
threads.  A task calls only ``phi.value``/``phi.deriv``, ``eta`` and
``chunked_sum`` (numpy throughout, no mpmath), and every reduction is
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
from .util import CHUNK, chunked_sum, dist_to_nearest_int, map_scales


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

def abel_sum(u, g: Callable[[int], complex], a: int = 0) -> complex:
    """sum u(n) g(n) over n = a+1..b via partial sums of u.

    Evaluates U(b) g(b) - sum_{n=a+1}^{b-1} U(n) (g(n+1) - g(n)) with
    U(t) = sum_{a+1 <= n <= t} u(n); an exact identity, so it matches the
    direct sum to rounding error on any input.
    """
    u = np.asarray(u)
    if u.size == 0:
        raise EmptyRangeError("summation by parts needs a nonempty range")
    b = a + u.size
    big_u = np.cumsum(u)
    ns = np.arange(a + 1, b)
    gv = np.array([g(int(n)) for n in ns] + [g(int(b))])
    total = big_u[-1] * gv[-1]
    if ns.size:
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


def _window(n: int, x: int) -> tuple[float, float]:
    """(N_1, N_2): the n-range on which both cutoff factors can be nonzero."""
    n1 = max(n / 2.0, n / 2.0 - x)
    n2 = min(4.0 * n, 4.0 * n - x)
    return n1, n2


def _window_size(n: int, x: int) -> int:
    """The number of integer points in (N_1, N_2], <= 0 for an empty window,
    counted in exact integers, so no float is formed from N or x."""
    return 4 * n - max(x, 0) - (n - 2 * min(x, 0)) // 2


def _check_window(n: int, x: int) -> None:
    """Refuse a window (N_1, N_2] of more than ``signals.MAX_SUPPORT`` points,
    before any float is formed from a scale that may lie past the float
    range."""
    size = _window_size(n, x)
    if n < 1 << 64:
        what = f"phase-sum window {size} at N = {n}"
    else:   # hundreds of digits: their binary orders say as much
        what = (f"phase-sum window of over 2^{int(size).bit_length() - 1} "
                f"points at N >= 2^{n.bit_length() - 1}")
    signals._check_size(size, what)


def _window_range(n: int, x: int, n_prime: float | None) -> tuple[int, int, float]:
    """(lo, hi, N'): the integer points lo..hi of (N_1, N'], N' default N_2.

    A range wider than ``signals.MAX_SUPPORT`` is refused.
    """
    n1, n2 = _window(n, x)
    if n1 >= n2:
        raise EmptyRangeError(f"window ({n1}, {n2}] is empty for N={n}, x={x}")
    if n_prime is None:
        n_prime = n2
    if not (n1 < n_prime <= n2):
        raise ValidationError(f"N' = {n_prime} outside ({n1}, {n2}]")
    lo = int(math.floor(n1)) + 1
    hi = int(math.floor(n_prime))
    if hi < lo:
        raise EmptyRangeError(f"empty summation range ({n1}, {n_prime}]")
    signals._check_size(hi - lo + 1, f"phase-sum window {hi - lo + 1} at N = {n}")
    return lo, hi, n_prime


def _validate_window(n: int, x: int, n_prime: float | None) -> tuple[np.ndarray, float]:
    """The integer points of (N_1, N'] and N' (default N_2), refused before
    they are built if there are more than ``signals.MAX_SUPPORT``."""
    lo, hi, n_prime = _window_range(n, x, n_prime)
    return np.arange(lo, hi + 1, dtype=float), n_prime


def _single_setup(phi: InverseFunction, n: int, x: int, m: int, p: int, q: int,
                  n_prime: float | None) -> tuple:
    if m == 0:
        raise ValidationError("phase multiplier m must be nonzero")
    if p not in (0, 1) or q not in (0, 1):
        raise ValidationError("shift selectors p, q must lie in {0, 1}")
    ns, n_prime = _validate_window(n, x, n_prime)
    term = m * np.asarray(phi.value(ns + p * x + q), dtype=float)
    bound = math.sqrt(abs(m)) * n / math.sqrt(float(phi.value(float(n))))
    return ns, (term,), bound, dict(N=n, x=x, alpha=None, l=None, m=m, p=p, q=q,
                                    N_prime=n_prime)


def _two_setup(phi: InverseFunction, n: int, x: int, m1: int, m2: int, kappa: float,
               n_prime: float | None, phin: float | None = None) -> tuple:
    if m1 == 0 or m2 == 0:
        raise ValidationError("phase multipliers m1, m2 must be nonzero")
    if not (0.0 <= kappa <= 1.0):
        raise ValidationError(f"kappa = {kappa} outside [0, 1]")
    if phin is None:    # ratio_sweep passes the phi(N) it already has
        phin = float(phi.value(float(n)))
    if x < phin ** kappa:
        raise PreconditionError(
            f"separation x = {x} below phi(N)^kappa = {phin ** kappa:.6g}; "
            "the two-point bound does not apply")
    ns, n_prime = _validate_window(n, x, n_prime)
    if not float(x).is_integer():
        raise ValidationError(f"separation x = {x} must be an integer")
    # ns and ns + x share all but x points: invert their union once
    x, k = int(x), ns.size
    u = np.asarray(phi.value(np.arange(ns[0], ns[-1] + x + 1)), dtype=float)
    terms = (m1 * u[:k], m2 * u[x:x + k])
    m = max(abs(m1), abs(m2))
    bound = m ** (2.0 / 3.0) * n ** (4.0 / 3.0) * phin ** (-(1.0 + kappa) / 3.0)
    return ns, terms, bound, dict(N=n, x=x, alpha=None, l=None, m1=m1, m2=m2,
                                  kappa=kappa, N_prime=n_prime)


def _phase_sum(setup: tuple, alpha: float, l: int) -> ExpSumResult:
    """Sum of e^{2 pi i (alpha l n + phi terms)} over a setup (window ns, phi
    terms, cap, params with alpha and l unset).  The phi terms are added one
    by one: pre-adding them would change the last bits.  The phase is built
    in the imaginary half of the one complex buffer that exp then overwrites,
    16 bytes per point; the bits are those of exp(2j * pi * phase).
    """
    if l < 1:
        raise ValidationError(f"linear multiplier l = {l} must be >= 1")
    ns, terms, bound, params = setup
    z = np.empty(ns.size, dtype=complex)
    phase = z.imag
    np.multiply(alpha * l, ns, out=phase)
    for t in terms:
        phase += t
    phase *= 2.0 * np.pi
    z.real = 0.0
    np.exp(z, out=z)
    actual = complex(chunked_sum(z))
    return ExpSumResult(actual, abs(actual), bound, abs(actual) / bound,
                        dict(params, alpha=alpha, l=l))


def single_phase_sum(phi: InverseFunction, n: int, x: int, alpha: float,
                     l: int, m: int, p: int, q: int,
                     n_prime: float | None = None) -> ExpSumResult:
    """Sum of e^{2 pi i (alpha l n + m phi(n + p x + q))} over the window.

    The predicted cap is |m|^(1/2) * N / phi(N)^(1/2): one second-derivative
    estimate applied to the phase, whose curvature is controlled by the
    product identity for y^2 phi''(y).
    """
    return _phase_sum(_single_setup(phi, n, x, m, p, q, n_prime), alpha, l)


def two_phase_sum(phi: InverseFunction, n: int, x: int, alpha: float, l: int,
                  m1: int, m2: int, kappa: float,
                  n_prime: float | None = None) -> ExpSumResult:
    """Sum with the two-point phase m1 phi(n) + m2 phi(n + x).

    Requires the separation x >= phi(N)^kappa; the cap is
    m^(2/3) N^(4/3) phi(N)^(-(1+kappa)/3) with m = max(|m1|, |m2|).
    """
    return _phase_sum(_two_setup(phi, n, x, m1, m2, kappa, n_prime), alpha, l)


def min_norm_sum(phi: InverseFunction, n: int, x: int, m_terms: int,
                 p: int, q: int) -> tuple[float, float]:
    """Sum of min(1, 1/(M ||phi(n + p x + q)||)) across the cutoff window.

    Returns (actual, bound) with the cap N log M / M
    + N sqrt(M) log M / sqrt(phi(N)).  The summands are built in
    ``util.CHUNK`` blocks into one array, so the window costs two arrays of
    its length (points and summands); every step is per point, so the bits
    are those of one pass over the whole window.
    """
    if m_terms < 2:
        raise ValidationError(f"M = {m_terms} must be >= 2")
    if p not in (0, 1) or q not in (0, 1):
        raise ValidationError("shift selectors p, q must lie in {0, 1}")
    if _window_size(n, x) <= 0:
        return 0.0, _min_norm_bound(phi, n, m_terms)
    ns, _ = _validate_window(n, x, None)
    terms = np.empty_like(ns)
    for i in range(0, ns.size, CHUNK):
        b = ns[i:i + CHUNK]
        norms = dist_to_nearest_int(np.asarray(phi.value(b + p * x + q), dtype=float))
        with np.errstate(divide="ignore"):
            caps = np.minimum(1.0, 1.0 / (m_terms * norms))
        e = np.asarray(eta(b / n), dtype=float)
        # at x = 0 the shifted cutoff is the same array
        w = e * (e if x == 0 else np.asarray(eta((b + x) / n), dtype=float))
        np.multiply(caps, w, out=terms[i:i + CHUNK])
    actual = float(chunked_sum(terms))
    return actual, _min_norm_bound(phi, n, m_terms)


def _min_norm_bound(phi: InverseFunction, n: int, m_terms: int) -> float:
    phin = float(phi.value(float(n)))
    logm = math.log(m_terms)
    return n * logm / m_terms + n * math.sqrt(m_terms) * logm / math.sqrt(phin)


# ---------------------------------------------------------------------------
# designated sweeps
# ---------------------------------------------------------------------------

ALPHA_GOLDEN = 0.6180339887498949


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


def ratio_sweep(phi: InverseFunction, mode: str, m: int, k_lo: int, k_hi: int,
                kappa: float = 1.0, workers: int = 1) -> list[ExpSumResult]:
    """Worst-ratio-per-scale sweep for the phase-sum bounds.

    For each dyadic N = 2^k the phase of ``single_phase_sum`` (x = 0) or
    ``two_phase_sum`` (x = ceil(phi(N)^kappa)) is built once, and the ratio is
    maximized over a fixed probe set of linear coefficients alpha (zero, the
    slope-cancelling value, 1/4, and the golden ratio); the returned per-scale
    results are what trend-boundedness assertions run on.  Each scale, its
    setup and its four probes, is one task of ``util.map_scales`` on up to
    ``workers`` threads; every window is checked against
    ``signals.MAX_SUPPORT`` before any scale runs.
    """
    if mode not in ("single", "two"):
        raise ValidationError(f"mode {mode!r} not in {{single, two}}")
    # before x = ceil(phi(N)^kappa) is formed from it
    if mode == "two" and not (0.0 <= kappa <= 1.0):
        raise ValidationError(f"kappa = {kappa} outside [0, 1]")
    scales = []     # (N, x, phi(N)) per scale, each window checked first
    for k in range(k_lo, k_hi + 1):
        n = 1 << k
        # counted in integers before phi(N) is formed; x of mode "two" is the
        # ceiling of a finite float, so under 2^1024, and a window only
        # shrinks as x grows, so its size at x = 2^1024 is a lower bound
        _check_window(n, 0 if mode == "single" else 1 << 1024)
        phin = None if mode == "single" else float(phi.value(float(n)))
        x = 0 if phin is None else int(math.ceil(phin ** kappa))
        _window_range(n, x, None)
        scales.append((n, x, phin))

    def task(scale):
        n, x, phin = scale
        if mode == "single":
            s, slope = _single_setup(phi, n, 0, m, 0, 0, None), m
        else:
            s, slope = _two_setup(phi, n, x, m, m, kappa, None, phin), 2 * m
        # max keeps the first of equal ratios, as a strict > scan does
        return max((_phase_sum(s, al, 1) for al in _alpha_probes(phi, n, slope)),
                   key=lambda r: r.ratio)

    return map_scales(task, scales, workers)


def min_norm_sweep(phi: InverseFunction, x: int, m_terms: int | None, k_lo: int,
                   k_hi: int, workers: int = 1) -> list[tuple[float, float]]:
    """``min_norm_sum`` (p = q = 0) at each dyadic N = 2^k, as (actual, bound).

    M is ``m_terms``, or isqrt(N) when it is None, and at least 2.  The
    scales run as in ``ratio_sweep``: every window is checked against
    ``signals.MAX_SUPPORT`` first, then ``util.map_scales`` runs one
    task per scale on up to ``workers`` threads.
    """
    scales = [1 << k for k in range(k_lo, k_hi + 1)]
    for n in scales:
        _check_window(n, x)

    def task(n):
        m = math.isqrt(n) if m_terms is None else m_terms
        return min_norm_sum(phi, n, x, max(2, m), 0, 0)

    return map_scales(task, scales, workers)
