"""Averages along the integer set under iterates of a cyclic shift.

T x = (x + step) mod m preserves counting measure on {0, ..., m-1}, and
T^j x = (x + j step) mod m is arithmetic.  No other system is needed for an
average at one point: the orbit of x under any permutation is a cycle, on
which it acts as a shift by 1 (Calderón's transference).  The observable is
the indicator of a target state k, and no array's length depends on m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, RangeError, ValidationError
from .seqset import SequenceSet, count
from .util import CHUNK, chunked_sum

# steps of the lacunary walk (1 + eps)^k up to the last breakpoint that
# ``oscillation_diagnostic`` takes; each is one Python loop turn
LACUNARY_STEP_CAP = 1 << 20
# the hit test forms (j mod m) step + x <= (m - 1)^2 + (m - 1) in int64,
# which holds for every m up to 2^31
MAX_STATES = 1 << 31


@dataclass(frozen=True)
class Shift:
    """x -> (x + step) mod m with 0 <= step < m, as ``cyclic_shift`` builds it."""

    m: int
    step: int


def check_states(m: int, what: str) -> None:
    """Refuse ``what``, a description that names m, above MAX_STATES."""
    if m > MAX_STATES:
        raise ValidationError(f"{what} exceeds MAX_STATES = {MAX_STATES}")


def cyclic_shift(m: int, step: int = 1) -> Shift:
    if m < 1:
        raise ValidationError("a system needs at least one state")
    check_states(m, f"cyclic shift on m = {m} states")
    # a shift by step is one by step % m, which fits in int64 whatever step is
    return Shift(m, step % m)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def _set_sums(sys: Shift, s: SequenceSet, weighted: bool,
              k: int, x: int, n) -> tuple[np.ndarray, np.ndarray]:
    """(sum over set elements j <= N of the hit T^j x == k, their count),
    shaped like n.

    When ``weighted`` each hit is weighted by h'(phi(max(j, y0))): phi's
    domain starts at y0 = h(x0), so an element below y0 is weighted by
    h'(phi(y0)) ~ h'(x0).  The terms are built once, up to the largest N,
    one ``CHUNK`` of elements at a time, so no temporary outgrows a block;
    each N sums its prefix with ``chunked_sum``: a prefix holds the same
    values as a fresh array up to N, so every sum has the bits of a one-N
    call.
    """
    cnt = np.asarray(count(s, n))
    for name, state in (("state", x), ("target state", k)):
        if not 0 <= state < sys.m:
            raise RangeError(f"{name} {state} outside 0..{sys.m - 1}")
    els = s.elements[:cnt.max(initial=0)]
    phi = s.phi if weighted else None
    terms = np.empty(els.size)
    for i in range(0, els.size, CHUNK):
        j = els[i:i + CHUNK]
        terms[i:i + CHUNK] = (j % sys.m * sys.step + x) % sys.m == k
        if weighted:
            terms[i:i + CHUNK] *= s.growth.deriv(phi.value(np.maximum(j, phi.y0)), 1)
    sums = np.array([chunked_sum(terms[:c]) for c in cnt.ravel()], dtype=float)
    return sums.reshape(cnt.shape), cnt


def ergodic_average(sys: Shift, s: SequenceSet, k: int, x: int,
                    n) -> float | np.ndarray:
    """Share of set elements j <= N with T^j x == k: the mean of the
    indicator of state k along the set.

    ``n`` is one N or an array of them; an array gives one average per N.
    """
    sums, cnt = _set_sums(sys, s, False, k, x, n)
    if np.any(cnt == 0):
        raise DegenerateError(f"no set elements in [1, {np.asarray(n)[cnt == 0][0]}]")
    out = sums / cnt
    return float(out) if out.ndim == 0 else out


def weighted_average(sys: Shift, s: SequenceSet, k: int, x: int,
                     n) -> float | np.ndarray:
    """Density-weighted mean: sum of h'(phi(j)) over elements j <= N with
    T^j x == k, over N.

    phi is the set's own inverse ``s.phi``.  The weight h'(phi(j))
    compensates for the thinning of the set, so the N-normalized sum tracks
    the count-normalized average in the limit; an element j below y0 is
    weighted at phi(y0), as ``_set_sums`` says.
    ``n`` is one N or an array of them; an array gives one average per N.
    """
    out = _set_sums(sys, s, True, k, x, n)[0] / np.asarray(n)
    return float(out) if out.ndim == 0 else out


def oscillation_diagnostic(sys: Shift, s: SequenceSet, k: int, x: int,
                           eps: float, breakpoints) -> float:
    """Sum over blocks of the largest weighted-average jump inside the block.

    Scales are restricted to the lacunary set {floor((1+eps)^k)}; blocks are
    the intervals between consecutive breakpoints, which must at least double.
    All averages come from one ``weighted_average`` call with N the array of
    breakpoints and scales; a breakpoint outside [1, n_max] is a RangeError.
    The sum divided by the block count trends to zero when the averages
    converge; this pointwise-at-x version is a weaker proxy for the full
    square-mean statement and is labeled as such wherever it is reported.
    An eps for which 1 + eps rounds to 1, or whose walk up to the last
    breakpoint takes more than ``LACUNARY_STEP_CAP`` steps, is refused.
    """
    if not eps > 0:
        raise ValidationError(f"lacunarity eps = {eps} must be positive")
    if math.isinf(eps):
        raise ValidationError(f"lacunarity eps = {eps} must be finite")
    if 1.0 + eps == 1.0:
        raise ValidationError(f"lacunarity eps = {eps} leaves 1 + eps == 1")
    bp = [int(b) for b in breakpoints]
    if len(bp) < 2:
        raise ValidationError("need at least two breakpoints")
    for a, b in zip(bp, bp[1:]):
        if not 2 * a < b:
            raise ValidationError(
                f"breakpoints must grow rapidly: 2 * {a} >= {b}")
    # the walk multiplies by the float 1 + eps until it passes bp[-1]
    steps = math.log(max(bp[-1], 1) + 1) / math.log(1.0 + eps)
    if steps > LACUNARY_STEP_CAP:
        raise ValidationError(
            f"lacunarity eps = {eps} takes about {steps:.3g} steps to reach "
            f"{bp[-1]}, over LACUNARY_STEP_CAP = {LACUNARY_STEP_CAP}")

    # lacunary scale set up to the last breakpoint
    lac, v = [], 1.0 + eps
    while (n := math.floor(v)) <= bp[-1]:
        if not lac or n != lac[-1]:
            lac.append(n)
        v *= 1.0 + eps
    lac = np.array(lac, dtype=np.int64)

    avg = weighted_average(sys, s, k, x, np.concatenate([bp, lac]))
    base, at = avg[:len(bp)], avg[len(bp):]
    total = 0.0
    for i, (a, b) in enumerate(zip(bp[:-1], bp[1:])):
        inside = (lac > a) & (lac <= b)
        if inside.any():
            total += float(np.abs(at[inside] - base[i]).max())
    return total
