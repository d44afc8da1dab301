"""Averages along the integer set under iterates of a finite permutation.

Finite uniform-measure systems stand in for general measure-preserving
dynamics at desk scale: a permutation of {0, ..., m-1} is invertible and
preserves counting measure, and T^n x for every n of a call is read off the
orbit of x, which each call walks once, only as far as its n need.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, RangeError, ValidationError
from .seqset import SequenceSet, count
from .signals import check_size
from .util import CHUNK, chunked_sum

# steps of the lacunary walk (1 + eps)^k up to the last breakpoint that
# ``oscillation_diagnostic`` takes; each is one Python loop turn
LACUNARY_STEP_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """A permutation system: states 0..size-1, uniform measure, map a bijection;
    ``iterate`` walks the orbit of x only as far as the request needs."""

    mapping: np.ndarray

    @property
    def size(self) -> int:
        return self.mapping.size

    @staticmethod
    def from_mapping(mapping) -> "FiniteSystem":
        mapping = np.asarray(mapping, dtype=np.int64)
        m = mapping.size
        if m == 0:
            raise ValidationError("a system needs at least one state")
        # m entries in 0..m-1 that hit every state are a permutation; one
        # mark per state takes m bytes and no copy of the map
        hit = np.zeros(m, dtype=bool)
        if mapping.min() >= 0 and mapping.max() < m:
            hit[mapping] = True
        if not hit.all():
            raise ValidationError("the map must be a permutation of 0..m-1")
        return FiniteSystem(mapping)

    def iterate(self, x: int, n) -> np.ndarray | int:
        """T^n x via the orbit of x; n may be a scalar or an array."""
        if not (0 <= x < self.size):
            raise RangeError(f"state {x} outside 0..{self.size - 1}")
        n = np.asarray(n, dtype=np.int64)
        # the walk stops at the period or past max(n), whichever comes first,
        # so n % len(orbit) is n in a cut orbit; a negative n needs the period
        stop = self.size if n.min(initial=0) < 0 else int(n.max(initial=0)) + 1
        orbit = [x]
        y = int(self.mapping[x])
        while y != x and len(orbit) < stop:
            orbit.append(y)
            y = int(self.mapping[y])
        out = np.array(orbit, dtype=np.int64)[n % len(orbit)]
        return int(out) if out.ndim == 0 else out


def cyclic_shift(m: int, step: int = 1) -> FiniteSystem:
    check_size(m, f"cyclic shift on m = {m} states")
    mapping = np.arange(step, m + step, dtype=np.int64)
    mapping %= m
    return FiniteSystem.from_mapping(mapping)


def _f_values(sys: FiniteSystem, f) -> np.ndarray:
    v = np.asarray(f, dtype=float)
    if v.size != sys.size:
        raise ValidationError(f"observable has {v.size} values, system has {sys.size}")
    return v


def indicator(sys_size: int, state: int) -> np.ndarray:
    check_size(sys_size, f"indicator on {sys_size} states")
    v = np.zeros(sys_size)
    v[state] = 1.0
    return v


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def _density_weights(s: SequenceSet, els) -> np.ndarray:
    """h'(phi(max(j, y0))) at each element j of ``els``: phi's domain starts at
    y0 = h(x0), so an element below y0 is weighted by h'(phi(y0)) ~ h'(x0)."""
    phi = s.phi
    u = np.asarray(phi.value(np.maximum(els, phi.y0)), dtype=float)
    return np.asarray(s.growth.deriv(u, 1), dtype=float)


def _set_sums(sys: FiniteSystem, s: SequenceSet, weighted: bool,
              f, x: int, n) -> tuple[np.ndarray, np.ndarray]:
    """(sum of f(T^j x) over set elements j <= N, their count), shaped like n.

    When ``weighted`` each term is weighted by h'(phi(max(j, y0))), from
    ``_density_weights``, one ``CHUNK`` of elements at a time.  The terms
    are built once, up to the largest N, and each N sums its prefix with
    ``chunked_sum``: a prefix holds the same values as a fresh array up to
    N, so every sum has the bits of a one-N call.
    """
    cnt = np.asarray(count(s, n))
    fv = _f_values(sys, f)
    els = s.elements[:cnt.max(initial=0)]
    terms = fv[sys.iterate(x, els)]
    if weighted:
        # in CHUNK blocks, so no temporary of phi or h' outgrows a block;
        # both work point by point, so the blocks do not change a bit
        for i in range(0, els.size, CHUNK):
            terms[i:i + CHUNK] *= _density_weights(s, els[i:i + CHUNK])
    sums = np.array([chunked_sum(terms[:k]) for k in cnt.ravel()], dtype=float)
    return sums.reshape(cnt.shape), cnt


def ergodic_average(sys: FiniteSystem, s: SequenceSet, f, x: int,
                    n) -> float | np.ndarray:
    """Mean of f(T^j x) over set elements j <= N, normalized by their count.

    ``n`` is one N or an array of them; an array gives one average per N.
    """
    sums, cnt = _set_sums(sys, s, False, f, x, n)
    if np.any(cnt == 0):
        raise DegenerateError(f"no set elements in [1, {np.asarray(n)[cnt == 0][0]}]")
    out = sums / cnt
    return float(out) if out.ndim == 0 else out


def weighted_average(sys: FiniteSystem, s: SequenceSet, f, x: int,
                     n) -> float | np.ndarray:
    """Density-weighted mean: sum of h'(phi(j)) f(T^j x) over elements, over N.

    phi is the set's own inverse ``s.phi``.  The weight h'(phi(j))
    compensates for the thinning of the set, so the N-normalized sum tracks
    the count-normalized average in the limit; an element j below y0 is
    weighted at phi(y0), as ``_set_sums`` says.
    ``n`` is one N or an array of them; an array gives one average per N.
    """
    out = _set_sums(sys, s, True, f, x, n)[0] / np.asarray(n)
    return float(out) if out.ndim == 0 else out


def oscillation_diagnostic(sys: FiniteSystem, s: SequenceSet, f, x: int,
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
    lac = []
    v = 1.0
    while True:
        v *= 1.0 + eps
        n = math.floor(v)
        if n > bp[-1]:
            break
        if n >= 1 and (not lac or n != lac[-1]):
            lac.append(n)
    lac = np.array(lac, dtype=np.int64)

    avg = weighted_average(sys, s, f, x, np.concatenate([bp, lac]))
    base, at = avg[:len(bp)], avg[len(bp):]
    total = 0.0
    for i, (a, b) in enumerate(zip(bp[:-1], bp[1:])):
        inside = (lac > a) & (lac <= b)
        if inside.any():
            total += float(np.abs(at[inside] - base[i]).max())
    return total
