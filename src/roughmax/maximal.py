"""Maximal averages over a list of scales and the stopping-time decomposition.

The maximal operator takes the pointwise sup of |K_N * f| over a family of
kernels at any ascending integer scales N, each over its count of set
elements, as in M_h.  Its weak-type behavior is probed empirically through
superlevel-set ratios, and structurally through the classical splitting of
an input into a bounded good part plus atoms on disjoint dyadic cubes,
refined per scale into an over-threshold piece, a mean-zero piece, and cube
means.

M f is built by ``_max_blocks`` one output block at a time, left to right,
with the scales inside each block.  f is transformed once, by
``signals._Segments``, the segment routine that ``signals.convolve`` uses
too.  Each scale's kernel is held as its set elements (a view of the set)
and its norm, after its checks, which run once per scale before any block;
it keeps its own grid of overlap-save segments, skips the segments that hold
no point, and builds a batch's kernel values from the batch's points.  A
batch is folded with a running max into the block that holds its first
output, and its outputs past the block end into the next block, so each
cell is the max over the same transform outputs that one accumulator over
the whole support would take.  Only that block and its carry, one batch's
buffers and the transform of f are held.  The weak-type counts sort each
block's nonzero cells and search them at every height; ``maximal_function``
writes the blocks into one array over the support.

Decomposition arithmetic runs on whatever number type the input carries:
exact Fractions (or ints) stay exact end to end, on integers scaled by the
lcm of the denominators, and floats stay floats.  A decomposition is held as
arrays over the sorted input: the selected cubes are index ranges into it
and the bad part a mask, and the per-atom dicts are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from . import signals
from .errors import (
    DegenerateError,
    InsufficientDataError,
    PreconditionError,
    RangeError,
    ValidationError,
)
from .kernel import (
    _kernel_support,
    _kernel_values,
    _support_window,
    decomposition_reports,
    estimate_chi,
)
from .seqset import SequenceSet, count
from .signals import Signal

LAMBDA_GRID_POINTS = 64  # heights in the default weak-type grid


# ---------------------------------------------------------------------------
# scale families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleFamily:
    """Ascending integer scales N on a set, with support stats.

    It holds what the kernels are built from, the set ``s`` (which carries
    its inverse as ``s.phi``), never a kernel: each is built where it is
    read, one scale at a time.  d[i] counts the set elements in (N/2, 4N]
    for N = scales[i]: one more than the kernel window [N/2 + 1, 4N - 1]
    holds when 4N is in the set.  ``big_d`` reads off each N its right edge
    D_N = 4N.  eps0 is the fitted support-sparsity exponent (must stay
    below 1) and growth_m the fitted geometric-growth constant (> 1);
    ``verify-family`` writes both into its header from here.
    """

    scales: tuple
    s: SequenceSet
    d: tuple
    eps0: float
    growth_m: float

    @property
    def big_d(self) -> tuple:
        return tuple(4 * n for n in self.scales)

    def scale_index(self, n: int) -> int:
        if n not in self.scales:
            raise RangeError(f"scale {n} is not one of the family's scales")
        return self.scales.index(n)

    def s_of_scale(self, n: int) -> int:
        """Smallest cube exponent s with 2^s >= the support edge 4N."""
        self.scale_index(n)
        return (4 * n - 1).bit_length()


def build_scale_family(s: SequenceSet, scales) -> ScaleFamily:
    """The family of ``s`` on ``scales``, ascending integers N >= 1."""
    if not scales or scales[0] < 1 or any(a >= b for a, b in zip(scales, scales[1:])):
        raise ValidationError("scales must be ascending integers >= 1")
    if 4 * scales[-1] > s.n_max:
        raise RangeError(f"largest kernel needs n_max >= 4N, past the set's {s.n_max}")
    d = tuple(count(s, 4 * sc) - count(s, sc // 2) for sc in scales)
    if min(d) < 1:
        raise DegenerateError("a scale window contains no set elements")
    eps0 = max(math.log(dn) / math.log(4 * sc) for dn, sc in zip(d, scales))
    if eps0 >= 1.0:
        raise ValidationError(f"support cardinality not sparse: eps0 = {eps0:.4f}")
    # the least ratio of consecutive d, capped by that of the edges 4N
    # (N'/N, as the 4 cancels); inf on one scale
    growth_m = min((b / a for t in (d, scales) for a, b in zip(t, t[1:])),
                   default=math.inf)
    if growth_m <= 1.0:
        raise ValidationError(f"scale statistics not growing: M = {growth_m:.4f}")
    return ScaleFamily(tuple(scales), s, d, eps0, growth_m)


# ---------------------------------------------------------------------------
# the maximal operator
# ---------------------------------------------------------------------------

def _max_blocks(family: ScaleFamily, f: Signal
                ) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block): M f on start, start + 1, ... for nonnegative f != 0,
    block after block from left to right.  A block no kernel output reaches
    is left out, and so are the cells past a block's last write: all are 0.
    A block is a view of a buffer that the next one overwrites.

    Every scale's grid of overlap-save segments is that of
    ``signals._Segments``, and a batch is folded, with a running max, into
    the block that holds its first output.  A batch's outputs span at most
    the block length, max(``signals.BATCH``, L), so the ones past the block
    end are folded into the next block, which the same buffer holds.  Each
    scale's kernel is held as its trimmed elements (a view of the set) and
    its norm; the values are built per batch from the batch's points.
    """
    if np.any(f.values < 0):
        raise ValidationError("the maximal operator is probed on nonnegative input")
    seg = signals._Segments(f)
    kernels = [(n, *_kernel_support(family.s, n)) for n in family.scales]
    size = max(signals.BATCH, seg.n)
    batches = [seg.batches(els) for _, els, _ in kernels]
    heads = [next(b, None) for b in batches]
    # the block in acc[:size], the outputs past it in acc[size:end]
    acc = np.zeros(2 * size)
    start, end = min(h[0] for h in heads), 0
    while True:
        for k, (n, els, norm) in enumerate(kernels):
            while heads[k] is not None and heads[k][0] < start + size:
                values = lambda a, b: _kernel_values(els[a:b], n, norm)
                for pos, block in seg.outputs(els, heads[k], values):
                    cells = acc[pos - start:pos - start + block.size]
                    # the batch's own buffer (or a copy of its rows): the
                    # sign goes in place
                    np.maximum(cells, np.abs(block, out=block), out=cells)
                    end = max(end, pos - start + block.size)
                del block               # a copy is let go before the next batch
                heads[k] = next(batches[k], None)
        yield start, acc[:min(end, size)]
        carry = max(end - size, 0)
        acc[:carry] = acc[size:end]
        acc[carry:end] = 0.0
        if carry:
            start, end = start + size, carry
        elif any(h is not None for h in heads):
            start, end = min(h[0] for h in heads if h is not None), 0
        else:
            return


def maximal_function(family: ScaleFamily, f: Signal) -> Signal:
    """Pointwise max over the family scales of |K_n * f|, for nonnegative f:
    the blocks of ``_max_blocks``, written into one array over supp f plus
    the scale windows, refused before any kernel is read when wider than
    ``signals.MAX_SUPPORT``, and trimmed of its zero ends."""
    if f.is_zero:
        return Signal.zero()
    lo = f.offset + _support_window(family.scales[0])[0]
    hi = f.support[1] + _support_window(family.scales[-1])[1]
    signals.check_size(hi - lo + 1, f"maximal-function support {hi - lo + 1}")
    mf = np.zeros(hi - lo + 1)
    for start, block in _max_blocks(family, f):
        mf[start - lo:start - lo + block.size] = block
    return Signal._own(lo, mf)


def default_lambda_grid(family: ScaleFamily, f: Signal) -> np.ndarray:
    """LAMBDA_GRID_POINTS log-spaced heights spanning [l1 / (4 max D_n), 2 linf].

    An input too spread out for that span (l1 / (4 max D_n) above 2 linf)
    is refused, with both ends named."""
    lo = f.l1() / (4.0 * max(family.big_d))
    hi = 2.0 * f.linf()
    if not 0.0 < lo <= hi:
        raise ValidationError(
            f"default heights need 0 < l1 / (4 max D_n) <= 2 linf, "
            f"got {lo} and {hi}")
    return np.exp(np.linspace(math.log(lo), math.log(hi), LAMBDA_GRID_POINTS))


def weak_type_profile(family: ScaleFamily, f: Signal, lambdas) -> list:
    """(height, count of M f > height, height * count / l1) for each height.

    Heights must be >= 0; a negative or NaN height is refused.  The count is
    over the cells of ``maximal_function``; M f is reduced block by block
    from ``_max_blocks``, each block's nonzero cells sorted and searched at
    every height, so no array as long as the support is held."""
    if f.is_zero:
        raise DegenerateError("weak-type profile needs a nonzero input")
    lams = np.asarray(lambdas, dtype=float)
    refused = lams[~(lams >= 0)]
    if refused.size:
        raise ValidationError(f"height {refused[0]} must be >= 0")
    counts = np.zeros(lams.size, dtype=np.int64)
    for _, block in _max_blocks(family, f):
        cells = block[block != 0]
        cells.sort()
        counts += cells.size - np.searchsorted(cells, lams, side="right")
        del cells                       # let go before the next block is built
    return list(zip(lams.tolist(), counts.tolist(),
                    (lams * counts / f.l1()).tolist()))


# ---------------------------------------------------------------------------
# stopping-time decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CZAtom:
    """Input restricted to one selected dyadic cube [j 2^s, (j+1) 2^s)."""

    scale: int
    index: int
    values: dict

    def cube(self) -> tuple[int, int]:
        return (self.index << self.scale, ((self.index + 1) << self.scale) - 1)

    def l1(self):
        return sum(abs(v) for v in self.values.values())


@dataclass(frozen=True, eq=False)
class CZDecomposition:
    """Splitting at a height: good part bounded by twice the height, plus
    atoms on pairwise disjoint dyadic cubes carrying the heavy mass.

    It is stored as arrays over the nonzero input, sorted by position:
    ``positions`` (int64), the input ``values`` themselves, and ``scaled``,
    the values times ``denominator`` D as an object array (exact ints when
    the height and every value are ints or Fractions; else D = 1 and the
    values as given), with ``total`` their sum, added left to right.  Row k
    of ``cubes`` is the k-th selected cube as (scale, index, lo, hi): it
    holds the points lo..hi-1.  ``bad`` marks the points of selected cubes.

    ``atoms``, ``good`` and ``index_set`` are views built from the arrays on
    first read.  ``reconstruction`` and ``refine_bad_part`` read the arrays
    themselves: the atom dicts are built only by ``atoms`` and
    ``atoms_at_scale``.  ``good`` lists positions in ascending order.  ``atoms``
    (like the rows of ``cubes``) come in the order the tree walk selects
    them: scale descending, then cube index ascending.
    """

    height: object
    positions: np.ndarray
    values: list
    scaled: np.ndarray
    denominator: int
    total: object
    cubes: np.ndarray
    bad: np.ndarray

    def _atoms(self, rows) -> tuple:
        keys, vals = self.positions.tolist(), self.values
        return tuple(CZAtom(s, j, dict(zip(keys[a:b], vals[a:b])))
                     for s, j, a, b in self.cubes[rows].tolist())

    @cached_property
    def atoms(self) -> tuple:
        return self._atoms(slice(None))

    @cached_property
    def good(self) -> dict:
        keys, vals = self.positions.tolist(), self.values
        return {keys[t]: vals[t] for t in np.flatnonzero(~self.bad).tolist()}

    @cached_property
    def index_set(self) -> frozenset:
        return frozenset(map(tuple, self.cubes[:, :2].tolist()))

    def reconstruction(self) -> dict:
        """Good part plus atoms, point by point: each value times the number
        of selected ranges that hold it, plus one off the bad mask."""
        copies = _cover_counts(self.cubes, self.positions.size) + ~self.bad
        return {x: v if k == 1 else k * v
                for x, v, k in zip(self.positions.tolist(), self.values,
                                   copies.tolist()) if k > 0}

    def total_cube_size(self) -> int:
        return sum(1 << s for s in self.cubes[:, 0].tolist())

    def atoms_at_scale(self, s: int) -> list:
        return list(self._atoms(self.cubes[:, 0] == s))


def _as_value_map(f) -> dict:
    if isinstance(f, Signal):
        return f.to_dict()
    if isinstance(f, Mapping):
        return {int(x): v for x, v in f.items()}
    raise ValidationError(f"cannot decompose a {type(f).__name__}")


def cz_decompose(f, height) -> CZDecomposition:
    """Stopping-time splitting of f >= 0 at the given positive height.

    Starting from a dyadic cube that covers the support with average at most
    the height, cubes are bisected and the maximal ones whose average exceeds
    the height are selected.  Atoms keep the raw restriction of f (no mean is
    subtracted); the good part is f off the selected cubes.  Selected-cube
    averages lie in (height, 2 * height], the usual dyadic factor.

    The tree is walked one dyadic level at a time, from the root scale down
    to scale 0.  At each level one search over the sorted positions splits
    every surviving cube at its midpoint, the children's sums are differences
    of prefix sums, and one comparison with height * 2^scale picks the
    children that become atoms; the others descend.  When the height and
    every value are ints or Fractions, all of them are first multiplied by D,
    the lcm of their denominators, so prefix sums and thresholds are exact
    Python ints of any size, and the zero and sign checks read those ints.
    With any float, D = 1, a NaN or infinite value, or an int, Fraction or
    total past the float range, is refused, and the prefix sums add the
    values left to right in their own arithmetic.
    Positions must lie in [-2^63, 2^63).

    A selected cube is kept as its scale, index and range of sorted points;
    no per-atom dict is built until ``atoms`` or ``good`` is read.
    """
    values = _as_value_map(f)
    lam = height
    keys = sorted(values)
    vals = [values[x] for x in keys]
    exact = all(issubclass(t, (int, Fraction)) for t in {type(lam), *map(type, vals)})
    if exact:
        ratios = [v.as_integer_ratio() for v in vals]
        d = math.lcm(lam.denominator, *{q for _, q in ratios})
        scaled = [p * (d // q) for p, q in ratios]
        lam_d = lam.numerator * (d // lam.denominator)
    else:
        # ints and Fractions are always finite; a float NaN or inf is not
        if not all(isinstance(v, (int, Fraction)) or math.isfinite(v) for v in vals):
            raise ValidationError("decomposition input must be finite")
        d, scaled, lam_d = 1, vals, lam
    if 0 in scaled:
        nonzero = [t for t, v in enumerate(scaled) if v != 0]
        keys = [keys[t] for t in nonzero]
        vals = [vals[t] for t in nonzero]
        scaled = [scaled[t] for t in nonzero]
    if not keys:
        raise DegenerateError("cannot decompose the zero input")
    if any(v < 0 for v in scaled):
        raise ValidationError("decomposition input must be nonnegative")
    if not lam > 0:
        raise ValidationError(f"height {lam} must be positive")
    if keys[0] < -(1 << 63) or keys[-1] >= 1 << 63:
        raise ValidationError(
            f"positions must lie in [-2^63, 2^63), got {keys[0]}..{keys[-1]}")

    n = len(keys)
    xs = np.array(keys, dtype=np.int64)
    scaled = np.array(scaled, dtype=object)
    # prefix[i] = D * sum of vals[:i], added left to right
    prefix = np.empty(n + 1, dtype=object)
    prefix[0] = 0
    try:
        with np.errstate(over="ignore"):    # a float sum past the range is inf
            np.cumsum(scaled, out=prefix[1:])
    except OverflowError:   # an int or Fraction past it, rounded to a float
        prefix[n] = math.inf
    if not exact and not prefix[n] < 1 << 1024:
        raise ValidationError("decomposition input beside a float, and its "
                              "sum, must lie in the float range")

    def threshold(s):   # lam_d 2^s exactly; inf past the float range
        if isinstance(lam_d, (int, Fraction)):
            return lam_d * (1 << s)
        return math.ldexp(lam_d, s) if math.frexp(lam_d)[1] + s <= 1024 else math.inf

    # Root cubes: dyadic cubes anchored at 0 never straddle it, so a support
    # touching both sides needs one root per side.  The scale is grown until
    # every root average is at most the height and each side fits one cube.
    s = 0
    while (prefix[n] > threshold(s)
           or (keys[0] >> s) < -1 or (keys[-1] >> s) > 0):
        s += 1
    split = int(np.searchsorted(xs, 0))
    # an empty root only has empty children, which the walk drops
    j, lo, hi = np.array([-1, 0]), np.array([0, split]), np.array([split, n])
    selected = [np.empty((0, 4), dtype=np.int64)]
    while s > 0 and j.size:
        s -= 1
        if s < 63:
            mid = np.searchsorted(xs, (2 * j + 1) << s)
        else:
            # +-2^s lies beyond every int64 position (or at -2^63), so cube 0
            # keeps all of its points on the left and cube -1 on the right
            mid = np.where(j < 0, lo, hi)
        j = np.stack((2 * j, 2 * j + 1), axis=1).ravel()
        lo = np.stack((lo, mid), axis=1).ravel()
        hi = np.stack((mid, hi), axis=1).ravel()
        keep = lo < hi
        j, lo, hi = j[keep], lo[keep], hi[keep]
        heavy = prefix[hi] - prefix[lo] > threshold(s)
        selected.append(np.stack((np.full(j.size, s), j, lo, hi), axis=1)[heavy])
        light = ~heavy
        j, lo, hi = j[light], lo[light], hi[light]

    cubes = np.concatenate(selected)
    return CZDecomposition(lam, xs, vals, scaled, d, prefix[n], cubes,
                           _cover_counts(cubes, n) > 0)


def _cover_counts(cubes: np.ndarray, n: int) -> np.ndarray:
    """How many of the ranges lo..hi-1 in the rows of ``cubes`` hold each of
    the points 0..n-1: +1 at each start and -1 past each end, summed."""
    edges = np.zeros(n + 1, dtype=np.int64)
    np.add.at(edges, cubes[:, 2], 1)
    np.add.at(edges, cubes[:, 3], -1)
    return np.cumsum(edges[:n])


# ---------------------------------------------------------------------------
# per-scale refinement of the bad part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinedBadPart:
    """Scale-indexed split of the cube-scale-s bad part b_s into
    over-threshold values, a mean-zero remainder, and cube means:
    b_cut + big_b + g_part = b_s exactly, with big_b summing to zero on
    every cube.
    """

    threshold: object
    b_cut: dict
    big_b: dict
    g_part: dict
    s_of_n: int
    cubes: tuple


def refine_bad_part(cz: CZDecomposition, s: int, n: int,
                    family: ScaleFamily) -> RefinedBadPart:
    """Split the scale-s bad part against the support count d_N at scale N = n.

    The split reads the rows of ``cz.cubes`` at scale s and slices the
    sorted points and values with their ranges; no atom is built.  Big_b
    and the cube means are written at every point of each cube, so a cube
    wider than ``signals.MAX_SUPPORT`` is refused before any is built.
    """
    rows = cz.cubes[cz.cubes[:, 0] == s].tolist()
    if not rows:
        raise RangeError(f"no atoms at cube scale {s}")
    size = 1 << s
    signals.check_size(size, f"bad-part cube width 2^{s}")
    d_n = family.d[family.scale_index(n)]
    thr = cz.height * d_n

    keys = cz.positions.tolist()
    b_cut: dict = {}
    big_b: dict = {}
    g_part: dict = {}
    for _, j, a, b in rows:
        kept = {}
        for x, v in zip(keys[a:b], cz.values[a:b]):
            if abs(v) > thr:
                b_cut[x] = v
            else:
                kept[x] = v
        total = sum(kept.values())
        mean = (Fraction(total, size) if isinstance(total, (int, Fraction))
                else total / size)
        lo = j << s
        if mean != 0:
            for x in range(lo, lo + size):
                g_part[x] = mean
        for x in range(lo, lo + size):
            r = kept.get(x, 0) - mean
            if r != 0:
                big_b[x] = r
    return RefinedBadPart(thr, b_cut, big_b, g_part, family.s_of_scale(n),
                          tuple(sorted((j << s, ((j + 1) << s) - 1)
                                       for _, j, _, _ in rows)))


# ---------------------------------------------------------------------------
# abstract kernel-family hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyHypothesesReport:
    """Per-scale measurements of the model-family requirements.

    For each scale the model profile equals the kernel autocorrelation up to
    the inverse-function value and the slowly varying tail beyond it, so the
    approximation residual lives entirely in the tail region.  Columns:

    residual_sup      sup |autocorr - model|            (capped by D^-1-eps1)
    f0_d_product      model(0) * support count          (capped by a constant)
    f_sup_times_d     sup_{x != 0} |model(x)| * D       (capped by a constant)
    lipschitz_ratio   sup D^2 |model(x+y) - model(x)| / y over the tail region

    The columns are the family's decomposition reports rescaled, exactly,
    from N to D_n = 4N: en_sup, point_mass * d_n,
    4 * max(small_x_bound, gn_sup) and 16 * gn_lipschitz.  The scales,
    d_n, D_n, eps0 and growth_m are the family's, read off it.
    """

    residual_sup: tuple
    f0_d_product: tuple
    f_sup_times_d: tuple
    lipschitz_ratio: tuple
    eps1: float


def verify_family_hypotheses(family: ScaleFamily,
                             workers: int = 1) -> FamilyHypothesesReport:
    """Measure the kernel-family hypotheses across scales and fit eps1.

    The smoothness region is |x|, |x+y| beyond the inverse-function value of
    the scale (where the model is the slowly varying tail).  The report
    holds only what is measured here: eps0 and growth_m are the family's
    own, and eps2, the separation exponent, is not measured at all.  The
    scales run through ``decomposition_reports`` on up to ``workers``
    threads (the report does not depend on the thread count); eps1 is
    ``estimate_chi`` of their reports.
    """
    c = family.s.growth.c
    if not (1.0 < c < 30.0 / 29.0):
        raise PreconditionError(
            f"model-family measurements need 1 < c < 30/29, got c = {c}")
    if len(family.scales) < 4:
        raise InsufficientDataError("need >= 4 scales to fit the decay exponent")
    reps = decomposition_reports(family.s, family.scales, workers)
    return FamilyHypothesesReport(
        residual_sup=tuple(r.en_sup for r in reps),
        f0_d_product=tuple(r.point_mass * d_n for r, d_n in zip(reps, family.d)),
        f_sup_times_d=tuple(4 * max(r.small_x_bound, r.gn_sup) for r in reps),
        lipschitz_ratio=tuple(16 * r.gn_lipschitz for r in reps),
        eps1=estimate_chi(reps))
