"""Maximal averages, weak-type ratios, and the stopping-time decomposition.

Decomposition checks run on exact rational inputs where every invariant is
asserted with equality; the float path is exercised separately at 1e-12.
"""

import hashlib
import math
import random
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import count_kernel, cz_rows, dyadic, traced_peak, values_at
from roughmax import (
    CZAtom,
    DegenerateError,
    InsufficientDataError,
    RangeError,
    Signal,
    SignalSizeError,
    ValidationError,
    autocorrelation_signal,
    build_kernel,
    build_scale_family,
    convolve,
    cz_decompose,
    decomposition_report,
    default_lambda_grid,
    estimate_chi,
    generate,
    gn_profile,
    make_growth,
    maximal_function,
    refine_bad_part,
    verify_family_hypotheses,
    weak_type_profile,
)
from roughmax import kernel, maximal, signals
from roughmax.cli import _parse_corpus, parse_growth_spec


@pytest.fixture(scope="module")
def fam102(s102_16):
    return build_scale_family(s102_16, dyadic(8, 13))


def family_kernels(fam):
    """The maximal operator's kernels of the family, over the count of set
    elements up to each scale, built here: the family itself holds none."""
    return [count_kernel(fam.s, n) for n in fam.scales]


def same_signal(a, b):
    return a.offset == b.offset and np.array_equal(a.values, b.values)


def window_bounds(fam, f):
    """[lo, hi] of the M f accumulator: supp f plus the scale windows (N/2, 4N)."""
    return (f.offset + fam.scales[0] // 2 + 1,
            f.support[1] + 4 * fam.scales[-1] - 1)


def random_rational_signal(rng, allow_negative_positions=True):
    n_spikes = int(rng.integers(1, 40))
    lo = -300 if allow_negative_positions else 0
    pos = rng.integers(lo, 2000, n_spikes)
    f = {}
    for p in pos:
        f[int(p)] = f.get(int(p), 0) + Fraction(int(rng.integers(1, 120)),
                                                int(rng.integers(1, 24)))
    return f


def check_cz_invariants(f, lam, cz):
    assert cz.reconstruction() == {x: v for x, v in f.items() if v != 0}
    covered = set()
    for a in cz.atoms:
        lo, hi = a.cube()
        cube = set(range(lo, hi + 1))
        assert not (cube & covered)          # disjoint cubes
        covered |= cube
        assert set(a.values) <= cube         # atoms live on their cubes
        total = sum(a.values.values())
        assert lam * (1 << a.scale) < total <= 2 * lam * (1 << a.scale)
        assert a.l1() <= 2 * lam * (1 << a.scale)
    for v in cz.good.values():
        assert 0 <= v <= 2 * lam
    assert cz.total_cube_size() <= 4 * sum(f.values()) / lam
    assert cz.index_set == {(a.scale, a.index) for a in cz.atoms}


# ---------------------------------------------------------------------------
# scale families
# ---------------------------------------------------------------------------

def test_family_statistics(fam102):
    assert fam102.scales == tuple(1 << n for n in range(8, 14))
    assert 0.0 < fam102.eps0 < 1.0
    assert fam102.growth_m > 1.0
    # the support edge is 4 * 2^n, so the cube exponent is n + 2
    assert fam102.s_of_scale(1 << 10) == 12
    with pytest.raises(RangeError):
        fam102.scale_index(1 << 7)


def test_family_closed_forms_are_the_fitted_values(fam102):
    # the cube exponent of edge 4 * 2^n is n + 2, and the edges double, so
    # their ratio caps growth_m at exactly 2
    for n in range(8, 14):
        assert fam102.s_of_scale(1 << n) == math.ceil(math.log2(4 * (1 << n)))
    with pytest.raises(RangeError):
        fam102.s_of_scale(1 << 14)
    d = fam102.d
    assert fam102.growth_m == min(min(b / a for a, b in zip(d, d[1:])),
                                  min(b / a for a, b in zip(fam102.big_d,
                                                            fam102.big_d[1:])))


def test_family_range_checks(s102_16):
    # a scale past the set was written out in full: 1,536 characters here
    for scales in (dyadic(8, 15), [1 << 5000]):
        with pytest.raises(RangeError, match=f"^largest kernel needs n_max >= 4N, "
                                             f"past the set's {1 << 16}$"):
            build_scale_family(s102_16, scales)
    for scales in (dyadic(10, 9), [1 << 10, 1 << 9], [256, 256], [0, 256]):
        with pytest.raises(ValidationError, match="ascending integers >= 1"):
            build_scale_family(s102_16, scales)


# four scales per octave: 2^k and three rounded scales between
QUARTER_OCTAVES = [round(2 ** (k + i / 4)) for k in range(8, 12) for i in range(4)]


@pytest.fixture(scope="module")
def fam_quarter(s102_16):
    return build_scale_family(s102_16, QUARTER_OCTAVES)


def test_family_on_quarter_octaves(fam_quarter, fam102):
    assert fam_quarter.scales == tuple(QUARTER_OCTAVES)
    assert fam_quarter.big_d == tuple(4 * n for n in QUARTER_OCTAVES)
    # both the edges and the counts d grow by about 2^(1/4) a scale
    d, scales = fam_quarter.d, fam_quarter.scales
    assert fam_quarter.growth_m == min(min(b / a for a, b in zip(d, d[1:])),
                                       min(b / a for a, b in zip(scales, scales[1:])))
    assert 1.0 < fam_quarter.growth_m < 2.0
    for fam in (fam_quarter, fam102):
        for i, sc in enumerate(fam.scales):
            assert fam.scale_index(sc) == i
            s = fam.s_of_scale(sc)
            assert 2 ** s >= 4 * sc > 2 ** (s - 1)
    with pytest.raises(RangeError):
        fam_quarter.scale_index(QUARTER_OCTAVES[1] + 1)


@pytest.mark.parametrize("corpus", ["delta", "random"])
def test_maximal_function_on_quarter_octaves_is_the_per_scale_max(
        fam_quarter, rng, corpus):
    f = Signal.delta(0) if corpus == "delta" else _sites_signal(rng, -300, 2000, 40)
    mf = maximal_function(fam_quarter, f)
    assert same_signal(mf, _accumulated_maximal(fam_quarter, f))
    lams = default_lambda_grid(fam_quarter, f)
    counts = [c for _, c, _ in weak_type_profile(fam_quarter, f, lams)]
    assert counts == [int(np.count_nonzero(mf.values > lam)) for lam in lams]


# ---------------------------------------------------------------------------
# the maximal operator
# ---------------------------------------------------------------------------

def test_maximal_zero_input(fam102):
    assert maximal_function(fam102, Signal.zero()).is_zero


def test_maximal_of_delta_is_kernel_sup(fam102):
    # direct per-scale evaluation oracle
    mf = maximal_function(fam102, Signal.delta(0))
    kernels = family_kernels(fam102)
    xs = np.arange(0, max(k.support[1] for k in kernels) + 1)
    oracle = np.zeros(xs.size)
    for k in kernels:
        oracle = np.maximum(oracle, np.abs(values_at(k, xs)))
    assert np.allclose(values_at(mf, xs), oracle, rtol=0, atol=1e-15)


def test_maximal_identity_closed_form(sident):
    # every integer is in the set, so the sup at x is max over scales of
    # eta(x / 2^n) / count(2^n)
    from roughmax import count, eta
    fam = build_scale_family(sident, dyadic(3, 10))
    mf = maximal_function(fam, Signal.delta(0))
    for x in (5, 9, 17, 100, 1000, 4000):
        expect = max(float(eta(x / float(sc))) / count(sident, sc)
                     for sc in fam.scales)
        assert values_at(mf, x) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_maximal_homogeneity_exact(fam102, rng):
    f = Signal.from_dict({int(p): float(v) for p, v in
                          zip(rng.integers(0, 500, 20), rng.uniform(0.1, 5, 20))})
    m1 = maximal_function(fam102, f)
    m2 = maximal_function(fam102, Signal(f.offset, 2.0 * f.values))
    assert np.array_equal(2.0 * m1.values, m2.values)


def test_maximal_sublinear(fam102, rng):
    da = {int(p): 1.0 for p in rng.integers(0, 300, 10)}
    db = {int(p): 1.0 for p in rng.integers(0, 300, 10)}
    fa, fb = Signal.from_dict(da), Signal.from_dict(db)
    ms = maximal_function(fam102, Signal.from_dict(
        {x: da.get(x, 0.0) + db.get(x, 0.0) for x in da.keys() | db.keys()}))
    ma = maximal_function(fam102, fa)
    mb = maximal_function(fam102, fb)
    xs = np.arange(ms.support[0], ms.support[1] + 1)
    assert np.all(values_at(ms, xs) <= values_at(ma, xs) + values_at(mb, xs) + 1e-12)


def test_maximal_linf_bound(fam102, rng):
    f = Signal.from_dict({int(p): float(v) for p, v in
                          zip(rng.integers(0, 400, 30), rng.uniform(0, 3, 30))})
    mf = maximal_function(fam102, f)
    cap = f.linf() * max(k.sum() for k in family_kernels(fam102))
    assert mf.linf() <= cap + 1e-12


def test_maximal_rejects_negative(fam102):
    with pytest.raises(ValidationError):
        maximal_function(fam102, Signal.delta(0, -1.0))


def test_weak_type_profile_empty_superlevel(fam102):
    mf = maximal_function(fam102, Signal.delta(0))
    lam = 2.0 * mf.linf()
    profile = weak_type_profile(fam102, Signal.delta(0), [lam])
    assert profile == [(lam, 0, 0.0)]


def test_weak_type_rows_carry_the_superlevel_count(fam102):
    f = Signal.from_dict({0: 1.0, 37: 2.0, 500: 1.0})
    mf = maximal_function(fam102, f)
    lams = default_lambda_grid(fam102, f)
    rows = weak_type_profile(fam102, f, lams)
    assert [lam for lam, _, _ in rows] == lams.tolist()
    for lam, cnt, ratio in rows:
        assert cnt == np.count_nonzero(mf.values > lam)
        assert ratio == lam * cnt / f.l1()


def test_weak_type_counts_match_a_sorted_copy(fam102, rng):
    # the profile sorts the accumulator in place; the oracle sorts a copy of
    # maximal_function's values, at heights that equal cells, lie between
    # them, and lie below and above every cell
    f = _sites_signal(rng, 0, 3000, 40)
    mf = np.sort(maximal_function(fam102, f).values)
    cells = mf[rng.integers(0, mf.size, 16)]
    lams = np.concatenate((cells, np.nextafter(cells, np.inf), [0.0],
                           [mf[0], mf[-1], 2 * mf[-1]],
                           default_lambda_grid(fam102, f)))
    rows = weak_type_profile(fam102, f, lams)
    assert [c for _, c, _ in rows] == (
        mf.size - np.searchsorted(mf, lams, side="right")).tolist()
    assert rows[34][1] == 0                             # the height max


@pytest.mark.parametrize("height", [-1.0, float("nan")])
def test_weak_type_profile_refuses_a_negative_or_nan_height(engine_families, height):
    # M f > height would hold at every integer below 0, and at none for NaN
    f = Signal.from_dict({0: 1.0, 5: 2.0})
    with pytest.raises(ValidationError, match=f"^height {height} must be >= 0$"):
        weak_type_profile(engine_families["pure:1.02"], f, [0.5, height])


def test_weak_type_quasi_additivity(fam102, rng):
    single = max(r for _, _, r in weak_type_profile(
        fam102, Signal.delta(0), default_lambda_grid(fam102, Signal.delta(0))))
    sites = rng.integers(0, 1 << 12, 1 << 8)
    d = {}
    for p in sites:
        d[int(p)] = d.get(int(p), 0.0) + 1.0
    f = Signal.from_dict(d)
    many = max(r for _, _, r in weak_type_profile(
        fam102, f, default_lambda_grid(fam102, f)))
    assert many <= 4.0 * single


def _sites_signal(rng, lo, hi, nnz):
    """nnz distinct positions in [lo, hi) with both ends taken, values in [1, 5)."""
    ends = np.unique([lo, hi - 1])
    inner = rng.choice(np.arange(lo + 1, hi - 1), nnz - ends.size, replace=False)
    pos = np.concatenate((ends, inner))
    return Signal.from_dict({int(p): float(v) for p, v in
                             zip(pos, rng.uniform(1.0, 5.0, nnz))})


def _direct_maximal(family, f, lo, hi):
    xs = np.arange(lo, hi + 1)
    oracle = np.zeros(xs.size)
    for k in family_kernels(family):
        oracle = np.maximum(oracle, np.abs(values_at(convolve(f, k, "direct"), xs)))
    return oracle


@pytest.mark.parametrize("lo,hi,nnz", [
    (0, 100, 65),                     # short f: many segments per batch
    (-3001, 2000, 700),               # negative offset, width 5001
    (-50, 9000, 2000),                # one segment per batch
    (9000, 9001, 1),                  # one site: one block per kernel
    (0, 1 << 14, 2),                  # sparse and wide, as the random corpora
    (0, 1 << 14, 48),
])
def test_transform_path_matches_direct_oracle(s102_16, rng, monkeypatch,
                                              lo, hi, nnz):
    # 2^16-point batches, so the top kernel's output spans several of them
    monkeypatch.setattr(signals, "BATCH", 1 << 16)
    fam = build_scale_family(s102_16, dyadic(8, 14))
    f = _sites_signal(rng, lo, hi, nnz)
    assert np.count_nonzero(f.values) == nnz and f.support == (lo, hi - 1)
    blocks = []
    real = signals._Segments.outputs

    def recording(seg, pos, batch, v):
        for start, block in real(seg, pos, batch, v):
            blocks.append((start, block.size))
            yield start, block

    monkeypatch.setattr(signals._Segments, "outputs", recording)
    mf = maximal_function(fam, f)
    kernels = family_kernels(fam)
    top = kernels[-1]
    top_blocks = [b for b in blocks if b[0] >= f.offset + top.offset]
    if nnz > 1:                                     # one site: one batch
        assert len(top_blocks) >= 2                 # the top kernel spans blocks
    assert kernels[0].values.size < max(n for _, n in blocks)
    oracle = _direct_maximal(fam, f, *mf.support)
    assert np.max(np.abs(mf.values - oracle)) <= 1e-12
    lams = default_lambda_grid(fam, f)
    counts = [c for _, c, _ in weak_type_profile(fam, f, lams)]
    assert counts == [int(np.count_nonzero(oracle > lam)) for lam in lams]


def _accumulated_maximal(fam, f):
    """M f the single-array way: one accumulator over supp f plus the scale
    windows, with each kernel's overlap-save blocks folded in by a running
    max, one kernel after another, its values built once for its window."""
    lo, hi = window_bounds(fam, f)
    acc = np.zeros(hi - lo + 1)
    seg = signals._Segments(f)
    for n in fam.scales:
        els, norm = kernel._kernel_support(fam.s, n)
        vals = kernel._kernel_values(els, n, norm)
        for batch in seg.batches(els):
            for start, block in seg.outputs(els, batch, lambda a, b: vals[a:b]):
                cells = acc[start - lo:start - lo + block.size]
                np.maximum(cells, np.abs(block), out=cells)
    return Signal(lo, acc)


@pytest.fixture(scope="module")
def engine_families(s102_16):
    return {"pure:1.02": build_scale_family(s102_16, dyadic(6, 9)),
            "pure:1.9": build_scale_family(
                generate(make_growth("pure", 1.9), 4 << 12), dyadic(6, 12))}


@pytest.mark.parametrize("batch", [1, 8, 64])
@pytest.mark.parametrize("growth,corpus", [
    ("pure:1.02", "delta"), ("pure:1.02", "random"),
    ("pure:1.9", "delta"), ("pure:1.9", "random"),
])
def test_blocked_engine_matches_one_accumulator(engine_families, rng,
                                                monkeypatch, batch, growth,
                                                corpus):
    # blocks of a few cells: on pure:1.9 batches cross block ends, so
    # outputs are carried into the next block, and a one-site corpus leaves
    # stretches that no output reaches, whose blocks are skipped.
    # Every cell has the bits of one accumulator fed the same batches, and
    # the counts are those of a brute-force M f
    monkeypatch.setattr(signals, "BATCH", batch)
    fam = engine_families[growth]
    f = Signal.delta(0) if corpus == "delta" else _sites_signal(rng, 0, 40, 6)
    starts, runs = [], []
    real_blocks, real_outputs = maximal._max_blocks, signals._Segments.outputs

    def blocks(family, f):
        for start, block in real_blocks(family, f):
            starts.append(start)
            yield start, block

    def outputs(seg, pos, rows, values):
        for start, block in real_outputs(seg, pos, rows, values):
            runs.append((start, block.size))
            yield start, block

    monkeypatch.setattr(maximal, "_max_blocks", blocks)
    monkeypatch.setattr(signals._Segments, "outputs", outputs)
    mf = maximal_function(fam, f)
    assert same_signal(mf, _accumulated_maximal(fam, f))
    size = max(batch, 1 << (4 * f.values.size - 1).bit_length())
    block_of = [starts[np.searchsorted(starts, p, side="right") - 1] for p, _ in runs]
    if growth == "pure:1.9":
        # on pure:1.02 the windows start at N/2 + 1, so every scale's grid
        # can share the blocks' phase and no batch need cross a block end
        assert any(p + n > s + size for (p, n), s in zip(runs, block_of))
        assert (np.diff(starts) > size).any() == (corpus == "delta")
    oracle = _direct_maximal(fam, f, *mf.support)
    assert np.max(np.abs(mf.values - oracle)) <= 1e-12
    lams = default_lambda_grid(fam, f)
    counts = [c for _, c, _ in weak_type_profile(fam, f, lams)]
    assert counts == [int(np.count_nonzero(mf.values > lam)) for lam in lams]
    assert counts == [int(np.count_nonzero(oracle > lam)) for lam in lams]


def test_weak_type_profile_holds_no_array_of_the_support():
    # M f over pure:1.9 16..22 spans 128 MiB; the counts hold one block and
    # its carry (4 MiB), one batch's segment and spectrum buffers (5 MiB at
    # L = 4) and one block's nonzero cells: 9.7 MiB measured
    fam = build_scale_family(generate(make_growth("pure", 1.9), 4 << 22),
                             dyadic(16, 22))
    f = Signal.delta(0)
    lo, hi = window_bounds(fam, f)
    assert 8 * (hi - lo + 1) > 127 << 20
    peak = traced_peak(weak_type_profile, fam, f, default_lambda_grid(fam, f))
    assert peak < 8 * (hi - lo + 1) / 10, peak


def test_maximal_refuses_a_wide_accumulator(fam102, monkeypatch):
    f = Signal.from_dict({0: 1.0, 900: 1.0})
    mf = maximal_function(fam102, f)
    lo, hi = window_bounds(fam102, f)
    assert lo <= mf.support[0] and mf.support[1] <= hi
    width = hi - lo + 1
    monkeypatch.setattr(signals, "MAX_SUPPORT", width)
    assert same_signal(maximal_function(fam102, f), mf)
    monkeypatch.setattr(signals, "MAX_SUPPORT", width - 1)
    with pytest.raises(SignalSizeError, match="maximal-function support"):
        maximal_function(fam102, f)


def test_maximal_refuses_a_long_transform(fam102, monkeypatch):
    # f spans 2^14 sites, so its transform length is 2^16: longer than the
    # accumulator, which the largest window (ending by 2^15) keeps below 2^16
    f = Signal.from_dict({0: 1.0, (1 << 14) - 1: 1.0})
    mf = maximal_function(fam102, f)
    lo, hi = window_bounds(fam102, f)
    width = hi - lo + 1
    assert width < 1 << 16
    monkeypatch.setattr(signals, "MAX_SUPPORT", 1 << 16)
    assert same_signal(maximal_function(fam102, f), mf)
    monkeypatch.setattr(signals, "MAX_SUPPORT", width)
    with pytest.raises(SignalSizeError, match="transform length 65536"):
        maximal_function(fam102, f)


def test_every_size_refusal_names_the_cap_it_checks(fam102, s102_16, phi102,
                                                    monkeypatch):
    # each of the seven size checks, under a cap of 64 that every probe exceeds
    monkeypatch.setattr(signals, "MAX_SUPPORT", 64)
    wide, narrow = Signal(0, np.ones(40)), Signal(0, np.ones(17))
    cz = cz_decompose({0: 1, 100: 1}, Fraction(1, 256))   # one atom, at scale 8
    probes = {
        "convolution output support 79": lambda: convolve(wide, wide),
        "overlap-save transform length 128": lambda: convolve(narrow, narrow, "fast"),
        "autocorrelation support 79": lambda: autocorrelation_signal(wide),
        "kernel support": lambda: build_kernel(s102_16, 1 << 10),
        "G_N window": lambda: gn_profile(phi102, 1 << 10),
        "maximal-function support": lambda: maximal_function(fam102, Signal.delta(0)),
        "bad-part cube width 2\\^8": lambda: refine_bad_part(cz, 8, 1 << 8, fam102),
    }
    for lead, probe in probes.items():
        with pytest.raises(SignalSizeError, match=lead) as exc:
            probe()
        assert str(exc.value).endswith(" exceeds MAX_SUPPORT = 64"), str(exc.value)


def test_maximal_function_memory_is_a_few_accumulators():
    g = make_growth("pure", 1.5)
    fam = build_scale_family(generate(g, 4 << 19), dyadic(8, 19))
    f = _parse_corpus("random:2048:1")
    tracemalloc.start()
    try:
        maximal_function(fam, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output array, one block with its carry and one batch's buffers:
    # 1.63 output arrays measured (2.08 with a dense window of the largest
    # scale's kernel beside it, 2.83 when Signal copied the output and each
    # kernel again)
    lo, hi = window_bounds(fam, f)
    assert peak <= 2.2 * 8 * (hi - lo + 1), peak / (8 * (hi - lo + 1))


def test_weak_type_profile_holds_one_accumulator():
    # the counts are taken block by block; a sorted copy of an accumulator
    # over the whole support made the peak 2.0 accumulators, and each
    # scale's dense kernel window 2.08
    g = make_growth("pure", 1.5)
    fam = build_scale_family(generate(g, 4 << 19), dyadic(8, 19))
    f = _parse_corpus("random:2048:7")
    lams = default_lambda_grid(fam, f)
    tracemalloc.start()
    try:
        weak_type_profile(fam, f, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block and its carry (4 MiB), one batch's segment and spectrum
    # buffers (2 MiB each at 2^18 points), a run of its outputs (1.5 MiB),
    # a block's nonzero cells (2 MiB) and the transform of f: 10.8 MiB
    # measured, less than the accumulator that this bound allows besides
    lo, hi = window_bounds(fam, f)
    assert peak <= 8 * (hi - lo + 1) + 12 * 2 ** 20, (peak, 8 * (hi - lo + 1))


def test_the_family_builds_no_kernel(s102_16, monkeypatch):
    def refuse(*args):
        raise AssertionError("build_scale_family built a kernel")

    monkeypatch.setattr(maximal, "_kernel_support", refuse)
    fam = build_scale_family(s102_16, dyadic(8, 13))
    assert fam.scales == tuple(1 << n for n in range(8, 14))


def test_maximal_function_holds_one_kernel_at_a_time(fam102, monkeypatch):
    # every scale's kernel is held as a view of the set's elements; its
    # values are built per batch, and one batch's values count as live until
    # their array is freed
    live, most = [0], [0]
    real = maximal._kernel_values

    def counting(*args):
        values = real(*args)
        live[0] += 1
        most[0] = max(most[0], live[0])
        weakref.finalize(values, lambda: live.__setitem__(0, live[0] - 1))
        return values

    monkeypatch.setattr(maximal, "_kernel_values", counting)
    f = Signal.from_dict({0: 1.0, 37: 2.0, 5000: 1.0})
    mf = maximal_function(fam102, f)
    assert most[0] == 1 and live[0] == 0
    monkeypatch.setattr(maximal, "_kernel_values", real)
    assert same_signal(maximal_function(fam102, f), mf)


def test_kernel_errors_come_from_the_first_use_of_the_family():
    # pure:1.9:64 starts at 64: the window (16, 128) of N = 32 holds it, but
    # [1, 32] holds nothing, so the family is built and its kernel is not
    g = parse_growth_spec("pure:1.9:64")
    s = generate(g, 128)
    fam = build_scale_family(s, dyadic(5, 5))
    with pytest.raises(DegenerateError) as direct:
        build_kernel(s, 32)
    with pytest.raises(DegenerateError) as used:
        maximal_function(fam, Signal.delta(0))
    assert str(used.value) == str(direct.value) == "no set elements in [1, 32]"


# ---------------------------------------------------------------------------
# stopping-time decomposition
# ---------------------------------------------------------------------------

def test_cz_all_light_no_atoms():
    cz = cz_decompose({x: 1 for x in range(16)}, 2)
    assert not cz.atoms
    assert len(cz.good) == 16


def test_cz_single_spike_hand_oracle():
    # spike 8 at the origin, height 1: the stopping time descends from the
    # size-8 root (average 1) and selects the size-4 child (average 2 > 1)
    cz = cz_decompose({0: 8}, 1)
    assert len(cz.atoms) == 1
    atom = cz.atoms[0]
    assert (atom.scale, atom.index) == (2, 0)
    assert atom.values == {0: 8}
    assert cz.good == {}
    assert cz.total_cube_size() == 4 <= 4 * 8 / 1


def test_cz_negative_support():
    cz = cz_decompose({-5: 7, 9: 7}, 1)
    check_cz_invariants({-5: 7, 9: 7}, 1, cz)
    assert all(a.cube()[1] < 0 or a.cube()[0] >= 0 for a in cz.atoms)


def test_cz_randomized_rational_corpus(rng):
    for _ in range(24):
        f = random_rational_signal(rng)
        lam = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
        check_cz_invariants(f, lam, cz_decompose(f, lam))


def test_cz_float_path(rng):
    f = Signal.from_dict({int(p): float(v) for p, v in
                          zip(rng.integers(0, 1000, 25), rng.uniform(0.1, 9, 25))})
    lam = 0.75
    cz = cz_decompose(f, lam)
    recon = cz.reconstruction()
    for x, v in f.to_dict().items():
        assert recon[x] == pytest.approx(v, abs=1e-12)
    for a in cz.atoms:
        assert a.l1() <= 2 * lam * (1 << a.scale) * (1 + 1e-12)


def test_cz_validation():
    with pytest.raises(DegenerateError):
        cz_decompose({}, 1)
    with pytest.raises(ValidationError):
        cz_decompose({0: -1}, 1)
    with pytest.raises(ValidationError):
        cz_decompose({0: 1}, 0)
    for x in (1 << 63, -(1 << 63) - 1):
        with pytest.raises(ValidationError, match="2\\^63"):
            cz_decompose({0: 1, x: 1}, 1)
    # a NaN height or value once gave a decomposition with no cubes, and an
    # infinite value grew the root scale until 2^s overflowed a float
    for f, height, message in (
            ({0: 1.0, 5: 2.0}, float("nan"), "height nan must be positive"),
            ({0: 1, 5: 2}, float("nan"), "height nan must be positive"),
            ({0: 1.0, 5: float("nan")}, 1.0, "input must be finite"),
            ({0: 1.0, 5: float("inf")}, 1.0, "input must be finite"),
            ({0: -float("inf"), 5: 1.0}, 1.0, "input must be finite"),
            ({0: np.float32("nan")}, Fraction(1, 2), "input must be finite"),
            # an int past the float range once raised OverflowError when the
            # prefix sums added it to a float
            ({0: 10 ** 400, 3: 1.5}, 1.0, "must lie in the float range"),
            ({0: Fraction(10 ** 400, 3), 3: 1.5}, 1.0, "must lie in the float range"),
            # a total past the float range grew the root scale until height
            # * 2^s raised OverflowError, or forever at an exact height
            ({0: 1e308, 1: 1e308}, 1.0, "must lie in the float range"),
            ({0: 10 ** 308, 1: 10 ** 308}, 1.0, "must lie in the float range"),
            ({0: 1e308, 1: 1e308}, Fraction(1), "must lie in the float range")):
        with pytest.raises(ValidationError, match=message):
            cz_decompose(f, height)
    # a finite total whose root scale passes 2^1023 once raised OverflowError
    # too; each is one atom whose average lies in (height, 2 height]
    for f, height in (({0: 1.5e308}, 1.0), ({0: 1e308}, 1e-300)):
        cz = cz_decompose(f, height)
        (atom,) = cz.atoms
        assert height < math.ldexp(atom.l1(), -atom.scale) <= 2.0 * height
        assert cz.reconstruction() == f


def stack_reference(values, lam):
    """The stopping time as one Python stack walk on unscaled prefix sums,
    kept verbatim as the reference for the level-by-level walk."""
    xs = np.array(sorted(values), dtype=np.int64)
    vals = [values[int(x)] for x in xs]
    total = sum(vals)
    # prefix[i] = sum of vals[:i]; exact for ints/Fractions, float for floats
    prefix = [0]
    for v in vals:
        prefix.append(prefix[-1] + v)

    def range_sum(i, j):
        return prefix[j] - prefix[i]

    # Root cubes: dyadic cubes anchored at 0 never straddle it, so a support
    # touching both sides needs one root per side.  The scale is grown until
    # every root average is at most the height and each side fits one cube.
    s = 0
    while (total > lam * (1 << s)
           or (int(xs[0]) >> s) < -1 or (int(xs[-1]) >> s) > 0):
        s += 1
    split = int(np.searchsorted(xs, 0, side="left"))
    atoms = []
    stack = []
    if split > 0:
        stack.append((s, -1, 0, split))
    if split < len(xs):
        stack.append((s, 0, split, len(xs)))
    while stack:
        s, j, i0, i1 = stack.pop()
        if s == 0:
            continue  # a singleton below threshold stays good
        sc = s - 1
        mid = (2 * j + 1) << sc
        im = i0 + int(np.searchsorted(xs[i0:i1], mid, side="left"))
        for cj, a, b in ((2 * j, i0, im), (2 * j + 1, im, i1)):
            if a == b:
                continue
            if range_sum(a, b) > lam * (1 << sc):
                atoms.append((sc, cj, {int(xs[t]): vals[t] for t in range(a, b)}))
            else:
                stack.append((sc, cj, a, b))

    covered = set()
    for _, _, atom_values in atoms:
        covered.update(atom_values)
    good = {int(x): values[int(x)] for x in xs if int(x) not in covered}
    return atoms, good


# large primes: denominators drawn from them are pairwise coprime, so a
# handful of values already puts the lcm past 2^63
PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7, 10**9 + 9, 998244353, 2**89 - 1)


def reference_case(rng, kind):
    span = 1 << int(rng.integers(0, 21))
    n = 1 if kind == "single" else int(rng.integers(1, 60))
    xs = {int(x) for x in rng.integers(-span, span + 1, n)}
    if kind == "extremes":
        xs |= {-(1 << 63), (1 << 63) - 1}
    f = {}
    for x in sorted(xs):
        if kind == "coprime":
            p = PRIMES[int(rng.integers(0, len(PRIMES)))]
            f[x] = Fraction((int(rng.integers(1, 1 << 34)) * p >> 30) + 1, p)
        elif kind in ("ints", "single", "extremes"):
            f[x] = int(rng.integers(1, 5))
        elif kind == "floats":
            f[x] = float(rng.uniform(0.05, 9.0))
        else:  # mixed
            f[x] = (float(rng.uniform(0.05, 9.0)) if rng.random() < 0.5
                    else Fraction(int(rng.integers(1, 120)), int(rng.integers(1, 24))))
    if kind == "coprime":
        p = PRIMES[int(rng.integers(0, len(PRIMES)))]
        lam = Fraction((int(rng.integers(1 << 28, 1 << 32)) * p >> 30) + 1, p)
    elif kind == "floats":
        lam = float(rng.uniform(0.1, 4.0))
    elif kind == "mixed":
        lam = (Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
               if rng.random() < 0.5 else float(rng.uniform(0.1, 4.0)))
    else:
        lam = int(rng.integers(1, 4))
    return f, lam


@pytest.mark.parametrize("kind", ["coprime", "ints", "floats", "mixed",
                                  "single", "extremes"])
def test_cz_matches_the_stack_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    atom_count = big_lcm = 0
    for _ in range(60):
        f, lam = reference_case(rng, kind)
        cz = cz_decompose(f, lam)
        ref_atoms, ref_good = stack_reference(f, lam)
        assert sorted((a.scale, a.index, sorted(a.values.items())) for a in cz.atoms) \
            == sorted((s, j, sorted(v.items())) for s, j, v in ref_atoms)
        assert cz.good == ref_good
        assert cz.index_set == {(s, j) for s, j, _ in ref_atoms}
        # atoms come level by level: scale descending, then index ascending
        order = [(-a.scale, a.index) for a in cz.atoms]
        assert order == sorted(order)
        atom_count += len(cz.atoms)
        if kind == "coprime":
            big_lcm += math.lcm(*(Fraction(v).denominator
                                  for v in (lam, *f.values()))) >= 1 << 63
    assert atom_count > 0
    if kind == "coprime":
        assert big_lcm >= 30


def test_cz_root_scale_above_63():
    # the total pushes the root scale to 71 on both sides of 0, so the walk
    # splits cubes whose midpoints +-2^s are past the int64 range; the
    # positive cube stays light down to scale 62
    f = {-3: 2**70, 0: 1, 5: 2**62}
    cz = cz_decompose(f, 1)
    assert {(a.scale, a.index): a.values for a in cz.atoms} \
        == {(62, 0): {0: 1, 5: 2**62}, (69, -1): {-3: 2**70}}
    assert cz.good == {}
    # the same at both ends of the int64 range
    f = {-(1 << 63): 2**80, (1 << 63) - 1: 2**80 + 1, 7: 1}
    cz = cz_decompose(f, 1)
    assert {(a.scale, a.index): a.values for a in cz.atoms} \
        == {(80, 0): {7: 1, (1 << 63) - 1: 2**80 + 1}, (79, -1): {-(1 << 63): 2**80}}
    assert cz.good == {}
    assert cz.reconstruction() == f


def eager_decomposition(values, lam):
    """(good, atoms) as the walk once built them: every atom dict made when
    its cube is selected, the good dict from the mask after the walk.  Kept
    as the reference for the views of the array-backed decomposition."""
    keys = sorted(values)
    n = len(keys)
    xs = np.array(keys, dtype=np.int64)
    vals = [values[x] for x in keys]
    if all(isinstance(v, (int, Fraction)) for v in (lam, *vals)):
        d = math.lcm(lam.denominator, *{v.denominator for v in vals})
        scaled = [v.numerator * (d // v.denominator) for v in vals]
        lam_d = lam.numerator * (d // lam.denominator)
    else:
        scaled, lam_d = vals, lam
    prefix = np.empty(n + 1, dtype=object)
    prefix[0] = 0
    np.cumsum(np.array(scaled, dtype=object), out=prefix[1:])
    s = 0
    while (prefix[n] > lam_d * (1 << s)
           or (keys[0] >> s) < -1 or (keys[-1] >> s) > 0):
        s += 1
    split = int(np.searchsorted(xs, 0))
    j, lo, hi = np.array([-1, 0]), np.array([0, split]), np.array([split, n])
    atoms = []
    bad = np.zeros(n, dtype=bool)
    while s > 0 and j.size:
        s -= 1
        if s < 63:
            mid = np.searchsorted(xs, (2 * j + 1) << s)
        else:
            mid = np.where(j < 0, lo, hi)
        j = np.stack((2 * j, 2 * j + 1), axis=1).ravel()
        lo = np.stack((lo, mid), axis=1).ravel()
        hi = np.stack((mid, hi), axis=1).ravel()
        keep = lo < hi
        j, lo, hi = j[keep], lo[keep], hi[keep]
        heavy = prefix[hi] - prefix[lo] > lam_d * (1 << s)
        for c, a, b in zip(j[heavy].tolist(), lo[heavy].tolist(),
                           hi[heavy].tolist()):
            atoms.append(CZAtom(s, c, dict(zip(keys[a:b], vals[a:b]))))
            bad[a:b] = True
        light = ~heavy
        j, lo, hi = j[light], lo[light], hi[light]
    good = {keys[t]: vals[t] for t in np.flatnonzero(~bad).tolist()}
    return good, tuple(atoms)


def views_case(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    if kind == "fractions":
        return dict(cz_rows(random.Random(5))), Fraction(3, 2)
    if kind == "ints":
        xs = rng.integers(-5000, 5000, 3000)
        return {int(x): int(rng.integers(1, 6)) for x in xs}, 2
    if kind == "floats":
        xs = rng.integers(-5000, 5000, 3000)
        return {int(x): float(rng.uniform(0.05, 9.0)) for x in xs}, 2.0
    # clusters just inside +-2^62 and around 0; the heavy point at the low
    # end makes the negative side one atom of scale 62 or more
    xs = np.concatenate([(1 << 62) - 1 - rng.integers(0, 1 << 12, 300),
                         -(1 << 62) + rng.integers(0, 1 << 12, 300),
                         rng.integers(-300, 300, 100)])
    f = {int(x): Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
         for x in xs}
    f[min(f)] = 2 ** 70
    return f, Fraction(3, 2)


@pytest.mark.parametrize("kind", ["fractions", "ints", "floats", "near-2^62"])
def test_cz_views_match_the_eager_decomposition(kind):
    f, lam = views_case(kind)
    good, atoms = eager_decomposition(f, lam)
    cz = cz_decompose(f, lam)
    assert len(atoms) > 10 and len(good) > 10
    assert type(cz.atoms) is tuple and cz.atoms == atoms
    assert all(type(a) is CZAtom and type(a.scale) is int and type(a.index) is int
               and all(type(x) is int for x in a.values) for a in cz.atoms)
    assert type(cz.good) is dict and list(cz.good.items()) == list(good.items())
    assert all(type(x) is int for x in cz.good)
    # the values are the input's own objects
    assert all(cz.good[x] is f[x] for x in cz.good)
    assert type(cz.index_set) is frozenset
    assert cz.index_set == {(a.scale, a.index) for a in atoms}
    assert cz.total_cube_size() == sum(1 << a.scale for a in atoms)
    scales = {a.scale for a in atoms}
    for s in scales | {min(scales) - 1, max(scales) + 1}:
        at_s = cz.atoms_at_scale(s)
        assert type(at_s) is list and at_s == [a for a in atoms if a.scale == s]
    if kind == "near-2^62":
        assert max(scales) >= 62


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def merged_scale_values(cz, s):
    out = {}
    for a in cz.atoms_at_scale(s):
        out.update(a.values)
    return out


def check_refinement(cz, s, n, fam):
    rb = refine_bad_part(cz, s, n, fam)
    b_s = merged_scale_values(cz, s)
    keys = set(b_s) | set(rb.b_cut) | set(rb.big_b) | set(rb.g_part)
    for x in keys:
        total = rb.b_cut.get(x, 0) + rb.big_b.get(x, 0) + rb.g_part.get(x, 0)
        assert total == b_s.get(x, 0)
    for x, v in rb.b_cut.items():
        assert abs(v) > rb.threshold
        assert b_s[x] == v
    for lo, hi in rb.cubes:
        assert sum(rb.big_b.get(x, 0) for x in range(lo, hi + 1)) == 0
        means = {rb.g_part.get(x, 0) for x in range(lo, hi + 1)}
        assert len(means) == 1                       # constant on the cube
        assert abs(next(iter(means))) <= 2 * cz.height
    return rb


def test_refinement_below_threshold_is_identity(fam102):
    f = {x: Fraction(3, 2) for x in range(8)}
    cz = cz_decompose(f, Fraction(1))
    s = cz.atoms[0].scale
    rb = check_refinement(cz, s, 1 << 13, fam102)
    # support count at the top scale dwarfs every value: nothing is cut
    assert rb.b_cut == {}


def test_refinement_spike_hand_oracle(fam102):
    # one spike above the cut threshold: it moves wholesale into b_cut
    d8 = fam102.d[fam102.scale_index(1 << 8)]
    spike = 2 * d8
    cz = cz_decompose({0: spike}, 1)
    s = cz.atoms[0].scale
    rb = check_refinement(cz, s, 1 << 8, fam102)
    assert rb.b_cut == {0: spike}
    assert rb.g_part == {} and rb.big_b == {}


def test_refinement_random_corpus(fam102, rng):
    for _ in range(12):
        f = random_rational_signal(rng, allow_negative_positions=False)
        lam = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 6)))
        cz = cz_decompose(f, lam)
        if not cz.atoms:
            continue
        for s in sorted({a.scale for a in cz.atoms}):
            for n in (1 << 8, 1 << 10, 1 << 13):
                check_refinement(cz, s, n, fam102)


def test_refinement_requires_atoms(fam102):
    cz = cz_decompose({x: 1 for x in range(16)}, 2)
    with pytest.raises(RangeError):
        refine_bad_part(cz, 0, 1 << 8, fam102)


def test_refinement_refuses_a_cube_past_max_support_at_once(run_limited):
    # one atom on the cube [0, 2^45): refining it once walked every point of
    # the cube twice and never returned; it is refused before the walk.  The
    # child runs under run_limited's timeout, so a regression fails the test
    code = ("from fractions import Fraction\n"
            "from roughmax import *\n"
            "fam = build_scale_family(generate(make_growth('pure', 1.02), 1 << 16),\n"
            "                         [1 << n for n in range(8, 14)])\n"
            "cz = cz_decompose({0: 1, 2**40: 1}, Fraction(1, 2**45))\n"
            "assert [(a.scale, a.index) for a in cz.atoms] == [(45, 0)]\n"
            "try:\n"
            "    refine_bad_part(cz, 45, 1 << 8, fam)\n"
            "except SignalSizeError as exc:\n"
            "    print(exc)\n")
    t0 = time.monotonic()
    proc = run_limited("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"bad-part cube width 2^45 exceeds MAX_SUPPORT = {1 << 30}\n"
    assert time.monotonic() - t0 < 30


def test_refinement_threshold_and_cube_exponent(fam102):
    cz = cz_decompose({0: Fraction(8)}, Fraction(1, 3))
    rb = refine_bad_part(cz, cz.atoms[0].scale, 1 << 9, fam102)
    assert rb.threshold == Fraction(1, 3) * fam102.d[fam102.scale_index(1 << 9)]
    assert rb.s_of_n == 11


def criterion_9_cases():
    """The 64 exact rational (input, height) cases of acceptance criterion 9,
    drawn as it draws them."""
    rng = np.random.default_rng(0x5EED)
    for _ in range(64):
        n_spikes = int(rng.integers(1, 40))
        f = {}
        for p in rng.integers(-300, 3000, n_spikes):
            f[int(p)] = f.get(int(p), 0) + Fraction(int(rng.integers(1, 120)),
                                                    int(rng.integers(1, 24)))
        yield f, Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))


def float_case():
    """The float input and height of ``test_cz_float_path``."""
    rng = np.random.default_rng(0xC0FFEE)
    f = Signal.from_dict({int(p): float(v) for p, v in
                          zip(rng.integers(0, 1000, 25), rng.uniform(0.1, 9, 25))})
    return f, 0.75


def cz_views(fam):
    """reconstruction() and every refine_bad_part(cz, s, N, fam), N in
    {2^8, 2^11, 2^13}, on criterion 9's cases and the float case, each as a repr
    that shows the type of every value."""
    for f, lam in [*criterion_9_cases(), float_case()]:
        cz = cz_decompose(f, lam)
        yield repr(sorted(cz.reconstruction().items()))
        for s in sorted(set(cz.cubes[:, 0].tolist())):
            for n in (1 << 8, 1 << 11, 1 << 13):
                rb = refine_bad_part(cz, s, n, fam)
                yield repr((rb.threshold, sorted(rb.b_cut.items()),
                            sorted(rb.big_b.items()), sorted(rb.g_part.items()),
                            rb.cubes, rb.s_of_n))


CZ_VIEWS_PINNED = "5fb40100aa9f1fe0a574d32938dbce044f826ffe2a9d8381cc61c73787416249"


def test_cz_reconstruction_and_refinement_bytes_are_pinned(fam102):
    digest = hashlib.sha256()
    for view in cz_views(fam102):
        digest.update(view.encode() + b"\n")
    assert digest.hexdigest() == CZ_VIEWS_PINNED


def test_cz_reconstruction_and_refinement_build_no_atom(fam102, monkeypatch):
    built = []
    atom = maximal.CZAtom
    monkeypatch.setattr(maximal, "CZAtom", lambda *a: built.append(a) or atom(*a))
    assert sum(1 for _ in cz_views(fam102)) > 64
    assert built == []


# ---------------------------------------------------------------------------
# family hypotheses
# ---------------------------------------------------------------------------

def test_family_hypotheses_report(s102_16):
    fam = build_scale_family(s102_16, dyadic(10, 13))
    rep = verify_family_hypotheses(fam)
    assert rep.eps1 > 0.0
    prods = rep.f0_d_product
    assert max(prods) / min(prods) <= 4.0
    assert all(r > 0 for r in rep.residual_sup)
    caps = rep.f_sup_times_d
    assert max(caps) / min(caps) <= 4.0
    lips = rep.lipschitz_ratio
    assert max(lips) / min(lips) <= 4.0


def test_family_hypotheses_residual_matches_manual(s102_16, phi102):
    from roughmax import autocorrelation, gn_profile
    fam = build_scale_family(s102_16, dyadic(10, 13))
    rep = verify_family_hypotheses(fam)
    i = 0
    sc = fam.scales[i]
    cut = int(math.floor(float(phi102.value(float(sc)))))
    a = autocorrelation(build_kernel(fam.s, sc))
    g = gn_profile(phi102, sc)
    hi = max(a.support[1], g.support[1])
    xs = np.arange(cut + 1, hi + 1)
    manual = float(np.max(np.abs(values_at(a, xs) - values_at(g, xs))))
    assert rep.residual_sup[i] == pytest.approx(manual, rel=1e-12)
    # inside the cut the model equals the autocorrelation by construction,
    # so the residual is identically zero there and never enters the sup


def test_family_hypotheses_are_decomposition_report_rescaled(s102_16):
    # both reports view the same per-scale sups; at power-of-two scales the
    # change from N- to D_n = 4N-scaling is exact
    fam = build_scale_family(s102_16, dyadic(10, 13))
    rep = verify_family_hypotheses(fam)
    reps = [decomposition_report(build_kernel(fam.s, n)) for n in fam.scales]
    assert rep.eps1 == estimate_chi(reps)
    for i, r in enumerate(reps):
        assert rep.residual_sup[i] == r.en_sup
        assert rep.f0_d_product[i] == r.point_mass * fam.d[i]
        assert rep.lipschitz_ratio[i] == 16 * r.gn_lipschitz
        assert rep.f_sup_times_d[i] == 4 * max(r.small_x_bound, r.gn_sup)


def test_family_hypotheses_do_not_depend_on_workers(s102_16, glog):
    s_log = generate(glog, 1 << 16)
    for s in (s102_16, s_log):
        fam = build_scale_family(s, dyadic(10, 14))
        reps = [verify_family_hypotheses(fam, workers) for workers in (1, 2, 3)]
        assert reps[0] == reps[1] == reps[2]


def test_family_hypotheses_needs_scales(s102_16):
    fam = build_scale_family(s102_16, dyadic(10, 12))
    with pytest.raises(InsufficientDataError):
        verify_family_hypotheses(fam)
