"""Signals and convolution; the direct multiply-add path is the oracle."""

import numpy as np
import pytest

import roughmax.signals as sig
from conftest import values_at
from roughmax import Signal, SignalSizeError, autocorrelation_signal, convolve, eta


def random_sparse(rng, n=100, span=500):
    pos = rng.integers(-span, span, n)
    val = rng.normal(size=n)
    d = {}
    for p, v in zip(pos, val):
        d[int(p)] = d.get(int(p), 0.0) + float(v)
    return Signal.from_dict(d)


def test_trim_and_zero():
    s = Signal(3, np.array([0.0, 0.0, 1.0, 2.0, 0.0]))
    assert s.offset == 5
    assert list(s.values) == [1.0, 2.0]
    assert Signal(0, np.zeros(4)).is_zero
    z = Signal(7, np.zeros(3))
    assert (z.offset, z.values.size) == (0, 0) and z.is_zero
    assert Signal(7, np.zeros(0)).support == (0, -1)
    one = Signal(-4, np.array([0.0, 0.0, -3.0, 0.0]))
    assert (one.offset, list(one.values)) == (-2, [-3.0])
    assert Signal(0, np.array([5.0])).to_dict() == {0: 5.0}
    # zeros at both ends and inside: only the ends are trimmed
    ends = Signal(10, np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0]))
    assert (ends.offset, list(ends.values)) == (11, [1.0, 0.0, 0.0, 2.0])
    nonzero_ends = Signal(1, np.array([4.0, 0.0, 5.0]))
    assert (nonzero_ends.offset, list(nonzero_ends.values)) == (1, [4.0, 0.0, 5.0])


def test_signals_with_equal_content_compare_equal():
    assert Signal(0, [0, 1, 2, 0]) == Signal(1, [1, 2])
    assert Signal(0, [1, 2]) != Signal(1, [1, 2])
    assert Signal(0, [1, 2]) != Signal(0, [1, 3])
    assert Signal(0, [1, 2]) != Signal(0, [1, 2, 3])
    assert Signal(4, np.zeros(3)) == Signal.zero()
    assert Signal(0, [1.0]) != {0: 1.0}
    with pytest.raises(TypeError):
        hash(Signal(0, [1, 2]))


def test_an_owned_array_is_trimmed_by_view_and_frozen():
    v = np.array([0.0, 0.0, 1.0, 2.0, 0.0])
    s = Signal._own(3, v)
    assert (s.offset, list(s.values)) == (5, [1.0, 2.0])
    assert np.shares_memory(s.values, v) and not s.values.flags.writeable
    assert Signal._own(7, np.zeros(3)).support == (0, -1)


def test_call_and_support():
    s = Signal.from_dict({-2: 1.5, 3: -4.0})
    assert s.support == (-2, 3)
    assert values_at(s, -2) == 1.5
    assert values_at(s, 0) == 0.0
    assert list(values_at(s, np.array([-3, -2, 3, 4]))) == [0.0, 1.5, -4.0, 0.0]


def test_norms():
    s = Signal.from_dict({1: 2.0, 4: 3.0})
    assert s.l1() == 5.0 and s.linf() == 3.0 and s.sum() == 5.0


def test_convolution_delta_identity(rng):
    f = random_sparse(rng)
    xs = np.arange(-500, 500)       # the span of random_sparse
    for method in ("direct", "fast"):
        assert np.allclose(values_at(convolve(Signal.delta(0), f, method), xs),
                           values_at(f, xs), rtol=0.0, atol=1e-12)
    assert values_at(convolve(Signal.delta(3), Signal.delta(5), "fast"), 8) == pytest.approx(1.0)


def test_convolution_direct_is_the_oracle_for_fast(rng):
    xs = np.arange(-3040, 3040)     # covers every product window below
    for _ in range(10):
        a = random_sparse(rng)
        b = random_sparse(rng)
        assert np.allclose(values_at(convolve(a, b, "direct"), xs),
                           values_at(convolve(a, b, "fast"), xs), rtol=0.0, atol=1e-9)
    # unequal widths, b much narrower than a: either order puts b in the
    # transform, and a is cut into several segments
    for _ in range(10):
        a = random_sparse(rng, n=300, span=3000)
        b = random_sparse(rng, n=8, span=40)
        assert b.values.size < a.values.size
        direct = values_at(convolve(a, b, "direct"), xs)
        assert np.allclose(direct, values_at(convolve(a, b, "fast"), xs), rtol=0.0, atol=1e-9)
        assert np.allclose(direct, values_at(convolve(b, a, "fast"), xs), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
def test_overlap_save_bits_do_not_depend_on_the_batch(rng, monkeypatch, rows):
    # the fast convolution of f with a sparse kernel of clusters far apart:
    # most segments hold no point and are skipped, and points near a
    # segment edge lie in two segments.  Every batch size gives the bits of
    # one batch for the whole kernel, and the direct convolution within 1e-9
    f = random_sparse(rng, n=30, span=60)
    w = f.values.size
    n = 1 << (4 * w - 1).bit_length()
    clusters = rng.integers(-40_000, 40_000, 12)
    pos = np.unique(np.concatenate([c + rng.integers(0, 3 * w, 20) for c in clusters]))
    vals = rng.uniform(0.5, 2.0, pos.size)
    k = Signal.from_dict(dict(zip(pos.tolist(), vals.tolist())))
    assert f.values.size < k.values.size           # f is the transformed one
    monkeypatch.setattr(sig, "BATCH", 1 << 20)      # one batch for all
    whole = convolve(f, k, "fast")
    monkeypatch.setattr(sig, "BATCH", rows * n)
    out = convolve(f, k, "fast")
    assert out.offset == whole.offset and np.array_equal(out.values, whole.values)
    direct = convolve(f, k, "direct")
    assert out.offset == direct.offset and out.values.size == direct.values.size
    assert np.max(np.abs(out.values - direct.values)) <= 1e-9


def test_convolution_method_validation(rng):
    with pytest.raises(ValueError):
        convolve(Signal.delta(0), Signal.delta(0), "magic")


def test_convolution_size_cap(monkeypatch):
    monkeypatch.setattr(sig, "MAX_SUPPORT", 16)
    with pytest.raises(SignalSizeError):
        convolve(Signal(0, np.ones(12)), Signal(0, np.ones(12)))


def test_autocorrelation_even_and_matches_double_sum(rng):
    f = random_sparse(rng, n=60, span=200)
    ac = autocorrelation_signal(f, "fast")
    acd = autocorrelation_signal(f, "direct")
    d = f.to_dict()
    for x in (0, 1, 5, 37, 150, 399):
        oracle = sum(v * d.get(n + x, 0.0) for n, v in d.items())
        assert values_at(ac, x) == pytest.approx(oracle, abs=1e-9)
        assert values_at(ac, x) == values_at(ac, -x)          # exact evenness
        assert values_at(acd, x) == values_at(acd, -x)
    assert values_at(ac, 0) == pytest.approx(sum(v * v for v in d.values()), rel=1e-12)


def test_autocorrelation_mass_identity(rng):
    f = random_sparse(rng, n=40)
    ac = autocorrelation_signal(f)
    assert ac.sum() == pytest.approx(f.sum() ** 2, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# the half-lag autocorrelation against the full-window one
# ---------------------------------------------------------------------------

def full_window_autocorrelation(v, method):
    """The oracle: the correlation over the full lag window -(L-1)..L-1
    (rolled into place from the transform), averaged with its reversal."""
    out_len = 2 * v.size - 1
    if method == "direct":
        full = np.convolve(v, v[::-1])
    else:
        n = 1 << (out_len - 1).bit_length()
        f = np.fft.rfft(v, n)
        full = np.fft.irfft(f * f.conj(), n)
        full = np.roll(full, v.size - 1)[:out_len]
    return 0.5 * (full + full[::-1])


def autocorrelation_inputs():
    rng = np.random.default_rng(11)
    out = {f"random-{n}": rng.normal(size=n) for n in (1, 2, 3, 5, 64, 1000, 4097)}
    out["positive-3000"] = rng.random(3000)
    # exact zeros at the far lags (direct path): the mass must be summed over
    # the trimmed window, whose pairwise grouping differs from the full one
    out["zero-padded-205"] = np.concatenate([rng.normal(size=200), np.zeros(5)])
    # the cutoff over a scale window: exp(-1/u) underflows to exact zeros at
    # both ends, and in between the values span ~300 orders of magnitude
    n = 1 << 12
    out["eta-window"] = eta(np.arange(n // 2 + 1, 4 * n) / n)
    out["zero-ends"] = np.array([0.0, 0.0, 1.0, -2.0, 0.5, 0.0])
    out["all-zero"] = np.zeros(3)
    return out


@pytest.mark.parametrize("method", ["fast", "direct"])
@pytest.mark.parametrize("label", sorted(autocorrelation_inputs()))
def test_half_lag_autocorrelation_is_the_full_window_bits(method, label):
    v = autocorrelation_inputs()[label]
    full = full_window_autocorrelation(v, method)
    half, mass = sig._even_autocorrelation(v, method, mass=True)
    assert np.array_equal(half, full[v.size - 1:])
    assert np.array_equal(sig._even_autocorrelation(v, method), half)
    # the mass is the pairwise sum of the zero-trimmed full window
    assert mass == Signal(0, full).sum()

    s = Signal(0, v)
    got = autocorrelation_signal(s, method)
    want = (Signal(1 - s.values.size, full_window_autocorrelation(s.values, method))
            if not s.is_zero else s)
    assert got.offset == want.offset
    assert np.array_equal(got.values, want.values)


def test_eta_window_ends_underflow():
    # the premise of the eta-window input above
    v = autocorrelation_inputs()["eta-window"]
    assert v[0] == 0.0 and v[-1] == 0.0 and Signal(0, v).values.size < v.size


def test_half_lag_autocorrelation_size_cap(monkeypatch):
    # 2 * 9 - 1 = 17 lags need a transform of 32 > 16; 8 values need 15 -> 16
    monkeypatch.setattr(sig, "MAX_SUPPORT", 16)
    for method in ("fast", "direct"):
        with pytest.raises(SignalSizeError, match="exceeds"):
            sig._even_autocorrelation(np.ones(9), method)
        assert sig._even_autocorrelation(np.ones(8), method).size == 8
    with pytest.raises(SignalSizeError):
        autocorrelation_signal(Signal(0, np.ones(9)))


@pytest.mark.parametrize("size", [8000, 16000])
def test_the_power_spectrum_order_switches_at_its_length(size):
    # transform lengths 2^14 and 2^15, on either side of POWER_ORDER_SWAP:
    # below it the power spectrum is f * conj(f), from it on conj(f) * f, the
    # bits that f * f.conj() gave under numpy's temporary elision
    v = np.random.default_rng(size).normal(size=size)
    n = 1 << (2 * size - 2).bit_length()
    f = np.fft.rfft(v, n)

    def half(power):
        buf = np.fft.irfft(power, n)
        return 0.5 * np.r_[buf[0] + buf[0], buf[1:size] + buf[:n - size:-1]]

    ordered = half(np.multiply(f, np.conj(f)))
    swapped = half(np.multiply(np.conj(f), f))
    assert not np.array_equal(ordered, swapped)     # the order shows
    want = ordered if n < sig.POWER_ORDER_SWAP else swapped
    assert np.array_equal(sig._even_autocorrelation(v), want)
    assert (n < sig.POWER_ORDER_SWAP) == (size == 8000)
