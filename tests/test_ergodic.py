"""Averages along the set on finite permutation systems."""

import numpy as np
import pytest

from conftest import traced_peak
from roughmax import (
    DegenerateError,
    RangeError,
    ValidationError,
    cyclic_shift,
    ergodic_average,
    generate,
    indicator,
    make_growth,
    oscillation_diagnostic,
    weighted_average,
)
from roughmax.ergodic import FiniteSystem


def naive_iterate(mapping, x, n):
    """T^n x by |n| steps of the map, or of its inverse when n < 0."""
    step = mapping if n >= 0 else np.argsort(mapping)
    for _ in range(abs(n)):
        x = int(step[x])
    return x


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def test_mapping_must_be_permutation():
    for bad in ([0, 0, 2], [1, -1, 0], [0, 1, 3], [2, 1, 0, 4]):
        with pytest.raises(ValidationError, match="permutation of 0..m-1"):
            FiniteSystem.from_mapping(bad)
    with pytest.raises(ValidationError):
        FiniteSystem.from_mapping([])


def test_the_permutation_check_takes_a_byte_per_state():
    # one bool mark per state, 2 MB; a sorted copy beside an arange took 32 MB
    mapping = cyclic_shift(2_000_000).mapping
    assert traced_peak(FiniteSystem.from_mapping, mapping) < 3 * 2 ** 20
    assert FiniteSystem.from_mapping(mapping).size == 2_000_000


def test_a_system_past_max_support_is_refused_before_it_is_built(run_limited):
    # cyclic_shift(10^11) and indicator(10^11, 0) died on numpy's allocator
    # with "Unable to allocate 745. GiB" under a 3 GiB address-space limit
    proc = run_limited("-c", "from roughmax import SignalSizeError, cyclic_shift, indicator\n"
                             "for call in (lambda: cyclic_shift(10 ** 11),\n"
                             "             lambda: indicator(10 ** 11, 0)):\n"
                             "    try:\n"
                             "        call()\n"
                             "    except SignalSizeError as exc:\n"
                             "        print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"cyclic shift on m = {10 ** 11} states exceeds MAX_SUPPORT = {1 << 30}",
        f"indicator on {10 ** 11} states exceeds MAX_SUPPORT = {1 << 30}"]


def test_iterate_matches_naive_oracle(rng):
    sys = FiniteSystem.from_mapping(np.random.default_rng(99).permutation(23))
    for _ in range(40):
        x = int(rng.integers(0, 23))
        n = int(rng.integers(0, 200))
        assert sys.iterate(x, n) == naive_iterate(sys.mapping, x, n)


def test_iterate_vectorized(rng):
    sys = cyclic_shift(10, 3)
    ns = np.array([0, 1, 2, 10, 11])
    assert list(sys.iterate(4, ns)) == [naive_iterate(sys.mapping, 4, int(n))
                                        for n in ns]
    with pytest.raises(RangeError):
        sys.iterate(10, 1)


def test_iterate_walks_the_orbit_only_as_far_as_the_request(rng):
    # the whole orbit of a 2M-state shift, as a list of ints, takes ~70 MB;
    # n <= 1023 reads 1024 states of it
    big = cyclic_shift(2_000_000)
    ns = np.arange(1024)
    assert traced_peak(big.iterate, 5, ns) < 2 ** 18
    assert big.iterate(5, ns).tolist() == [naive_iterate(big.mapping, 5, n)
                                           for n in range(1024)]
    # past the period the walk stops at it; a negative n walks it whole
    sys = FiniteSystem.from_mapping(np.random.default_rng(7).permutation(23))
    for x in range(23):
        for ks in (rng.integers(0, 60, 8), rng.integers(-60, 60, 8)):
            assert sys.iterate(x, ks).tolist() == [
                naive_iterate(sys.mapping, x, int(k)) for k in ks]
        assert sys.iterate(x, -40) == naive_iterate(sys.mapping, x, -40)
    assert sys.iterate(3, np.zeros(0, dtype=np.int64)).size == 0


def test_measure_preservation_exact(rng):
    vals = rng.normal(size=31)
    shuffle = FiniteSystem.from_mapping(np.random.default_rng(5).permutation(31))
    for sys in (cyclic_shift(31, 7), shuffle):
        pushed = vals[np.asarray(sys.mapping)]
        assert pushed.sum() == pytest.approx(vals.sum(), rel=1e-15)
        assert sorted(pushed) == sorted(vals)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def test_identity_map_average_is_point_value(s102_16):
    sys = FiniteSystem.from_mapping(np.arange(7))
    f = indicator(7, 3)
    assert ergodic_average(sys, s102_16, f, 3, 5000) == 1.0
    assert ergodic_average(sys, s102_16, f, 2, 5000) == 0.0


def test_constant_observable_exact(s102_16):
    sys = cyclic_shift(12, 5)
    assert ergodic_average(sys, s102_16, np.full(12, 2.5), 1, 10000) == pytest.approx(2.5)


def test_average_linear_and_bounded(s102_16, rng):
    sys = cyclic_shift(13, 4)
    fa = rng.normal(size=13)
    fb = rng.normal(size=13)
    n = 5000
    aa = ergodic_average(sys, s102_16, fa, 2, n)
    ab = ergodic_average(sys, s102_16, fb, 2, n)
    combo = ergodic_average(sys, s102_16, 2.0 * fa + fb, 2, n)
    assert combo == pytest.approx(2.0 * aa + ab, rel=1e-12)
    assert abs(aa) <= np.abs(fa).max() + 1e-12


def test_shift_equidistribution(s102_16):
    sys = cyclic_shift(97, 5)
    f = indicator(97, 3)
    a = ergodic_average(sys, s102_16, f, 0, 1 << 16)
    assert abs(a - 1.0 / 97.0) < 0.05


def test_weighted_average_identity_system(sident):
    sys = cyclic_shift(5, 2)
    # weight is identically 1 and the set is all integers: average of ones
    assert weighted_average(sys, sident, np.ones(5), 0, 1000) == pytest.approx(1.0)


def test_weighted_tracks_plain(s102_16):
    sys = cyclic_shift(97, 5)
    f = indicator(97, 3)
    n = 1 << 16
    a = ergodic_average(sys, s102_16, f, 0, n)
    w = weighted_average(sys, s102_16, f, 0, n)
    assert abs(a - w) < 0.05


@pytest.mark.parametrize("variant,c,c_h,params", [
    ("pure", 1.5, 2.5, {}),
    ("powerexplog", 1.1, 1.0, {"a": 1.0, "b": 0.5}),
], ids=["pure", "powerexplog"])
def test_an_element_below_y0_is_weighted_at_x0(variant, c, c_h, params):
    # the first element floor(h(ceil x0)) lies below y0 = h(x0), where phi
    # starts; it is weighted by h'(x0)
    g = make_growth(variant, c, c_h, **params)
    s, phi = generate(g, 1 << 8), g.inverse()
    first = int(s.elements[0])
    assert first < phi.y0
    avg = weighted_average(FiniteSystem.from_mapping(np.arange(1)), s, [1.0], 0, first)
    assert avg * first == pytest.approx(float(g.deriv(g.x0, 1)), rel=1e-14)


def test_average_validation(s102_16):
    sys = cyclic_shift(7, 1)
    with pytest.raises(RangeError):
        ergodic_average(sys, s102_16, indicator(7, 0), 0, s102_16.n_max + 1)
    with pytest.raises(ValidationError):
        ergodic_average(sys, s102_16, np.ones(8), 0, 100)


def test_empty_count_error():
    from roughmax import generate, make_growth
    g = make_growth("powerlog", 1.02, 1.0, a=1.0)
    late = generate(g, 4096)        # elements start near 17
    sys = cyclic_shift(7, 1)
    with pytest.raises(DegenerateError):
        ergodic_average(sys, late, indicator(7, 0), 0, 4)


@pytest.mark.parametrize("weighted", [False, True])
def test_array_call_is_the_scalar_calls_bit_for_bit(s102_22, rng, weighted):
    sys = cyclic_shift(13, 4)
    f = rng.normal(size=13)
    # a repeated N, N out of order, and N past the 2^20 fsum threshold
    ns = np.array([1 << 21, 1, 77, 77, 1 << 12, (1 << 22) - 3, 5000])

    def avg(n):
        if weighted:
            return weighted_average(sys, s102_22, f, 2, n)
        return ergodic_average(sys, s102_22, f, 2, n)

    got = avg(ns)
    assert isinstance(got, np.ndarray) and got.shape == ns.shape
    assert got.tolist() == [avg(int(n)) for n in ns]
    assert avg(ns[:0]).shape == (0,)


def test_array_call_names_the_first_bad_n(s102_16):
    sys = cyclic_shift(7, 1)
    f = indicator(7, 0)
    bad = s102_16.n_max + 1
    with pytest.raises(RangeError, match=f"N = {bad} outside"):
        ergodic_average(sys, s102_16, f, 0, [10, bad, 0])
    with pytest.raises(RangeError, match="N = 0 outside"):
        weighted_average(sys, s102_16, f, 0, np.array([10, 0, bad]))


def test_array_call_names_an_n_with_no_elements():
    from roughmax import generate, make_growth
    g = make_growth("powerlog", 1.02, 1.0, a=1.0)
    late = generate(g, 4096)        # elements start near 17
    sys = cyclic_shift(7, 1)
    with pytest.raises(DegenerateError, match=r"\[1, 4\]"):
        ergodic_average(sys, late, indicator(7, 0), 0, np.array([1024, 4, 2]))
    # the weighted average is normalized by N, so an empty prefix averages to 0
    w = weighted_average(sys, late, indicator(7, 0), 0, np.array([4, 1024]))
    assert w[0] == 0.0 and w[1] > 0.0


# ---------------------------------------------------------------------------
# oscillation diagnostic
# ---------------------------------------------------------------------------

def test_oscillation_zero_observable(s102_16):
    sys = cyclic_shift(97, 5)
    assert oscillation_diagnostic(sys, s102_16, np.zeros(97), 0, 0.25,
                                  [4, 16, 64, 256]) == 0.0


def test_oscillation_identity_matches_direct_oracle(s102_16, phi102, g102):
    # with the identity map the diagnostic is exactly the oscillation of the
    # weighted normalization sequence at the marked state
    import math
    sys = FiniteSystem.from_mapping(np.arange(5))
    bps = [4 ** j for j in range(1, 6)]
    got = oscillation_diagnostic(sys, s102_16, indicator(5, 2), 2, 0.25, bps)
    els = s102_16.elements[s102_16.elements <= bps[-1]].astype(float)
    w = np.asarray(g102.deriv(np.asarray(phi102.value(els)), 1))
    pref = np.concatenate([[0.0], np.cumsum(w)])

    def a1(n):
        k = int(np.searchsorted(els, n, side="right"))
        return pref[k] / n

    lac, v = [], 1.0
    while True:
        v *= 1.25
        n = math.floor(v)
        if n > bps[-1]:
            break
        if n >= 1 and (not lac or n != lac[-1]):
            lac.append(n)
    total = 0.0
    for a, b in zip(bps[:-1], bps[1:]):
        inside = [n for n in lac if a < n <= b]
        if inside:
            total += max(abs(a1(n) - a1(a)) for n in inside)
    assert got == pytest.approx(total, rel=1e-12)


def test_oscillation_per_block_average_shrinks(s102_22):
    sys = cyclic_shift(97, 5)
    f = indicator(97, 3)
    vals = {}
    for j_count in (4, 8):
        bps = [4 ** j for j in range(1, j_count + 2)]
        vals[j_count] = oscillation_diagnostic(sys, s102_22, f, 0,
                                               0.25, bps) / j_count
    assert vals[8] <= vals[4]


def test_oscillation_breakpoint_validation(s102_16):
    sys = cyclic_shift(7, 1)
    f = indicator(7, 0)
    with pytest.raises(ValidationError):
        oscillation_diagnostic(sys, s102_16, f, 0, 0.25, [4, 7])
    with pytest.raises(ValidationError):
        oscillation_diagnostic(sys, s102_16, f, 0, -0.1, [4, 16])
    # a NaN or infinite eps once reached math.floor and raised there, and
    # an eps that 1 + eps rounds away, or one of billions of steps to 16,
    # once kept the lacunary walk going
    for eps, message in ((float("nan"), "must be positive"),
                         (float("inf"), "must be finite"),
                         (1e-17, r"leaves 1 \+ eps == 1"),
                         (1e-9, "over LACUNARY_STEP_CAP = 1048576")):
        with pytest.raises(ValidationError, match=message):
            oscillation_diagnostic(sys, s102_16, f, 0, eps, [4, 16])
    with pytest.raises(RangeError):
        oscillation_diagnostic(sys, s102_16, f, 0, 0.25,
                               [4, s102_16.n_max * 2])
