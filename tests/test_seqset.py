"""Set generation, the two membership tests, and counting.

The enumeration oracle used here is an independent pure-Python loop with
arbitrary-precision floors, so the vectorized production path is checked
against something that shares none of its code.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import dyadic
from roughmax import (
    DomainError,
    RangeError,
    ValidationError,
    build_kernel,
    build_scale_family,
    contains_via_inverse_batch,
    count,
    generate,
    make_growth,
    verify_membership_equivalence,
)
from roughmax import seqset
from roughmax.growth import MP_ZERO_BAND, GrowthFunction, InverseFunction
from roughmax.seqset import P_MIN_WINDOW


def enumeration_oracle(c, n_max, m_start=1):
    """Floors of m^c by 50-digit arithmetic, deduplicated, in [1, n_max]."""
    out = set()
    with mpmath.workdps(50):
        m = m_start
        while True:
            v = mpmath.mpf(m) ** mpmath.mpf(c)
            if v >= n_max + 1:
                break
            f = int(mpmath.floor(v + mpmath.mpf("1e-45") * v))
            if 1 <= f <= n_max:
                out.add(f)
            m += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_floor_example(s15_small):
    assert list(s15_small.elements) == [1, 2, 5, 8, 11]


def test_generate_identity(sident):
    assert list(sident.elements[:10]) == list(range(1, 11))
    assert sident.elements.size == sident.n_max


def test_generate_matches_enumeration_oracle(g105):
    s = generate(g105, 4096)
    assert list(s.elements) == enumeration_oracle(1.05, 4096)


def test_generate_exact_integer_floors(g15, s15_1m):
    # h(k^2) = k^3 exactly; every cube must be a member
    cubes = np.arange(2, 100) ** 3
    missing = cubes[~np.isin(cubes, s15_1m.elements)]
    assert missing.size == 0, missing


def test_generate_cardinality_near_inverse_value(g102, phi102, s102_16):
    n = 1 << 16
    assert abs(count(s102_16, n) / float(phi102.value(float(n))) - 1.0) < 0.01


def test_counting_tracks_inverse_from_sixteenth(s102_16, phi102):
    # count/phi stays within 10% on [n_max/16, n_max]
    for n in np.linspace(s102_16.n_max // 16, s102_16.n_max, 7, dtype=int):
        r = count(s102_16, int(n)) / float(phi102.value(float(n)))
        assert 0.9 <= r <= 1.1


def test_count_of_an_array_is_the_scalar_counts(s102_16):
    ns = np.array([1, 2, 1000, s102_16.n_max // 3, s102_16.n_max])
    counts = count(s102_16, ns)
    assert counts.tolist() == [count(s102_16, int(n)) for n in ns]
    for bad in ([0, 5], [5, s102_16.n_max + 1]):
        with pytest.raises(RangeError, match=f"N = {bad[bad[0] != 0]} outside"):
            count(s102_16, np.array(bad))


def test_separately_generated_sets_compare_without_raising(g102):
    # a set holds an array, so it compares by identity; the records that hold
    # one compare by their other fields
    a, b = generate(g102, 1 << 12), generate(g102, 1 << 12)
    assert a == a and a != b
    assert build_kernel(a, 256) == build_kernel(b, 256)
    scales = dyadic(6, 9)
    assert build_scale_family(a, scales) == build_scale_family(a, scales)
    assert build_scale_family(a, scales) != build_scale_family(b, scales)


def test_generate_range_checks(g15):
    with pytest.raises(Exception):
        generate(g15, 1 << 41)


def test_generate_caps_the_enumerated_m(g102):
    # about 6.4e11 values of m: refused before any array is allocated
    with pytest.raises(ValidationError, match="2\\^26 cap"):
        generate(g102, 1 << 40)
    # only 4e7 values of m, but near 2^54 a float h(m) is 4 integers wide
    with pytest.raises(ValidationError, match="2\\^40 cap"):
        generate(make_growth("pure", 1.9, 64.0), 1 << 54)
    # refused from the int, before it is turned into a float
    with pytest.raises(ValidationError, match="2\\^40 cap"):
        generate(g102, 10 ** 400)


@pytest.mark.parametrize("n_max,named", [
    ((1 << 64) - 1, f"n_max = {(1 << 64) - 1} "),
    (1 << 64, "n_max >= 2^64 "),
    (4 << 5000, "n_max >= 2^5002 "),
    (10 ** 400, "n_max >= 2^1328 "),
], ids=["below-2^64", "2^64", "2^5002", "10^400"])
def test_an_n_max_past_the_cap_is_named_in_one_short_line(g102, n_max, named):
    # 4 * 2^5000 was written out in full: over 1,500 digits
    with pytest.raises(ValidationError) as exc:
        generate(g102, n_max)
    assert str(exc.value) == named + "above the 2^40 cap"


def test_m_count_cap_leaves_out_the_slack(monkeypatch, gident):
    # the identity needs exactly n_max values of m, so n_max = cap still runs
    monkeypatch.setattr(seqset, "M_COUNT_CAP", 1 << 10)
    assert np.array_equal(generate(gident, 1 << 10).elements,
                          np.arange(1, (1 << 10) + 1))
    with pytest.raises(ValidationError, match="needs 1025 values of m"):
        generate(gident, (1 << 10) + 1)


def test_generate_memory_scales_with_enumerated_m():
    # 117k values of m up to n_max = 2^32, whose dense mask alone would be 4 GB
    tracemalloc.start()
    try:
        s = generate(make_growth("pure", 1.9), 1 << 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.elements.size > 100_000
    assert peak < 32 * 2 ** 20


def test_generate_holds_only_its_full_length_outputs(g102):
    # the m go through _floors in M_BLOCK blocks and the deduplicated floors
    # are compacted to the front of the int64 floors, so at full length only
    # that array is held, 8 B per m (17 B with a separate mask and elements
    # copy, 65 B when every stage took whole-range arrays); the slack covers
    # one block's temporaries, 1.1 MiB measured (4.4 MiB while generate also
    # measured p_min)
    n_max = 1 << 22
    m_count = int(g102.inverse().value(n_max + 1.0)) + 3 - math.ceil(g102.x0 - 1e-12)
    tracemalloc.start()
    try:
        generate(g102, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m_count > 3_000_000
    assert peak <= 8 * m_count + 2 * 2 ** 20, peak / m_count


@pytest.mark.parametrize("variant,c,c_h,params", [
    ("pure", 1.05, 0.7, dict(x0=2.0)),     # h' < 1 below m ~ 470: repeated floors
    ("powerexplog", 1.05, 1.0, dict(a=1.0, b=0.5)),
])
def test_the_blocks_of_m_do_not_change_the_set(monkeypatch, variant, c, c_h, params):
    g = make_growth(variant, c, c_h, **params)
    s = generate(g, 1 << 18)
    monkeypatch.setattr(seqset, "M_BLOCK", 1000)
    monkeypatch.setattr(seqset, "CHUNK", 7)
    t = generate(g, 1 << 18)
    assert np.array_equal(s.elements, t.elements) and s.p_min == t.p_min
    assert np.array_equal(s.elements, np.unique(guarded_floors(g, 1 << 18)))


def mp_sign(g, r, y):
    """Sign of h(r) - y from ``value_mp`` directly, |h(r) - y| <= 1e-40 y as 0."""
    with mpmath.workdps(60):
        s = g.value_mp(r) - y
        if abs(s) <= MP_ZERO_BAND * max(1, abs(y)):
            return 0
        return 1 if s > 0 else -1


def guarded_floors(g, n_max):
    """floor(h(m)) in [1, n_max] for every m up to phi(n_max + 1) + 2, with each
    value within 1e-9 relative of an integer settled by the 60-digit sign."""
    m = np.arange(math.ceil(g.x0 - 1e-12),
                  int(g.inverse().value(n_max + 1.0)) + 3, dtype=np.int64)
    v = np.asarray(g.value(m.astype(float)), dtype=float)
    f = np.floor(v).astype(np.int64)
    r = np.rint(v)
    for j in np.nonzero(np.abs(v - r) <= 1e-9 * np.abs(v))[0]:
        ri = int(r[j])
        f[j] = ri if mp_sign(g, int(m[j]), ri) >= 0 else ri - 1
    return f[(f >= 1) & (f <= n_max)]


@pytest.mark.parametrize("c,c_h", [
    (1.5, 1.0),     # h(k^2) = k^3
    (1.25, 1.0),    # h(k^4) = k^5
    (1.5, 2.5),     # h(k^2) = 5 k^3 / 2, an integer for even k
])
def test_exact_sign_test_agrees_with_60_digits(monkeypatch, c, c_h):
    # every band candidate of the enumeration to 2^24 and of the calibration
    # window, settled in integers, against value_mp
    g = make_growth("pure", c, c_h)
    assert g._exact is not None
    calls = []
    sign = GrowthFunction._sign_at

    def recording(g, r, y):
        calls.append((r, y, sign(g, r, y)))
        return calls[-1][2]

    monkeypatch.setattr(GrowthFunction, "_sign_at", recording)
    s = generate(g, 1 << 24)
    assert s.p_min < P_MIN_WINDOW and len(calls) > 20
    assert any(e == 0 for *_, e in calls)
    for r, y, exact in calls:
        assert exact == mp_sign(g, r, y), (r, y)


def test_a_rational_pure_power_never_reaches_mpmath(monkeypatch, glog):
    calls = []
    value_mp = GrowthFunction.value_mp

    def counting(self, x):
        calls.append(x)
        return value_mp(self, x)

    monkeypatch.setattr(GrowthFunction, "value_mp", counting)
    # enumeration and calibration of pure:1.5, whose perfect squares m give
    # integers h(m), all in the band
    s = generate(make_growth("pure", 1.5), 1 << 20)
    assert s.p_min < P_MIN_WINDOW
    assert np.isin(1 << 15, s.elements) and calls == []
    # a powerlog sign test and the explog band candidates keep the 60 digits
    assert glog._sign_at(10, 24) == mp_sign(glog, 10, 24) == 1
    assert len(calls) == 2
    g = make_growth("powerexplog", 1.05, 1.0, a=1.0, b=0.5)
    g._floors(np.array([m for m, _, _ in EXPLOG_FLOORS], dtype=np.int64))
    assert len(calls) == 2 + len(EXPLOG_FLOORS)


@pytest.mark.parametrize("c_h", [1.0, 1.5, 64.0])
def test_a_pure_power_at_one_never_reaches_mpmath(monkeypatch, c_h):
    # h(1) = C_h whatever c is, so a float c that has no integer sign test
    # still settles r = 1 exactly, as the 60-digit test would
    g = make_growth("pure", 1.02, c_h)
    assert g._exact is None
    ys = [math.floor(c_h) + k for k in (-1, 0, 1)]
    expected = [mp_sign(g, 1, y) for y in ys]
    assert expected[0] == 1 and expected[2] == -1

    def unreachable(self, x):
        raise AssertionError(f"value_mp({x}) called")

    monkeypatch.setattr(GrowthFunction, "value_mp", unreachable)
    assert [g._sign_at(1, y) for y in ys] == expected


def assert_membership_matches_dense_mask(s, expected):
    mask = np.zeros(s.n_max + 1, dtype=bool)
    mask[expected] = True
    ps = np.arange(1, s.n_max + 1)
    assert np.array_equal(seqset._member(s.elements, ps), mask[1:])
    for p in (1, s.n_max):
        assert seqset._member(s.elements, p) == mask[p]


@pytest.mark.parametrize("variant,c,params", [
    ("pure", 1.02, {}),
    ("powerlog", 1.02, {"a": 1.0}),
    ("poweriterlog", 1.02, {"m": 2}),
    ("powerexplog", 1.05, {"a": 1.0, "b": 0.5}),
])
def test_generate_dedup_and_membership_oracle(variant, c, params):
    g = make_growth(variant, c, **params)
    n_max = 1 << 18
    s = generate(g, n_max)
    expected = np.unique(guarded_floors(g, n_max))
    assert np.array_equal(s.elements, expected)
    assert np.any(np.diff(expected) > 1)
    assert_membership_matches_dense_mask(s, expected)


def test_membership_past_the_last_element_and_on_an_empty_set(g15):
    s = generate(g15, 13)
    assert list(s.elements) == [1, 2, 5, 8, 11]
    assert_membership_matches_dense_mask(s, s.elements)
    # h(3) = 3^1.9 > 5 is the first value past x0 = 2.1, so nothing is <= 5
    empty = generate(make_growth("pure", 1.9, x0=2.1), 5)
    assert empty.elements.size == 0
    assert_membership_matches_dense_mask(empty, empty.elements)


# ---------------------------------------------------------------------------
# membership via the inverse function
# ---------------------------------------------------------------------------

def test_membership_examples(phi15):
    # floors frozen from 50-digit evaluation: -phi(5) = -2.924, -phi(6) = -3.301
    for p, member, floor in ((5, True, -3), (6, False, -4)):
        one = np.array([p], dtype=np.int64)
        assert contains_via_inverse_batch(phi15, one).tolist() == [member]
        assert phi15._floor_neg(one).tolist() == [floor]


def test_membership_exact_integer_inverse(phi15):
    # phi(8) = 4 exactly: the floor is settled by the exact sign test
    for p in (8, 27):
        assert contains_via_inverse_batch(phi15, np.array([p])).tolist() == [True]
    assert phi15._floor_neg(np.array([8])).tolist() == [-4]


def test_membership_identity_always_true(phident):
    for p in (1, 2, 17, 1000):
        assert contains_via_inverse_batch(phident, np.array([p])).tolist() == [True]


def test_membership_domain_error(philog):
    with pytest.raises(DomainError):
        contains_via_inverse_batch(philog, np.array([1]))


def test_inverse_floor_matches_integer_oracle(phi15):
    # phi(p) = p^(2/3), so floor(-phi(p)) = -min{r : r^3 >= p^2}; the range
    # holds the cubes 3^3..40^3, where phi(p) is an integer
    ps = np.arange(16, (1 << 16) + 1, dtype=np.int64)
    oracle, cubes = [], 0
    for p in range(16, (1 << 16) + 1):
        r = round(p ** (2.0 / 3.0))
        while r ** 3 < p * p:
            r += 1
        while (r - 1) ** 3 >= p * p:
            r -= 1
        oracle.append(-r)
        cubes += r ** 3 == p * p
    assert cubes == 38
    assert np.array_equal(phi15._floor_neg(ps), np.array(oracle))


# (m, floor of h(m) by 60-digit arithmetic, floor of the float h(m)) for
# powerexplog:1.05:1.0:1.0:0.5: each float h(m) lies 35-38 ulps from an
# integer, on the wrong side of it; its error is 37.3-38.5 ulps, within the
# enumeration band 4 (1 + |c log m| + |lam(m)|) ~ 95 ulps
EXPLOG_FLOORS = [
    (46216980, 7456523190, 7456523189),
    (46909845, 7587363853, 7587363854),
    (49593453, 8097133833, 8097133834),
]


def test_inverse_test_pins_the_explog_floors():
    phi = make_growth("powerexplog", 1.05, 1.0, a=1.0, b=0.5).inverse()
    exact = np.array([e for _, e, _ in EXPLOG_FLOORS], dtype=np.int64)
    wrong = np.array([w for _, _, w in EXPLOG_FLOORS], dtype=np.int64)
    assert contains_via_inverse_batch(phi, exact).all()
    assert not contains_via_inverse_batch(phi, wrong).any()
    for m, e, _ in EXPLOG_FLOORS:
        assert phi._floor_neg(np.array([e])).tolist() == [-m]


def test_enumeration_floors_pin_the_explog_floors():
    g = make_growth("powerexplog", 1.05, 1.0, a=1.0, b=0.5)
    m = np.array([m for m, _, _ in EXPLOG_FLOORS], dtype=np.int64)
    exact = [e for _, e, _ in EXPLOG_FLOORS]
    wrong = [w for _, _, w in EXPLOG_FLOORS]
    assert np.floor(g.value(m.astype(float))).astype(np.int64).tolist() == wrong
    assert g._floors(m).tolist() == exact


def _worst_ulps(got, ref):
    """Worst distance of float64 results from long-double references, in ulps."""
    err = np.abs(got.astype(np.longdouble) - ref) / np.spacing(np.abs(got))
    return float(err.max())


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than float64 here")
def test_libm_error_fits_the_floor_band():
    rng = np.random.default_rng(2013)
    n = 1_000_000
    # the arguments _floors meets: exp up to h = 2^62, log of m and of the
    # iterated logs, pow of log m by an exponent in (0, 1)
    t = rng.uniform(0.0, 44.0, n)
    v = np.exp2(rng.uniform(0.0, 62.0, n))
    lv, b = rng.uniform(1.0, 44.0, n), rng.uniform(0.0, 1.0, n)
    e_exp = 2.0 * _worst_ulps(np.exp(t), np.exp(t.astype(np.longdouble)))
    e_log = 2.0 * _worst_ulps(np.log(v), np.log(v.astype(np.longdouble)))
    e_pow = 2.0 * _worst_ulps(np.power(lv, b), np.power(lv.astype(np.longdouble),
                                                          b.astype(np.longdouble)))
    assert max(e_exp, e_log, e_pow) <= 2.0      # each within one ulp
    specs = [("pure", 1.02, {}), ("pure", 1.5, {}), ("powerlog", 1.02, dict(a=1.0)),
             ("powerlog", 1.3, dict(a=1.0)), ("poweriterlog", 1.02, dict(m=2)),
             ("poweriterlog", 1.02, dict(m=3)),
             ("powerexplog", 1.05, dict(a=1.0, b=0.5)),
             ("powerexplog", 1.05, dict(a=1.0, b=0.95))]
    for variant, c, kw in specs:
        g = make_growth(variant, c, 1.0, **kw)
        m = np.geomspace(g.x0, 2.0 ** 40, 512)
        c_log_m = np.abs(g.c * np.log(m))
        lam = np.abs(np.log(g.value(m) / g.c_h) - g.c * np.log(m))
        # lam's error u (alpha + beta |lam|) and the K = 4 band, as derived
        # in the GrowthFunction._floors docstring
        alpha, beta = {"pure": (0.0, 0.0),
                       "powerlog": (abs(kw.get("a", 0.0)) * e_log, e_log + 1.0),
                       "powerexplog": (0.0, kw.get("b", 0.0) * e_log + e_pow + 1.0),
                       "poweriterlog": (kw.get("m", 0) * e_log, e_log)}[variant]
        err = (1.0 + e_exp + alpha) + (e_log + 2.0) * c_log_m + (beta + 1.0) * lam
        assert np.all(err <= 4.0 * (1.0 + c_log_m + lam)), (variant, kw)


def test_batch_equivalence_with_scalar(phi15, s15_1m):
    ps = np.arange(16, 4000)
    batch = contains_via_inverse_batch(phi15, ps)
    assert np.array_equal(batch, np.isin(ps, s15_1m.elements))


def test_a_window_inverts_each_point_once(phi102, monkeypatch):
    received = []
    floor_neg_phi = InverseFunction._floor_neg

    def counting(phi, p):
        received.append(p.size)
        return floor_neg_phi(phi, p)

    monkeypatch.setattr(InverseFunction, "_floor_neg", counting)
    window = np.arange(16, P_MIN_WINDOW + 1, dtype=np.int64)
    contains_via_inverse_batch(phi102, window)
    assert sum(received) == window.size + 1
    # unsorted, with repeats and gaps: each p + 1 not at the next entry is
    # inverted, and the answer is the two-inversion definition
    p = np.array([40, 41, 42, 30, 31, 31, 32, 90, 17, 18], dtype=np.int64)
    received.clear()
    got = contains_via_inverse_batch(phi102, p)
    assert sum(received) == p.size + 5
    monkeypatch.undo()
    lo, hi = (phi102._floor_neg(q) for q in (p, p + 1))
    assert np.array_equal(got, lo - hi == 1)


def test_equivalence_checker(s105_20):
    assert verify_membership_equivalence(s105_20, s105_20.p_min, 1 << 16) == 0
    with pytest.raises(RangeError):
        verify_membership_equivalence(s105_20, 0, 100)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_examples(s15_small, sident):
    assert count(s15_small, 11) == 5
    assert count(sident, 10) == 10


def test_count_monotone_and_total(s102_16):
    ns = np.linspace(1, s102_16.n_max, 50, dtype=int)
    cs = [count(s102_16, int(n)) for n in ns]
    assert all(a <= b for a, b in zip(cs, cs[1:]))
    assert count(s102_16, s102_16.n_max) == s102_16.elements.size


def test_count_dyadic_doubling_ratio(s105_20):
    gam = 1.0 / 1.05
    for k in (18, 19, 20):
        r = count(s105_20, 1 << k) / count(s105_20, 1 << (k - 1))
        assert abs(r / 2.0 ** gam - 1.0) < 0.1


def test_count_range_error(s15_small):
    with pytest.raises(RangeError):
        count(s15_small, 0)
    with pytest.raises(RangeError):
        count(s15_small, 12)


def test_p_min_recorded(s15_1m, s105_20):
    assert s15_1m.p_min >= 16
    assert s105_20.p_min >= 16
