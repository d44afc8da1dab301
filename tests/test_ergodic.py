"""Averages along the set under a cyclic shift."""

import numpy as np
import pytest

from conftest import traced_peak
from roughmax import (
    DegenerateError,
    RangeError,
    Shift,
    ValidationError,
    cyclic_shift,
    ergodic_average,
    generate,
    make_growth,
    oscillation_diagnostic,
    weighted_average,
)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def test_a_system_past_max_support_is_refused_before_it_is_built():
    # cyclic_shift(10^11) died on numpy's allocator with "Unable to allocate
    # 745. GiB"; nothing is allocated now, and m is capped where the hit
    # test's arithmetic would leave int64
    for m in (2 ** 31 + 1, 10 ** 11):
        with pytest.raises(ValidationError,
                           match=f"^cyclic shift on m = {m} states exceeds "
                                 f"MAX_STATES = {2 ** 31}$"):
            cyclic_shift(m)
    assert cyclic_shift(2 ** 31, -1) == Shift(2 ** 31, 2 ** 31 - 1)


def test_a_shift_by_a_step_past_int64_is_a_shift_by_its_residue():
    # np.arange(step, m + step) raised OverflowError for a step near 2^63
    for step in (10 ** 30, -(10 ** 30), 1 << 63, -(1 << 63) - 5, 97, -1):
        assert cyclic_shift(97, step) == cyclic_shift(97, step % 97), step
    assert cyclic_shift(5, -1) == Shift(5, 4)
    with pytest.raises(ValidationError, match="at least one state"):
        cyclic_shift(0, 10 ** 30)


def test_a_permutation_average_is_a_shift_average_over_its_cycle(s102_16):
    # the orbit of x under a permutation is a cycle, on which the permutation
    # is a shift by 1: the naive average at x is the shift's on the cycle
    perm = np.random.default_rng(99).permutation(23)
    ns = np.array([17, 100, 1000, 5000])
    els = s102_16.elements[s102_16.elements <= ns[-1]]
    for x in range(23):
        cycle = [x]
        while (y := int(perm[cycle[-1]])) != cycle[0]:
            cycle.append(y)
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]     # from its least state
        walk = [x]                                # T^j x for j <= max N
        for _ in range(ns[-1]):
            walk.append(int(perm[walk[-1]]))
        states = np.array(walk)[els]
        for k, y in enumerate(cycle):
            naive = [np.count_nonzero(states[els <= n] == y) / np.count_nonzero(els <= n)
                     for n in ns]
            got = ergodic_average(cyclic_shift(len(cycle)), s102_16, k,
                                  cycle.index(x), ns)
            assert got.tolist() == naive, (x, y)


def test_a_shift_near_2_31_states_keeps_its_arithmetic_in_int64():
    # with elements up to 2^40, j step would reach 2^71; (j mod m) step + x
    # stays below (m - 1)^2 + (m - 1) < 2^63.  A step of m - 1 is a step of
    # -1, so T^j x = (x - j) mod m exactly; an m not a power of 2 makes an
    # int64 wrap change the residue
    s = generate(make_growth("pure", 1.99), 1 << 40)
    m, x = 2 ** 31 - 1, 2 ** 31 - 2
    sys = cyclic_shift(m, m - 1)
    assert s.elements[-1] > 1 << 39
    for j in s.elements[[0, s.elements.size // 2, -1]].tolist():
        k = (x - j) % m
        hits = np.count_nonzero((x - s.elements) % m == k)
        assert ergodic_average(sys, s, k, x, s.n_max) == hits / s.elements.size


def test_an_average_holds_nothing_the_size_of_the_system(s102_16):
    # the map, the permutation marks and the indicator took 8 + 1 + 8 bytes
    # per state; now the peak is the terms and one CHUNK of temporaries
    peaks = [traced_peak(ergodic_average, cyclic_shift(m, 3), s102_16, m - 1, 5,
                         1 << 16) for m in (7, 2 ** 31)]
    assert peaks[1] <= peaks[0] + 4096 and peaks[1] < 2 * 2 ** 20, peaks


def test_measure_preservation_exact(s102_16):
    # each T^j is a bijection: exactly one start state reaches k, so the
    # averages over all start states sum to 1 at every N
    ns = np.array([1, 10, 1000, 1 << 16])
    for sys in (cyclic_shift(31, 7), cyclic_shift(31, 0)):
        total = sum(ergodic_average(sys, s102_16, 4, x, ns) for x in range(31))
        assert total == pytest.approx(np.ones(ns.size), rel=1e-14)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def test_identity_map_average_is_point_value(s102_16):
    sys = cyclic_shift(7, 0)
    assert ergodic_average(sys, s102_16, 3, 3, 5000) == 1.0
    assert ergodic_average(sys, s102_16, 3, 2, 5000) == 0.0


def test_the_averages_over_every_target_state_sum_to_1(s102_16):
    # the indicators of the m states are a partition of unity
    sys = cyclic_shift(13, 4)
    ns = np.array([1, 77, 5000, 1 << 16])
    avgs = [ergodic_average(sys, s102_16, k, 2, ns) for k in range(13)]
    assert sum(avgs) == pytest.approx(np.ones(ns.size), rel=1e-14)
    assert all(((0 <= a) & (a <= 1)).all() for a in avgs)


def test_shift_equidistribution(s102_16):
    a = ergodic_average(cyclic_shift(97, 5), s102_16, 3, 0, 1 << 16)
    assert abs(a - 1.0 / 97.0) < 0.05


def test_weighted_average_identity_system(sident):
    sys = cyclic_shift(5, 2)
    # weight is identically 1 and the set is all integers: the target states
    # share the N elements
    total = sum(weighted_average(sys, sident, k, 0, 1000) for k in range(5))
    assert total == pytest.approx(1.0)


def test_weighted_tracks_plain(s102_16):
    sys = cyclic_shift(97, 5)
    n = 1 << 16
    a = ergodic_average(sys, s102_16, 3, 0, n)
    w = weighted_average(sys, s102_16, 3, 0, n)
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
    avg = weighted_average(cyclic_shift(1, 0), s, 0, 0, first)
    assert avg * first == pytest.approx(float(g.deriv(g.x0, 1)), rel=1e-14)


def test_average_validation(s102_16):
    sys = cyclic_shift(7, 1)
    with pytest.raises(RangeError):
        ergodic_average(sys, s102_16, 0, 0, s102_16.n_max + 1)
    with pytest.raises(RangeError, match=r"^target state 7 outside 0\.\.6$"):
        ergodic_average(sys, s102_16, 7, 0, 100)
    with pytest.raises(RangeError, match=r"^state -1 outside 0\.\.6$"):
        weighted_average(sys, s102_16, 0, -1, 100)


def test_empty_count_error():
    from roughmax import generate, make_growth
    g = make_growth("powerlog", 1.02, 1.0, a=1.0)
    late = generate(g, 4096)        # elements start near 17
    sys = cyclic_shift(7, 1)
    with pytest.raises(DegenerateError):
        ergodic_average(sys, late, 0, 0, 4)


@pytest.mark.parametrize("weighted", [False, True])
def test_array_call_is_the_scalar_calls_bit_for_bit(s102_22, weighted):
    sys = cyclic_shift(13, 4)
    # a repeated N, N out of order, and N past the 2^20 fsum threshold
    ns = np.array([1 << 21, 1, 77, 77, 1 << 12, (1 << 22) - 3, 5000])

    def avg(n):
        if weighted:
            return weighted_average(sys, s102_22, 6, 2, n)
        return ergodic_average(sys, s102_22, 6, 2, n)

    got = avg(ns)
    assert isinstance(got, np.ndarray) and got.shape == ns.shape
    assert got.tolist() == [avg(int(n)) for n in ns]
    assert avg(ns[:0]).shape == (0,)


def test_array_call_names_the_first_bad_n(s102_16):
    sys = cyclic_shift(7, 1)
    bad = s102_16.n_max + 1
    with pytest.raises(RangeError, match=f"N = {bad} outside"):
        ergodic_average(sys, s102_16, 0, 0, [10, bad, 0])
    with pytest.raises(RangeError, match="N = 0 outside"):
        weighted_average(sys, s102_16, 0, 0, np.array([10, 0, bad]))


def test_array_call_names_an_n_with_no_elements():
    from roughmax import generate, make_growth
    g = make_growth("powerlog", 1.02, 1.0, a=1.0)
    late = generate(g, 4096)        # elements start near 17
    sys = cyclic_shift(7, 1)
    with pytest.raises(DegenerateError, match=r"\[1, 4\]"):
        ergodic_average(sys, late, 0, 0, np.array([1024, 4, 2]))
    # the weighted average is normalized by N, so an empty prefix averages to 0
    w = weighted_average(sys, late, 0, 0, np.array([4, 1024]))
    assert w[0] == 0.0 and w[1] > 0.0


# ---------------------------------------------------------------------------
# oscillation diagnostic
# ---------------------------------------------------------------------------

def test_oscillation_zero_observable(s102_16):
    # the orbit of 0 under the identity never meets state 1
    sys = cyclic_shift(97, 0)
    assert oscillation_diagnostic(sys, s102_16, 1, 0, 0.25,
                                  [4, 16, 64, 256]) == 0.0


def test_oscillation_identity_matches_direct_oracle(s102_16, phi102, g102):
    # with the identity map the diagnostic is exactly the oscillation of the
    # weighted normalization sequence at the marked state
    import math
    sys = cyclic_shift(5, 0)
    bps = [4 ** j for j in range(1, 6)]
    got = oscillation_diagnostic(sys, s102_16, 2, 2, 0.25, bps)
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
    vals = {}
    for j_count in (4, 8):
        bps = [4 ** j for j in range(1, j_count + 2)]
        vals[j_count] = oscillation_diagnostic(sys, s102_22, 3, 0,
                                               0.25, bps) / j_count
    assert vals[8] <= vals[4]


def test_oscillation_breakpoint_validation(s102_16):
    sys = cyclic_shift(7, 1)
    with pytest.raises(ValidationError):
        oscillation_diagnostic(sys, s102_16, 0, 0, 0.25, [4, 7])
    with pytest.raises(ValidationError):
        oscillation_diagnostic(sys, s102_16, 0, 0, -0.1, [4, 16])
    # a NaN or infinite eps once reached math.floor and raised there, and
    # an eps that 1 + eps rounds away, or one of billions of steps to 16,
    # once kept the lacunary walk going
    for eps, message in ((float("nan"), "must be positive"),
                         (float("inf"), "must be finite"),
                         (1e-17, r"leaves 1 \+ eps == 1"),
                         (1e-9, "over LACUNARY_STEP_CAP = 1048576")):
        with pytest.raises(ValidationError, match=message):
            oscillation_diagnostic(sys, s102_16, 0, 0, eps, [4, 16])
    with pytest.raises(RangeError):
        oscillation_diagnostic(sys, s102_16, 0, 0, 0.25,
                               [4, s102_16.n_max * 2])
