"""Cutoff, kernels, autocorrelation decomposition, and the decay-exponent fit."""

import math
import sys

import numpy as np
import pytest

import roughmax.signals as sig
from conftest import count_kernel, traced_peak, values_at
from roughmax import (
    DegenerateError,
    InsufficientDataError,
    RangeError,
    SignalSizeError,
    autocorrelation,
    build_kernel,
    compute_gn,
    count,
    decomposition_report,
    decomposition_reports,
    estimate_chi,
    eta,
    generate,
    gn_profile,
)
from roughmax.kernel import (
    DecompositionReport,
    _density_window,
    _kernel_values,
    _kernel_window,
)
from roughmax.util import BLOCK


def gn_direct_oracle(phi, n, x):
    """Independent slow loop for the slowly varying profile."""
    phin = float(phi.value(float(n)))
    total = 0.0
    for m in range(n // 2 + 1, 4 * n):
        a = float(eta(m / n)) * float(phi.deriv(float(m), 1))
        b = float(eta((m + abs(x)) / n)) * float(phi.deriv(float(m + abs(x)), 1))
        total += a * b
    return total / phin ** 2


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_eta_plateau_support_range():
    ts = np.linspace(-1.0, 5.0, 4001)
    v = np.asarray(eta(ts))
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(v[(ts >= 1.0) & (ts <= 2.0)] == 1.0)
    assert np.all(v[(ts <= 0.5) | (ts >= 4.0)] == 0.0)
    assert np.all(v[(ts > 0.6) & (ts < 3.9)] > 0.0)


def test_eta_saturation_product():
    # eta (1 - eta) vanishes exactly on the plateau and off the support
    ts = np.concatenate([np.linspace(1, 2, 101), [-1.0, 0.25, 0.5, 4.0, 7.0]])
    v = np.asarray(eta(ts))
    assert np.all(v * (1.0 - v) == 0.0)


def test_eta_continuity_under_refinement():
    jumps = []
    for n in (1 << 10, 1 << 14):
        ts = np.linspace(0.4, 4.1, n)
        v = np.asarray(eta(ts))
        jumps.append(np.max(np.abs(np.diff(v))))
    assert jumps[1] < jumps[0] / 8.0


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_identity_kernel_values(sident):
    # the maximal operator's kernel, over the count 8 of [1, 8]
    k = count_kernel(sident, 8)
    assert count(sident, 8) == 8
    assert k.support == (5, 31)
    for n in range(5, 32):
        assert values_at(k, n) == pytest.approx(float(eta(n / 8.0)) / 8.0, rel=1e-15)
    assert sum(values_at(k, n) for n in range(8, 17)) == pytest.approx(9.0 / 8.0)
    assert 0.0 < k.sum() <= 8.0


def test_power_kernel_support_and_values(g15, s15_1m):
    k = count_kernel(s15_1m, 8)
    assert count(s15_1m, 8) == 4      # {1, 2, 5, 8}
    # floors of m^1.5 for m = 3..10: 5.19, 8, 11.18, 14.69, 18.52, 22.62, 27, 31.62
    members = [int(e) for e in s15_1m.elements if 4 < e < 32]
    assert members == [5, 8, 11, 14, 18, 22, 27, 31]
    for n in members:
        assert values_at(k, n) == pytest.approx(float(eta(n / 8.0)) / 4.0, rel=1e-15)
    off = sorted(set(range(5, 32)) - set(members))
    assert all(values_at(k, n) == 0.0 for n in off)


def test_each_measurement_has_its_own_norm(s102_16, phi102):
    # at 2^12 on pure:1.02 the count and phi(N) differ: the maximal
    # operator's points are over the count, build_kernel's values over phi(N)
    n = 1 << 12
    cnt, phin = count(s102_16, n), float(phi102.value(float(n)))
    assert cnt != phin
    pos, norm = _kernel_window(s102_16, n)
    assert norm == cnt
    vals = _kernel_values(pos, n, norm)
    top = np.asarray(eta(pos / float(n)), dtype=float)
    assert np.array_equal(vals, top / float(cnt))
    k = build_kernel(s102_16, n)
    assert np.array_equal(values_at(k.signal, pos), top / phin)
    assert np.count_nonzero(k.signal.values) == np.count_nonzero(top)


def test_build_kernel_holds_only_its_dense_layout(g102):
    # at N = 2^17 the values go into the layout one BLOCK leaf at a time,
    # which peaks at 1.21 times the layout; building the values, their
    # indices and the layout each at full length peaked at 2.58 times
    s = generate(g102, 1 << 19)
    n = 1 << 17
    width = build_kernel(s, n).signal.values.size
    assert traced_peak(build_kernel, s, n) <= 1.5 * 8 * width


def test_kernel_leaves_keep_the_bits(s102_16):
    # the window of 2^14 holds 2.8 BLOCK leaves of set elements; eta works
    # point by point, so the leaves write the one-pass values
    n = 1 << 14
    pos, norm = _kernel_window(s102_16, n, by_phi=True)
    assert pos.size > 2 * BLOCK
    whole = np.asarray(eta(pos / float(n)), dtype=float) / norm
    k = build_kernel(s102_16, n)
    assert np.array_equal(values_at(k.signal, pos), whole)
    assert k.signal.support == (pos[whole != 0][0], pos[whole != 0][-1])


def test_kernel_nonnegative_and_support_in_set(s102_16):
    k = build_kernel(s102_16, 1 << 10)
    assert np.all(k.signal.values >= 0.0)
    nz = np.nonzero(k.signal.values)[0] + k.signal.offset
    assert np.all(np.isin(nz, s102_16.elements))


def test_kernel_range_and_degenerate_errors(s102_16):
    with pytest.raises(RangeError):
        build_kernel(s102_16, 1 << 15)
    # elements of this set start near 17, so scale 4 has an empty count
    from roughmax import generate, make_growth
    g = make_growth("powerlog", 1.02, 1.0, a=1.0)
    late = generate(g, 4096)
    assert int(late.elements[0]) > 4
    with pytest.raises(DegenerateError):
        build_kernel(late, 4)


def test_kernel_support_cap(s102_16, monkeypatch):
    # the window of scale 2^10 spans ~3.5 * 2^10 integers, far above a cap of 64
    import roughmax.signals as sig
    monkeypatch.setattr(sig, "MAX_SUPPORT", 64)
    with pytest.raises(SignalSizeError, match="kernel support"):
        build_kernel(s102_16, 1 << 10)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def test_autocorrelation_at_zero_is_squared_norm(sident):
    k = build_kernel(sident, 8)
    ac = autocorrelation(k)
    assert values_at(ac, 0) == pytest.approx(float(np.dot(k.signal.values, k.signal.values)))
    assert values_at(ac, 0) > 0


def test_autocorrelation_mass_and_evenness(s102_16):
    k = build_kernel(s102_16, 1 << 12)
    ac = autocorrelation(k)
    assert ac.sum() == pytest.approx(k.signal.sum() ** 2, rel=1e-9)
    xs = np.arange(1, ac.support[1] + 1)
    assert np.array_equal(values_at(ac, xs), values_at(ac, -xs))


def test_autocorrelation_double_sum_oracle(s102_16):
    k = build_kernel(s102_16, 256)
    ac = autocorrelation(k)
    d = k.signal.to_dict()
    for x in (0, 1, 13, 100, 500, 900):
        oracle = sum(v * d.get(n + x, 0.0) for n, v in d.items())
        assert values_at(ac, x) == pytest.approx(oracle, abs=1e-9)


# ---------------------------------------------------------------------------
# the slowly varying profile
# ---------------------------------------------------------------------------

def test_gn_zero_beyond_window(phi105):
    assert compute_gn(phi105, 1 << 10, 4 << 10) == 0.0
    assert compute_gn(phi105, 1 << 10, -(4 << 10)) == 0.0


def test_gn_identity_scale(phident):
    n = 1 << 10
    v = compute_gn(phident, n, 0)
    assert 1.0 / n <= v <= 3.5 / n


def test_gn_against_direct_oracle(phi105):
    n = 256
    for x in (0, 1, 50, 300, 700):
        assert compute_gn(phi105, n, x) == pytest.approx(
            gn_direct_oracle(phi105, n, x), rel=1e-12, abs=1e-18)


def test_gn_profile_matches_pointwise(phi102):
    n = 1 << 12
    prof = gn_profile(phi102, n)
    for x in (0, 1, 100, 3000, 5000, 4 * n - 1, 4 * n):
        assert values_at(prof, x) == pytest.approx(compute_gn(phi102, n, x), abs=1e-12)


def test_gn_bounded_by_inverse_scale(phi102):
    n = 1 << 14
    phin = float(phi102.value(float(n)))
    x = int(2 * phin)
    v = compute_gn(phi102, n, x)
    assert 0.0 < n * v < 4.0


# ---------------------------------------------------------------------------
# decomposition reports
# ---------------------------------------------------------------------------

def test_identity_report_degenerate_sanity(sident):
    k = build_kernel(sident, 1 << 10)
    r = decomposition_report(sident, 1 << 10)
    assert math.isfinite(r.small_x_bound)
    # with every integer present the autocorrelation IS the profile
    assert r.en_sup <= 1e-12
    assert r.mass == pytest.approx(k.signal.sum() ** 2, rel=1e-9)


def test_report_fields_positive(s102_16):
    r = decomposition_report(s102_16, 1 << 12)
    assert r.small_x_bound > 0 and r.gn_sup > 0
    assert r.en_sup > 0 and r.gn_lipschitz > 0
    assert r.scale_n == 1 << 12


def test_gn_smoothness_across_scales(s102_16):
    lips = []
    for k_exp in (10, 11, 12):
        lips.append(decomposition_report(s102_16, 1 << k_exp).gn_lipschitz)
    assert max(lips) / min(lips) < 4.0


def test_density_window_blocks_keep_the_bits(phi102):
    # the window of 2^16 spans 14 BLOCK pieces; phi' and eta work point by
    # point, so the pieced window has the bits of the one-pass product
    n = 1 << 16
    m = np.arange(n // 2 + 1, 4 * n, dtype=float)
    whole = np.asarray(phi102.deriv(m, 1)) * np.asarray(eta(m / n))
    assert np.array_equal(_density_window(phi102, n), whole)


def test_gn_window_cap(phi102, monkeypatch):
    # the window of scale 2^10 spans ~3.5 * 2^10 integers, far above a cap of 64
    monkeypatch.setattr(sig, "MAX_SUPPORT", 64)
    with pytest.raises(SignalSizeError, match="G_N window"):
        gn_profile(phi102, 1 << 10)
    with pytest.raises(SignalSizeError, match="G_N window"):
        compute_gn(phi102, 1 << 10, 3)


def test_gn_profile_refuses_an_oversized_window(run_limited):
    # scale 2^29 on pure:1.9: the density window spans ~1.9e9 integers (14 GiB
    # as floats); the child runs under a 3 GiB address-space limit
    code = ("import roughmax\n"
            "phi = roughmax.make_growth('pure', 1.9).inverse()\n"
            "for probe in (lambda: roughmax.gn_profile(phi, 1 << 29),\n"
            "              lambda: roughmax.compute_gn(phi, 1 << 29, 5)):\n"
            "    try:\n"
            "        probe()\n"
            "    except roughmax.SignalSizeError as exc:\n"
            "        print(exc)\n")
    proc = run_limited("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(f"exceeds MAX_SUPPORT = {1 << 30}") == 2, proc.stdout


def full_grid_split_sups(k, phi):
    """The oracle for decomposition_report's unscaled sups: both profiles as
    even signals, read on the integer lag grid 0..max(last support lag of
    either, cut + 1)."""
    n = k.scale_n
    phin = float(phi.value(float(n)))
    cut = int(math.floor(phin))
    acorr = autocorrelation(k)
    gn = gn_profile(phi, n)
    xs = np.arange(max(acorr.support[1], gn.support[1], cut + 1) + 1)
    a = values_at(acorr, xs)
    tail = values_at(gn, xs)[cut + 1:]
    small = float(np.max(np.abs(a[1:cut + 1]))) if cut >= 1 else 0.0
    lip = 0.0
    for d in (1, 2, 4, 8):
        if tail.size > d:
            lip = max(lip, float(np.max(np.abs(tail[d:] - tail[:-d]))) / d)
    return (float(a[0]), small, float(np.max(np.abs(tail))),
            float(np.max(np.abs(a[cut + 1:] - tail))), lip, acorr.sum())


def test_split_sups_are_the_full_grid_bits(s102_16, phi102, glog, philog,
                                           sident, phident):
    s_log = generate(glog, 1 << 14)
    cases = [(s102_16, phi102, k) for k in (4, 8, 12, 14)]
    cases += [(s_log, philog, k) for k in (6, 12)] + [(sident, phident, 6)]
    for s, phi, k_exp in cases:
        k = build_kernel(s, 1 << k_exp)
        n = k.scale_n
        a0, small, gn_sup, en_sup, lip, mass = full_grid_split_sups(k, phi)
        r = decomposition_report(s, 1 << k_exp)
        assert (r.scale_n, r.point_mass, r.small_x_bound, r.gn_sup, r.en_sup,
                r.gn_lipschitz, r.mass) == (n, a0, n * small, gn_sup * n, en_sup,
                                            n * n * lip, mass), k_exp


def test_decomposition_report_holds_one_transform_at_a_time(g102):
    # at N = 2^16 both autocorrelations are transforms of n = 2^19 points.
    # The kernel and the density window are freed after their forward
    # transforms, and each half-lag array is allocated after its spectrum is
    # let go, so the peak is a spectrum (n + 2 doubles) and the conjugate or
    # output beside it (n), plus the kernel's half-lag profile (~3.5N =
    # 0.44n): 2.46n.  Holding the kernel, the window and the half-lag array
    # through the second transform read 3.77n.  pocketfft's own scratch is
    # not traced
    s = generate(g102, 1 << 18)
    n = 1 << 19
    assert traced_peak(decomposition_report, s, 1 << 16) <= 2.6 * n * 8


def test_decomposition_reports_do_not_depend_on_workers(s102_16, glog):
    # more threads than cores, switching as often as the interpreter allows
    s_log = generate(glog, 1 << 16)
    scales = [1 << k for k in range(10, 15)]
    cases = (s102_16, s_log)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [[decomposition_reports(s, scales, workers)
                 for workers in (1, 2, 3)] for s in cases]
    finally:
        sys.setswitchinterval(interval)
    for s, reps in zip(cases, runs):
        assert reps[0] == reps[1] == reps[2]
        assert reps[0] == [decomposition_report(s, n)
                           for n in scales]


def test_decomposition_reports_raise_the_first_failing_scale(s102_16):
    # 2^15 and 2^16 both need n_max >= 4N > 2^16; the smaller one is reported
    # whichever thread finishes first
    scales = [1 << 10, 1 << 15, 1 << 16]
    for workers in (1, 3):
        with pytest.raises(RangeError, match="N = 32768"):
            decomposition_reports(s102_16, scales, workers=workers)
    assert decomposition_reports(s102_16, [], workers=4) == []


# ---------------------------------------------------------------------------
# decay-exponent fit
# ---------------------------------------------------------------------------

def _fake_report(n, en):
    return DecompositionReport(scale_n=n, point_mass=1.0, small_x_bound=1.0,
                               gn_sup=1.0, en_sup=en, gn_lipschitz=1.0, mass=1.0)


def test_estimate_chi_exact_power_laws():
    reps = [_fake_report(1 << k, float((1 << k)) ** -1.2) for k in range(10, 16)]
    assert estimate_chi(reps) == pytest.approx(0.2, abs=1e-9)
    reps = [_fake_report(1 << k, 7.0 * float((1 << k)) ** -1.0) for k in range(10, 16)]
    assert estimate_chi(reps) == pytest.approx(0.0, abs=1e-9)


def test_estimate_chi_needs_four_scales():
    reps = [_fake_report(1 << k, 1e-3) for k in (10, 11, 12)]
    with pytest.raises(InsufficientDataError):
        estimate_chi(reps)
