"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see every line.
Tolerances and scale ranges are pinned here; the heavy artifacts (the large
generated sets) are shared session fixtures.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import dyadic
from roughmax import (
    Signal,
    abel_sum,
    build_kernel,
    build_scale_family,
    count,
    cyclic_shift,
    cz_decompose,
    decomposition_report,
    default_lambda_grid,
    ergodic_average,
    estimate_chi,
    indicator,
    make_growth,
    oscillation_diagnostic,
    ratio_sweep,
    refine_bad_part,
    sawtooth,
    verify_family_hypotheses,
    verify_membership_equivalence,
    weak_type_profile,
)
from roughmax.cli import main as cli_main


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


FAMILY_CONFIGS = [(variant, c, kw)
                  for c in (1.02, 1.05, 1.2)
                  for variant, kw in [("powerlog", dict(a=1.0)),
                                      ("powerexplog", dict(a=1.0, b=0.5)),
                                      ("poweriterlog", dict(m=2))]]


@pytest.fixture(scope="module")
def nine_families():
    out = []
    for variant, c, kw in FAMILY_CONFIGS:
        g = make_growth(variant, c, 1.0, **kw)
        out.append((g, g.inverse()))
    return out


@pytest.fixture(scope="module")
def sweep_reports(s102_22):
    """Decomposition reports for scales 2^12..2^20, shared by criteria 5 and 6."""
    t0 = time.monotonic()
    reports = []
    for k in range(12, 21):
        ker = build_kernel(s102_22, 1 << k)
        reports.append(decomposition_report(ker))
    return reports, time.monotonic() - t0


def test_criterion_01_inversion_roundtrip(nine_families):
    t0 = time.monotonic()
    worst = 0.0
    for g, phi in nine_families:
        ys = np.exp(np.linspace(math.log(phi.y0), math.log(2.0 ** 30), 1000))
        xs = np.asarray(phi.value(ys))
        worst = max(worst, float(np.max(np.abs(np.asarray(g.value(xs)) - ys) / ys)))
    elapsed = time.monotonic() - t0
    report("1", worst <= 1e-10 and elapsed < 1.0,
           f"roundtrip max rel err {worst:.2e} <= 1e-10 over 9 configs x 1000 "
           f"points in {elapsed:.2f}s < 1s")


def test_criterion_02_identity_suite(nine_families):
    worst_rec, worst_prod = 0.0, 0.0
    for g, phi in nine_families:
        ys = np.exp(np.linspace(math.log(phi.y0), math.log(2.0 ** 30), 1000))
        xs = np.asarray(phi.value(ys))
        for i in (1, 2, 3):
            lhs = xs * np.asarray(g.deriv(xs, i))
            rhs = np.asarray(g.deriv(xs, i - 1)) * (
                g.c - i + 1 + np.asarray(g.vartheta(xs, i)))
            worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
        gam = 1.0 / g.c
        lhs = ys ** 2 * np.asarray(phi.deriv(ys, 2))
        rhs = xs * (gam + np.asarray(phi.theta(ys, 1))) \
            * (gam - 1.0 + np.asarray(phi.theta(ys, 2)))
        worst_prod = max(worst_prod, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    ok = worst_rec <= 1e-8 and worst_prod <= 1e-8
    report("2", ok, f"derivative recursion {worst_rec:.2e} and second-derivative "
                    f"product identity {worst_prod:.2e} both <= 1e-8")


def test_criterion_03_membership_equivalence(s15_1m, g105, s105_20):
    t0 = time.monotonic()
    mism = verify_membership_equivalence(s15_1m, s15_1m.p_min, 10 ** 6)
    mism += verify_membership_equivalence(s105_20, s105_20.p_min, 10 ** 6)
    elapsed = time.monotonic() - t0
    report("3", mism == 0 and elapsed < 10.0,
           f"enumeration vs inverse-test membership: {mism} disagreements on "
           f"[p_min, 10^6] for both exponents in {elapsed:.2f}s < 10s")


def test_criterion_04_counting(s102_22, phi102, s105_20, phi105):
    t0 = time.monotonic()
    n = 1 << 20
    r102 = count(s102_22, n) / float(phi102.value(float(n)))
    r105 = count(s105_20, n) / float(phi105.value(float(n)))
    elapsed = time.monotonic() - t0
    ok = 0.98 <= r102 <= 1.02 and 0.98 <= r105 <= 1.02 and elapsed < 30.0
    report("4", ok, f"count/inverse-value at 2^20: {r102:.5f} (c=1.02), "
                    f"{r105:.5f} (c=1.05), both in [0.98, 1.02], {elapsed:.2f}s")


def test_criterion_05_small_lag_boundedness(sweep_reports):
    reports, elapsed = sweep_reports
    vals = [r.small_x_bound for r in reports]
    spread = max(vals) / min(vals)
    report("5", spread <= 4.0 and elapsed < 600.0,
           f"N * sup|autocorr| over 0<|x|<=phi(N), scales 2^12..2^20: "
           f"max/min = {spread:.3f} <= 4 (exhaustive sweep in {elapsed:.1f}s < 600s)")


def test_criterion_06_error_decay_and_smoothness(sweep_reports):
    reports, _ = sweep_reports
    chi = estimate_chi(reports)
    slope = -1.0 - chi
    lips = [r.gn_lipschitz for r in reports]
    spread = max(lips) / min(lips)
    ok = slope <= -1.05 and chi >= 0.05 and spread <= 4.0
    report("6", ok, f"tail-error slope {slope:.3f} <= -1.05 (chi = {chi:.3f}), "
                    f"N^2 Lipschitz spread {spread:.3f} <= 4")


def test_criterion_07_phase_sum_ratios(phi105, rng):
    stats = []
    for mode in ("single", "two"):
        for m in (1, 2, 4):
            ratios = [r.ratio for r in ratio_sweep(phi105, mode, m,
                                                   dyadic(12, 20), kappa=1.0)]
            med = statistics.median(ratios)
            stats.append((mode, m, max(ratios), med, max(ratios) <= 2.0 * med))
    sweeps_ok = all(s[4] for s in stats)

    worst_abel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 100))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        gt = rng.normal(size=n + 2)
        direct = sum(u[i] * gt[i + 1] for i in range(n))
        via = abel_sum(u, lambda k: gt[k])
        worst_abel = max(worst_abel, abs(via - direct) / max(1.0, abs(direct)))
    ok = sweeps_ok and worst_abel <= 1e-12
    detail = "; ".join(f"{mo}/m={m}: max {mx:.2f} <= 2*med {md:.2f}"
                       for mo, m, mx, md, _ in stats)
    report("7", ok, f"{detail}; summation-by-parts max rel err "
                    f"{worst_abel:.2e} <= 1e-12 on 1000 instances")


def test_criterion_08_sawtooth_truncation():
    ts = np.arange(1, 10001) / 10001.0
    worst = 0.0
    for m_terms in (100, 1000):
        mvec = np.arange(1, m_terms + 1, dtype=float)
        z = np.exp(-2j * np.pi * np.outer(ts, mvec))
        delta = ((z - z.conj()) / (2j * np.pi * mvec)).sum(axis=1).real
        phi_t = np.array([sawtooth(float(t)) for t in ts])
        caps = np.minimum(1.0, 1.0 / (m_terms * np.abs(ts - np.rint(ts))))
        worst = max(worst, float(np.max(np.abs(phi_t - delta) / caps)))
    report("8", worst <= 1.0,
           f"|sawtooth - partial sum| / min(1, 1/(M||t||)) max = {worst:.3f} "
           f"<= 1 on 10^4 points, M in {{100, 1000}}")


def test_criterion_09_decomposition_invariants(s102_16):
    t0 = time.monotonic()
    fam = build_scale_family(s102_16, dyadic(8, 13))
    rng = np.random.default_rng(0x5EED)
    cases = checked = 0
    for _ in range(64):
        n_spikes = int(rng.integers(1, 40))
        f = {}
        for p in rng.integers(-300, 3000, n_spikes):
            f[int(p)] = f.get(int(p), 0) + Fraction(int(rng.integers(1, 120)),
                                                    int(rng.integers(1, 24)))
        lam = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        cz = cz_decompose(f, lam)
        assert cz.reconstruction() == {x: v for x, v in f.items() if v != 0}
        covered = set()
        for a in cz.atoms:
            lo, hi = a.cube()
            cube = set(range(lo, hi + 1))
            assert not (cube & covered)
            covered |= cube
            assert a.l1() <= 2 * lam * (1 << a.scale)
        assert all(0 <= v <= 2 * lam for v in cz.good.values())
        assert cz.total_cube_size() <= 4 * sum(f.values()) / lam
        cases += 1
        for s in sorted({a.scale for a in cz.atoms}):
            for n in (1 << 8, 1 << 11, 1 << 13):
                rb = refine_bad_part(cz, s, n, fam)
                b_s = {}
                for a in cz.atoms_at_scale(s):
                    b_s.update(a.values)
                keys = set(b_s) | set(rb.b_cut) | set(rb.big_b) | set(rb.g_part)
                assert all(rb.b_cut.get(x, 0) + rb.big_b.get(x, 0)
                           + rb.g_part.get(x, 0) == b_s.get(x, 0) for x in keys)
                for lo, hi in rb.cubes:
                    assert sum(rb.big_b.get(x, 0) for x in range(lo, hi + 1)) == 0
                checked += 1
    elapsed = time.monotonic() - t0
    report("9", cases == 64 and elapsed < 60.0,
           f"64 exact rational cases: reconstruction, disjointness, bounds, "
           f"and {checked} refinement splits all exact in {elapsed:.1f}s < 60s")


def test_criterion_10_weak_type_trend(s102_22):
    t0 = time.monotonic()
    fam14 = build_scale_family(s102_22, dyadic(8, 14))
    fam18 = build_scale_family(s102_22, dyadic(8, 18))
    corpus = [Signal.delta(0)]
    rng = np.random.default_rng(20250808)
    for _ in range(8):
        d = {}
        for p in rng.integers(0, 1 << 14, 32):
            d[int(p)] = d.get(int(p), 0.0) + 1.0
        corpus.append(Signal.from_dict(d))
    worst = 0.0
    for f in corpus:
        r14 = max(r for _, _, r in weak_type_profile(
            fam14, f, default_lambda_grid(fam14, f)))
        r18 = max(r for _, _, r in weak_type_profile(
            fam18, f, default_lambda_grid(fam18, f)))
        worst = max(worst, r18 / r14)
    elapsed = time.monotonic() - t0
    report("10", worst <= 1.25 and elapsed < 900.0,
           f"sup-ratio growth from scales <=2^14 to <=2^18 over delta + 8 "
           f"sparse inputs: max factor {worst:.4f} <= 1.25 in {elapsed:.1f}s")


def test_criterion_11_family_hypotheses(s102_22):
    fam = build_scale_family(s102_22, dyadic(12, 20))
    rep = verify_family_hypotheses(fam)
    prods = rep.f0_d_product
    spread = max(prods) / min(prods)
    ok = spread <= 4.0 and rep.eps1 > 0.0
    report("11", ok, f"model(0) * support-count spread {spread:.4f} <= 4 and "
                     f"fitted decay exponent eps1 = {rep.eps1:.3f} > 0 "
                     f"across scales 2^12..2^20")


def test_criterion_12_ergodic_convergence(s102_22):
    sys97 = cyclic_shift(97, 5)
    f = indicator(97, 3)
    a = ergodic_average(sys97, s102_22, f, 0, 1 << 20)
    dev = abs(a - 1.0 / 97.0)
    osc = {}
    for j_count in (4, 8):
        bps = [4 ** j for j in range(1, j_count + 2)]
        osc[j_count] = oscillation_diagnostic(sys97, s102_22, f, 0,
                                              0.25, bps) / j_count
    ok = dev < 0.05 and osc[8] <= osc[4]
    report("12", ok, f"|average - 1/97| = {dev:.2e} < 0.05 at 2^20; "
                     f"oscillation sum/J {osc[4]:.4f} -> {osc[8]:.4f} nonincreasing")


def test_criterion_13_cli_determinism(tmp_path):
    configs = [
        ("growth-table", ["--h", "powerlog:1.02:1.0:1.0", "--kmin", "6",
                          "--kmax", "9"]),
        ("seqset", ["--h", "pure:1.5:1.0", "--nmax", "4096"]),
        ("kernel-decomp", ["--h", "pure:1.05:1.0", "--kmin", "10",
                           "--kmax", "11"]),
        ("expsum", ["--h", "pure:1.05:1.0", "--bound", "two", "--kmin", "10",
                    "--kmax", "11", "--params", "m=2,kappa=1.0"]),
        ("weaktype", ["--h", "pure:1.02:1.0", "--nlo", "8", "--nhi", "10",
                      "--corpus", "random:16:7"]),
        ("cz", ["--input", str(tmp_path / "f.csv"), "--height", "3/2"]),
        ("ergodic", ["--h", "pure:1.02:1.0", "--system", "shift:97:5",
                     "--f", "indicator:3", "--x", "0", "--kmin", "8",
                     "--kmax", "10"]),
        ("verify-family", ["--h", "pure:1.02:1.0", "--nlo", "10",
                           "--nhi", "13"]),
    ]
    (tmp_path / "f.csv").write_text("0,8\n5,7/3\n90,2\n", encoding="utf-8")
    all_ok = True
    for cmd, extra in configs:
        outs = []
        for i, workers in enumerate(("1", "1", "5")):
            p = tmp_path / f"{cmd}-{i}.csv"
            code = cli_main([cmd, *extra, "--workers", workers, "--out", str(p)])
            assert code == 0, (cmd, code)
            outs.append(p.read_bytes())
        all_ok = all_ok and outs[0] == outs[1] == outs[2]
    report("13", all_ok, "all 8 commands byte-identical across reruns and "
                         "across --workers 1 vs 5")
