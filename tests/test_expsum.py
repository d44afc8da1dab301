"""Phase sums against their predicted caps; summation identities are exact."""

import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import dyadic, traced_peak
from roughmax import (
    EmptyRangeError,
    PreconditionError,
    SignalSizeError,
    ValidationError,
    abel_sum,
    eta,
    make_growth,
    min_norm_sum,
    min_norm_sweep,
    ratio_sweep,
    sawtooth,
    single_phase_sum,
    two_phase_sum,
)
from roughmax import expsum, signals
from roughmax.expsum import _alpha_probes, _single_setup, _two_setup
from roughmax.growth import InverseFunction
from roughmax.util import BLOCK, COMPENSATED_THRESHOLD, chunked_sum


def bits(z) -> list:
    """The IEEE bits of a complex, as integers."""
    return np.array([z], dtype=complex).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# sawtooth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,expect", [
    (0.25, -0.25), (3.0, -0.5), (-0.25, 0.25), (0.5, 0.0), (-1.75, -0.25),
])
def test_sawtooth_values(t, expect):
    assert sawtooth(t) == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------------------
# summation by parts
# ---------------------------------------------------------------------------

def test_abel_tiny_example():
    assert abel_sum([1.0, 1.0, 1.0], lambda n: float(n)) == pytest.approx(6.0)


def test_abel_matches_direct_sum_random(rng):
    for _ in range(25):
        n = int(rng.integers(2, 80))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        gt = rng.normal(size=n + 2)
        direct = sum(u[i] * gt[i + 1] for i in range(n))
        via = abel_sum(u, lambda k: gt[k])
        assert abs(via - direct) <= 1e-12 * max(1.0, abs(direct))


def test_abel_alternating_harmonic():
    u = np.array([(-1.0) ** n for n in range(1, 1001)])
    direct = sum(u[n - 1] / n for n in range(1, 1001))
    via = abel_sum(u, lambda n: 1.0 / n)
    assert via == pytest.approx(direct, rel=1e-12)


def test_abel_empty_range():
    with pytest.raises(EmptyRangeError):
        abel_sum([], lambda n: 1.0)


# ---------------------------------------------------------------------------
# single-point phase sums
# ---------------------------------------------------------------------------

def test_single_phase_identity_collapse(phident):
    # integer phase: every term is 1, so the sum is the term count
    r = single_phase_sum(phident, 64, 0, 0.0, 1, 0, 0)
    assert r.actual == pytest.approx(224.0 + 0.0j, abs=1e-9)
    assert r.actual_abs <= (256 - 32) + 1


def test_single_phase_bound_scaling(phi105):
    r1 = single_phase_sum(phi105, 1 << 12, 0, 0.0, 1, 0, 0)
    r4 = single_phase_sum(phi105, 1 << 12, 0, 0.0, 4, 0, 0)
    assert r4.bound == pytest.approx(2.0 * r1.bound, rel=1e-12)


def test_single_phase_conjugation_exact(phi105):
    # negating alpha and m negates every phase, conjugating the sum exactly
    r_pos = single_phase_sum(phi105, 1 << 10, 3, 0.3, 2, 1, 0)
    r_neg = single_phase_sum(phi105, 1 << 10, 3, -0.3, -2, 1, 0)
    assert r_neg.actual == r_pos.actual.conjugate()


def test_two_phase_conjugation_exact(phi105):
    n = 1 << 10
    x = int(math.ceil(float(phi105.value(float(n)))))
    r_pos = two_phase_sum(phi105, n, x, 0.3, 2, 3, 1.0)
    r_neg = two_phase_sum(phi105, n, x, -0.3, -2, -3, 1.0)
    assert r_neg.actual == r_pos.actual.conjugate()


def test_single_phase_trivial_bound(phi105):
    for m in (1, 3):
        r = single_phase_sum(phi105, 1 << 10, 0, 0.37, m, 0, 0)
        n_terms = (1 << 12) - (1 << 9)
        assert r.actual_abs <= n_terms + 1


def test_single_phase_validation(phi105):
    with pytest.raises(ValidationError):
        single_phase_sum(phi105, 64, 0, 0.0, 0, 0, 0)
    with pytest.raises(ValidationError):
        single_phase_sum(phi105, 64, 0, 0.0, 1, 2, 0)
    with pytest.raises(EmptyRangeError):
        single_phase_sum(phi105, 64, -300, 0.0, 1, 0, 0)


# ---------------------------------------------------------------------------
# two-point phase sums
# ---------------------------------------------------------------------------

def test_two_phase_identity_collapse(phident):
    # phi(n) - phi(n + x) = -x: constant phase of unit modulus
    n, x = 64, 70
    r = two_phase_sum(phident, n, x, 0.0, 1, -1, 1.0)
    n1 = max(n / 2, n / 2 - x)
    n2 = min(4 * n, 4 * n - x)
    count = math.floor(n2) - math.floor(n1)
    assert r.actual_abs == pytest.approx(count, rel=1e-12)


def test_two_phase_precondition(phi105):
    n = 1 << 12
    with pytest.raises(PreconditionError):
        two_phase_sum(phi105, n, 1, 0.0, 1, 1, 1.0)


def test_two_phase_terms_are_slices_of_one_inversion(philog, monkeypatch):
    n = 1 << 12
    x = int(math.ceil(float(philog.value(float(n)))))
    alphas = (0.0, 0.3)
    phase = _two_setup(philog, n, x, 2, -3, 1.0)
    # the leaves invert the union lo..hi + x once, left to right, and both phi
    # terms read it, at offsets 0 and x
    points = []
    value = InverseFunction.value

    def recording(self, y, **kwargs):
        points.append(np.array(y))
        return value(self, y, **kwargs)

    monkeypatch.setattr(InverseFunction, "value", recording)
    got = expsum._phase_sums(phase, alphas)
    monkeypatch.undo()
    union = np.arange(phase.lo, phase.lo + phase.k + x, dtype=float)
    assert np.array_equal(np.concatenate(points), union)
    assert max(p.size for p in points) <= BLOCK
    ns = union[:phase.k]
    for r, alpha in zip(got, alphas):
        t = ns * alpha
        t += 2 * philog.value(ns)
        t += -3 * philog.value(ns + x)
        t *= 2.0 * np.pi
        z = np.zeros(t.size, dtype=complex)
        z.imag = t
        assert bits(r.actual) == bits(chunked_sum(np.exp(z)))
        assert r.params["alpha"] == alpha
    with pytest.raises(ValidationError, match="must be an integer"):
        two_phase_sum(philog, n, x + 0.5, 0.0, 1, 1, 1.0)


def test_two_phase_refuses_a_union_above_the_cap(phi105, monkeypatch):
    # N = 300, x = 100: the window 151..1100 holds 950 points, under the cap,
    # but the phase inverts its union with the shift by x, 151..1200, 1050
    # points; a sweep refuses it before any scale runs
    monkeypatch.setattr(signals, "MAX_SUPPORT", 1000)
    assert expsum._window(300, 100) == (151, 1100)
    with pytest.raises(SignalSizeError, match="two-point union 1050 at N = 300"):
        two_phase_sum(phi105, 300, 100, 0.0, 1, 1, 0.5)
    monkeypatch.setattr(signals, "MAX_SUPPORT", 1050)
    assert two_phase_sum(phi105, 300, 100, 0.0, 1, 1, 0.5).params["N"] == 300
    monkeypatch.setattr(signals, "MAX_SUPPORT", (7 << 8) // 2 - 1)
    with pytest.raises(SignalSizeError, match="two-point union 896 at N = 256"):
        ratio_sweep(phi105, "two", 1, dyadic(8, 8), kappa=0.5)


def test_two_phase_kappa_bound_factor(phi105):
    n = 1 << 12
    phin = float(phi105.value(float(n)))
    x = int(math.ceil(phin))
    r0 = two_phase_sum(phi105, n, x, 0.0, 1, 1, 0.0)
    r1 = two_phase_sum(phi105, n, x, 0.0, 1, 1, 1.0)
    assert r0.bound / r1.bound == pytest.approx(phin ** (1.0 / 3.0), rel=1e-12)


def test_two_phase_bound_scaling_in_m(phi105):
    n = 1 << 12
    x = int(math.ceil(float(phi105.value(float(n)))))
    r1 = two_phase_sum(phi105, n, x, 0.0, 1, 1, 1.0)
    r4 = two_phase_sum(phi105, n, x, 0.0, 4, 4, 1.0)
    assert r4.bound / r1.bound == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# envelope sums over the cutoff window
# ---------------------------------------------------------------------------

def test_min_norm_identity_saturates(phident):
    n = 256
    actual, bound = min_norm_sum(phident, n, 0, 100)
    ns = np.arange(n // 2 + 1, 4 * n)
    expect = float((np.asarray(eta(ns / n)) ** 2).sum())
    assert actual == pytest.approx(expect, rel=1e-12)


def test_min_norm_monotone_in_truncation(phi105):
    n = 1 << 10
    vals = [min_norm_sum(phi105, n, 0, m)[0] for m in (4, 16, 64, 256)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_min_norm_within_bound_sweep(phi105):
    for k in (10, 12, 14):
        n = 1 << k
        actual, bound = min_norm_sum(phi105, n, 0, max(2, int(math.isqrt(n))))
        assert actual <= bound


def test_min_norm_reads_the_cutoff_once_per_point_at_x_0(phi105, monkeypatch):
    # at x = 0 eta(n/N) and eta((n + x)/N) are one array; a shift reads both
    n = 1 << 10
    window = 4 * n - n // 2                 # the integers of (N/2, 4N]
    sizes = []
    real = expsum.eta

    def counting(t, **kwargs):
        sizes.append(np.size(t))
        return real(t, **kwargs)

    monkeypatch.setattr(expsum, "eta", counting)
    min_norm_sum(phi105, n, 0, 32)
    assert sizes == [window]
    sizes.clear()
    min_norm_sum(phi105, n, 3, 32)
    assert sizes == [window - 3] * 2


@pytest.mark.parametrize("n", [63, 64])
def test_window_is_the_integer_points_of_the_cutoff_window(n):
    # lo..hi are floor(N_1) + 1 .. floor(N_2) for (N_1, N_2] =
    # (max(N/2, N/2 - x), min(4N, 4N - x)], here taken in exact rationals;
    # |x| >= 7N/2 empties the window on either side
    empty = 0
    for x in range(-4 * n - 2, 4 * n + 3):
        n1 = max(Fraction(n, 2), Fraction(n, 2) - x)
        n2 = min(4 * n, 4 * n - x)
        assert expsum._window(n, x) == (math.floor(n1) + 1, math.floor(n2))
        empty += math.floor(n2) < math.floor(n1) + 1
    assert empty == 2 * (4 * n + 3 - (7 * n + 1) // 2)
    for x in (-10 ** 400, 10 ** 400):
        lo, hi = expsum._window(n, x)
        assert type(lo) is type(hi) is int and hi < lo


@pytest.mark.parametrize("x", [-10 ** 400, 10 ** 400, -(7 * 256) // 2, 7 * 256 // 2],
                         ids=["-1e400", "1e400", "-7N/2", "7N/2"])
def test_min_norm_sum_of_an_empty_window_forms_no_float_of_x(phi105, x):
    # x = -(7N/2) and 7N/2 empty the window (N/2 - min(x, 0), 4N - max(x, 0)];
    # the sign of its size is taken in integers, so an x past the float range
    # gives the empty sum too, where forming N/2 - x overflowed
    assert min_norm_sum(phi105, 256, x, 4) == min_norm_sum(phi105, 256, 900, 4)
    assert min_norm_sum(phi105, 256, x, 4)[0] == 0.0


# The sweeps keep one window per thread live at once, so a window's sum must
# hold nothing of its length: a phase sum measured 6.2 BLOCK-point float
# buffers at N = 2^16 and 2^18 (229376 and 917504 points), phi.value's stack
# included, and the two-point phase 7.2 beside its x phi values, which the
# offset-0 term reads after the offset-x term; min_norm_sum 8.5.

def test_phase_sum_holds_one_complex_buffer(phi105):
    cap = 20 * 8 * BLOCK
    for n in (1 << 16, 1 << 18):
        assert traced_peak(single_phase_sum, phi105, n, 0, 0.25, 2, 0, 0) <= cap
        x = int(math.ceil(float(phi105.value(float(n)))))
        assert traced_peak(two_phase_sum, phi105, n, x, 0.25, 1, 1, 1.0) \
            <= 8 * x + cap
        # four probes cost one pass: the probes share its buffers
        phase = _single_setup(phi105, n, 0, 2, 0, 0)
        assert traced_peak(expsum._phase_sums, phase, _alpha_probes(phi105, n, 2)) \
            <= cap


@pytest.mark.parametrize("x", [0, 3])
def test_min_norm_sum_holds_two_window_arrays(phi105, x):
    # the summands live in buffers of at most BLOCK points
    assert traced_peak(min_norm_sum, phi105, 1 << 18, x, 512) <= 12 * 8 * BLOCK


# A leaf of a phase sum allocates nothing of its length: phi.value, eta and
# the distance to the nearest integer write into stacks the sum owns.  Fresh
# leaf-length temporaries are trimmed by malloc and faulted in again on every
# leaf: 11.5k and 8.3k minor faults for the two calls below when each leaf
# made its own.  Each call runs in a fresh interpreter, after one warm-up, so
# no other call has moved malloc's thresholds; a 2 MiB array that is kept,
# and so moves none, shows that the faults are counted at all.
FAULT_PROBE = """
import math, resource, sys
import numpy as np
from roughmax import make_growth, min_norm_sum, two_phase_sum

def faults(call):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0, out

touched, kept = faults(lambda: np.ones(1 << 18))
if sys.argv[1] == "min_norm":
    phi = make_growth("pure", 1.05, 1.0).inverse()
    call = lambda: min_norm_sum(phi, 1 << 18, 0, 512)
else:
    phi = make_growth("powerlog", 1.05, 1.0, a=1.0).inverse()
    n = 1 << 16
    x = math.ceil(float(phi.value(float(n))))
    call = lambda: two_phase_sum(phi, n, x, 0.25, 2, 2, 1.0)
call()
print(touched, faults(call)[0])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="minor faults are counted on Linux")
@pytest.mark.parametrize("call", ["min_norm", "two"])
def test_a_lone_phase_sum_faults_no_leaf_in(call):
    env = dict(os.environ, PYTHONPATH=str(Path(expsum.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, call], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    touched, lone = map(int, proc.stdout.split())
    if touched < 256:
        pytest.skip(f"ru_minflt counts {touched} faults for 512 fresh pages")
    assert lone <= 1000


def test_min_norm_validation(phi105):
    with pytest.raises(ValidationError):
        min_norm_sum(phi105, 64, 0, 1)


# ---------------------------------------------------------------------------
# designated sweeps
# ---------------------------------------------------------------------------

def test_ratio_sweep_smoke(phi105):
    res = ratio_sweep(phi105, "single", 1, dyadic(10, 13))
    assert len(res) == 4
    ratios = [r.ratio for r in res]
    assert max(ratios) <= 2.0 * statistics.median(ratios)


def test_ratio_sweep_validation(phi105):
    with pytest.raises(ValidationError):
        ratio_sweep(phi105, "triple", 1, dyadic(10, 12))


@pytest.mark.parametrize("mode", ["single", "two"])
@pytest.mark.parametrize("m", [1, 2])
def test_ratio_sweep_is_the_best_phase_sum_per_scale(phi105, mode, m):
    res = ratio_sweep(phi105, mode, m, dyadic(10, 12))
    assert [r.params["N"] for r in res] == [1 << 10, 1 << 11, 1 << 12]
    for r in res:
        n = r.params["N"]
        if mode == "single":
            sums = [single_phase_sum(phi105, n, 0, al, m, 0, 0)
                    for al in _alpha_probes(phi105, n, m)]
        else:
            x = int(math.ceil(float(phi105.value(float(n)))))
            sums = [two_phase_sum(phi105, n, x, al, m, m, 1.0)
                    for al in _alpha_probes(phi105, n, 2 * m)]
        best = sums[0]
        for s in sums[1:]:
            if s.ratio > best.ratio:
                best = s
        assert (r.actual, r.bound, r.ratio) == (best.actual, best.bound, best.ratio)
        assert r.params == best.params


def test_a_two_point_sweep_whose_separation_empties_the_window_is_refused():
    # with C_h = 0.01, x = ceil(phi(N)) = 15788 at N = 256 is past 7N/2
    phi = make_growth("pure", 1.05, 0.01, x0=200.0).inverse()
    with pytest.raises(EmptyRangeError, match="is empty for N=256, x=15788"):
        ratio_sweep(phi, "two", 1, dyadic(8, 9))


def test_sweeps_do_not_depend_on_workers(phi105):
    # more threads than cores, switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [(ratio_sweep(phi105, "single", 2, dyadic(8, 12), workers=workers),
                 ratio_sweep(phi105, "two", 1, dyadic(8, 12), workers=workers),
                 min_norm_sweep(phi105, 3, None, dyadic(8, 12), workers=workers))
                for workers in (1, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]
    assert runs[0][2] == [min_norm_sum(phi105, 1 << k, 3, math.isqrt(1 << k))
                          for k in range(8, 13)]


def test_a_sweep_past_the_compensated_threshold_is_the_best_phase_sum(phi105):
    # 1835008 points at N = 2^19: each probe's sum is the fsum of its CHUNK
    # partial sums, and the one pass gives each the bits of its own call
    n = 1 << 19
    assert 4 * n - n // 2 > COMPENSATED_THRESHOLD
    (r,) = ratio_sweep(phi105, "single", 1, dyadic(19, 19))
    sums = [single_phase_sum(phi105, n, 0, al, 1, 0, 0)
            for al in _alpha_probes(phi105, n, 1)]
    best = sums[0]
    for s in sums[1:]:
        if s.ratio > best.ratio:
            best = s
    assert bits(r.actual) == bits(best.actual)
    assert (r.bound, r.ratio, r.params) == (best.bound, best.ratio, best.params)


def test_each_window_is_inverted_once(phi105, monkeypatch):
    n = 1 << 12
    single_window = 4 * n - n // 2          # the integers of (N/2, 4N]
    sizes = []
    value = InverseFunction.value

    def counting(self, y, **kwargs):
        sizes.append(np.size(y))
        return value(self, y, **kwargs)

    monkeypatch.setattr(InverseFunction, "value", counting)
    # beyond the window only O(1) scalars: phi(N) and the resonant probe
    ratio_sweep(phi105, "single", 1, dyadic(12, 12))
    assert single_window <= sum(sizes) <= single_window + 4
    sizes.clear()
    # the two-point phase reads phi on (N/2, 4N - x] and on that shifted by
    # x, whose union is the single window, inverted once
    ratio_sweep(phi105, "two", 1, dyadic(12, 12))
    assert single_window <= sum(sizes) <= single_window + 4
