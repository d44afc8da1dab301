"""Growth functions, inverses, and the correction-function identities.

Derived expectations are checked against independent oracles: plain bisection
for inversion, central finite differences for derivatives, and arbitrary
precision evaluation for point values.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from roughmax import (
    ConvergenceError,
    DomainError,
    SingularityError,
    ValidationError,
    build_aux_report,
    contains_via_inverse_batch,
    identity_growth,
    make_growth,
)
from roughmax import growth
from roughmax.cli import parse_growth_spec
from roughmax.growth import INVERSE_MAX_ITER, INVERSE_TOL, GrowthFunction
from roughmax.util import CHUNK


def bisect_inverse(g, y, tol=1e-14, lo=None, hi=None):
    """Independent inversion oracle: plain bisection to relative tol."""
    lo = g.x0 if lo is None else lo
    hi = 2.0 * g.x0 if hi is None else hi
    while g.value(hi) < y:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g.value(mid) < y:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= tol * lo:
            break
    return 0.5 * (lo + hi)


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def whole_array_inverse(phi, y):
    """Reference inverse: the same Newton path per point, but every bracket
    and Newton step evaluated on the whole array, done points included."""
    g = phi.source
    x0 = g.x0
    x = np.maximum((y / g.c_h) ** phi.gamma, x0)
    lo = np.full_like(y, x0)
    hi = np.maximum(x, x0)
    while True:
        mask = g.value(hi) < y
        if not mask.any():
            break
        hi = np.where(mask, hi * 2.0, hi)
    x = np.clip(x, lo, hi)
    for _ in range(INVERSE_MAX_ITER):
        fx = g.value(x) - y
        done = (np.abs(fx) <= INVERSE_TOL * y) | (hi - lo <= 4.0 * np.spacing(hi))
        if done.all():
            return np.maximum(x, x0)
        above = fx > 0
        hi = np.where(above & ~done, x, hi)
        lo = np.where(~above & ~done, x, lo)
        xn = x - fx / g.deriv(x, 1)
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        x = np.where(done, x, np.where(bad, 0.5 * (lo + hi), xn))
    raise AssertionError("reference inverse did not converge")


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_pure_power_accepted_and_exact():
    g = make_growth("pure", 1.5, 1.0, x0=1.0)
    assert g.value(4.0) == pytest.approx(8.0, rel=1e-14)


def test_powerlog_value_matches_high_precision_reference():
    g = make_growth("powerlog", 1.02, 1.0, a=1.0, x0=3.0)
    with mpmath.workdps(50):
        ref = float(mpmath.mpf(10) ** mpmath.mpf(1.02) * mpmath.log(10))
    assert g.value(10.0) == pytest.approx(ref, rel=1e-14)


def test_negative_log_power_at_c1_rejected():
    # symbolic second-derivative sign: h = x / log x has h'' < 0 past e^2
    with pytest.raises(ValidationError):
        make_growth("powerlog", 1.0, 1.0, a=-1.0, x0=2.0)


@pytest.mark.parametrize("kwargs", [
    dict(variant="pure", c=2.5),
    dict(variant="pure", c=0.9),
    dict(variant="pure", c=1.0),
    dict(variant="powerexplog", c=1.1, a=1.0, b=1.5),
    dict(variant="poweriterlog", c=1.1, m=7),
    dict(variant="powerlog", c=1.1),          # missing parameter
    dict(variant="nosuch", c=1.1),
])
def test_rejections(kwargs):
    variant = kwargs.pop("variant")
    c = kwargs.pop("c")
    with pytest.raises(ValidationError):
        make_growth(variant, c, 1.0, **kwargs)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field,kwargs", [
    ("exponent c", lambda v: dict(variant="pure", c=v)),
    ("constant C_h", lambda v: dict(variant="pure", c=1.5, c_h=v)),
    ("parameter a", lambda v: dict(variant="powerlog", c=1.05, a=v)),
    ("parameter a", lambda v: dict(variant="powerexplog", c=1.05, a=v, b=0.5)),
    ("parameter b", lambda v: dict(variant="powerexplog", c=1.05, a=1.0, b=v)),
], ids=["c", "C_h", "powerlog-a", "powerexplog-a", "b"])
def test_a_non_finite_constant_is_refused_before_the_build(monkeypatch, field,
                                                          kwargs, value):
    def build(*args):
        raise AssertionError("_build reached")

    monkeypatch.setattr(GrowthFunction, "_build", staticmethod(build))
    with pytest.raises(ValidationError, match=f"^{field} = {value} must be finite$"):
        make_growth(**kwargs(value))


def test_c1_powerlog_positive_correction_accepted():
    g = make_growth("powerlog", 1.0, 1.0, a=1.0)
    x = np.array([10.0, 100.0, 1e6])
    assert np.all(np.asarray(g.deriv(x, 2)) > 0)


def test_iterlog_depth_one_equals_powerlog():
    gi = make_growth("poweriterlog", 1.05, 1.0, m=1, x0=3.0)
    gl = make_growth("powerlog", 1.05, 1.0, a=1.0, x0=3.0)
    xs = np.array([3.0, 10.0, 1e4])
    assert np.allclose(gi.value(xs), gl.value(xs), rtol=1e-15)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_pure_power_first_derivative_exact(g15):
    assert g15.deriv(4.0, 1) == pytest.approx(3.0, rel=1e-14)
    assert g15.deriv(4.0, 0) == pytest.approx(8.0, rel=1e-14)


def test_second_derivative_matches_finite_difference(glog):
    fd = central_diff(lambda x: glog.deriv(x, 1), 100.0, 1e-3)
    assert glog.deriv(100.0, 2) == pytest.approx(fd, rel=1e-6)


def test_third_derivative_matches_finite_difference(glog):
    fd = central_diff(lambda x: glog.deriv(x, 2), 50.0, 1e-3)
    assert glog.deriv(50.0, 3) == pytest.approx(fd, rel=1e-6)


def test_derivative_domain_and_order_errors(g15):
    with pytest.raises(DomainError):
        g15.deriv(0.5, 1)
    with pytest.raises(ValidationError):
        g15.deriv(4.0, 4)


# ---------------------------------------------------------------------------
# correction functions
# ---------------------------------------------------------------------------

def test_vartheta_vanishes_for_pure_power(g15):
    assert g15.vartheta(10.0, 1) == 0.0
    assert g15.vartheta(10.0, 3) == 0.0


def test_vartheta_symbolic_value(glog):
    # for x^c log^A x the correction is A / log x
    assert glog.vartheta(math.e ** 2, 1) == pytest.approx(0.5, rel=1e-13)


def test_vartheta_level3_small_and_decaying(glog):
    v1 = abs(glog.vartheta(1e6, 1))
    v3 = abs(glog.vartheta(1e6, 3))
    assert v3 < 10.0 * v1
    grid = 2.0 ** np.arange(10, 40, 2)
    v3s = np.abs(np.asarray(glog.vartheta(grid, 3)))
    assert np.all(np.diff(v3s) < 0)   # decays toward zero along the dyadic grid


def test_vartheta_recursion_identity(glog):
    # x h^(i) = h^(i-1) (c - i + 1 + vartheta_i), checked at 1e-9
    xs = np.exp(np.linspace(math.log(5.0), math.log(2.0 ** 30), 200))
    for i in (1, 2, 3):
        lhs = xs * np.asarray(glog.deriv(xs, i))
        rhs = np.asarray(glog.deriv(xs, i - 1)) * (1.02 - i + 1 + np.asarray(glog.vartheta(xs, i)))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-9


def test_vartheta_fd_consistency(glog):
    # the scaled derivatives x vartheta' and x^2 vartheta'' of the correction
    # match x and x^2 times finite differences of vartheta and of vartheta'
    for x in (30.0, 1e3, 1e7):
        vt, s1, s2 = glog._vartheta_derivs(x, 2)
        fd = central_diff(lambda t: glog._vartheta_derivs(t, 0)[0], x, x * 1e-6)
        assert s1 == pytest.approx(x * fd, rel=1e-7)
        fd2 = central_diff(lambda t: glog._vartheta_derivs(t, 1)[1] / t, x, x * 1e-6)
        assert s2 == pytest.approx(x * x * fd2, rel=1e-6)
        assert vt == glog.vartheta(x, 1)


@pytest.mark.parametrize("c, a", [(1.05, 1.0), (1.5, 2.0)])
def test_second_levels_match_their_closed_forms_far_out(c, a):
    # powerlog h = x^c (log x)^a at u = phi(y), L = log u, d = c + a/L:
    # vartheta_2 = a/L - a/(L^2 d) and theta_2 = 1/d - 1/c + (a/L^2)/d^2.
    # Products of x with lam'' ~ x^-2 once left the float range past
    # x ~ 1e154, and these levels were off by 0.67..1.0 relative there
    g = make_growth("powerlog", c, 1.0, a=a)
    phi = g.inverse()
    for k in (600, 800, 1000):
        y = 2.0 ** k
        u = phi.value(y)
        L = math.log(u)
        d = c + a / L
        assert g.vartheta(u, 2) == pytest.approx(a / L - a / (L * L * d), rel=1e-14)
        assert phi.theta(y, 2) == pytest.approx(
            1.0 / d - 1.0 / c + (a / (L * L)) / (d * d), rel=1e-14)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_exact_pure_power(phi15):
    assert phi15.value(8.0) == pytest.approx(4.0, rel=1e-14)


def test_invert_boundary_fixed_point(philog, glog):
    assert philog.value(philog.y0) == pytest.approx(glog.x0, rel=1e-10)


def test_invert_matches_bisection_oracle(glog, philog):
    ref = bisect_inverse(glog, 1000.0)
    x = philog.value(1000.0)
    assert x == pytest.approx(ref, rel=1e-11)
    assert abs(glog.value(x) - 1000.0) / 1000.0 <= 1e-9


def test_invert_domain_error(philog):
    with pytest.raises(DomainError):
        philog.value(philog.y0 * 0.5)


def test_roundtrip_tight_over_wide_grid(glog, philog):
    ys = np.exp(np.linspace(math.log(philog.y0), math.log(2.0 ** 30), 1000))
    xs = np.asarray(philog.value(ys))
    assert np.max(np.abs(np.asarray(glog.value(xs)) - ys) / ys) <= 1e-10
    assert np.all(np.diff(xs) > 0)


INVERSE_SPECS = {
    "pure": ("pure", 1.5, {}),
    "powerlog": ("powerlog", 1.02, dict(a=1.0)),
    "powerexplog": ("powerexplog", 1.05, dict(a=1.0, b=0.5)),
    "poweriterlog": ("poweriterlog", 1.02, dict(m=2)),
}


@pytest.mark.parametrize("name", sorted(INVERSE_SPECS))
def test_blocked_inverse_is_bit_identical_per_point(name):
    variant, c, kw = INVERSE_SPECS[name]
    phi = make_growth(variant, c, 1.0, **kw).inverse()
    # two blocks, from y0 (where the bracket collapses) to 2^40
    y = np.geomspace(phi.y0, 2.0 ** 40, CHUNK + 37)
    x = phi.value(y)
    assert np.array_equal(x.view(np.int64), whole_array_inverse(phi, y).view(np.int64))
    idx = np.unique(np.r_[0:8, CHUNK - 16:CHUNK + 37, 0:y.size:251])
    scalar = np.array([phi.value(float(t)) for t in y[idx]])
    assert np.array_equal(scalar.view(np.int64), x[idx].view(np.int64))
    assert np.array_equal(phi.value(y.reshape(-1, 1)).ravel().view(np.int64),
                          x.view(np.int64))


SHAPE_SPECS = ("pure:1.5:1.0", "powerlog:1.02:1.0:1.0", "powerlog:1.0:1.0:1.0",
               "powerexplog:1.05:1.0:1.0:0.5", "poweriterlog:1.02:1.0:2")


@pytest.mark.parametrize("spec", SHAPE_SPECS)
def test_a_scalar_call_gives_the_bits_of_its_array_element(spec):
    g = parse_growth_spec(spec)
    phi = g.inverse()
    y = np.geomspace(phi.y0, 2.0 ** 40, 160)
    u = phi.value(y)
    # (evaluation, its abscissa): vartheta and h take u = phi(y), theta and phi' take y
    evaluations = {f"theta{i}": (lambda t, i=i: phi.theta(t, i), y) for i in (1, 2, 3)}
    evaluations.update({f"vartheta{i}": (lambda x, i=i: g.vartheta(x, i), u)
                        for i in (1, 2, 3)})
    evaluations.update({f"h^({k})": (lambda x, k=k: g.deriv(x, k), u)
                        for k in (0, 1, 2, 3)})
    evaluations.update({f"phi^({k})": (lambda t, k=k: phi.deriv(t, k), y)
                        for k in (1, 2)})
    for label, (f, xs) in evaluations.items():
        whole = np.asarray(f(xs), dtype=float)
        each = np.array([f(float(x)) for x in xs])
        moved = np.flatnonzero(whole.view(np.int64) != each.view(np.int64))
        assert moved.size == 0, (label, moved)


# sha256 prefixes of h, h', h'', h''' on a grid from x0 to 2^40, of phi on a
# two-block grid from y0 to 2^40, and of the inverse membership test on an
# unsorted p with gaps, repeats and contiguous runs; every evaluation of the
# numeric core is held to these bits
EVALUATION_PINNED = {
    "pure:1.5:1.0": (
        "ba68a2f6f7eb1c06", "3b62b62f06181f85", "f0dabf54206525a2",
        "58ea4e150f4f3788", "994f60dfb79766fe", "1e4657eb265700f5"),
    "powerlog:1.02:1.0:1.0": (
        "6aadd367424e12a5", "42a9ed73ba019e16", "954afbba7cb410a6",
        "0b297cacd71c47f3", "7e454e1a79c9da27", "5d1f144e8ec4ab89"),
    "powerlog:1.0:1.0:1.0": (
        "adf74174315fcc90", "79ae30a79f0ef0fc", "df4cc190754dafff",
        "ec2755c0a0614d91", "e6a79e7fc2e7d3cb", "6f0af86f24ae5bbc"),
    "powerexplog:1.05:1.0:1.0:0.5": (
        "f0c794e68c8b2924", "705296d84cb30e85", "3c782e85e9232064",
        "74ee94581f679302", "a02c98681de6fbae", "fbd74e249c243283"),
    "poweriterlog:1.02:1.0:2": (
        "1c8fe3d2f300349b", "67fe9f3180dfe2a9", "1c318485fe85c34a",
        "65d36c1799318e4d", "b306c7bd705b2f63", "b2d4e20214efbc41"),
}

PINNED_P = np.concatenate([
    np.arange(1200, 1000, -1),              # descending: no p + 1 follows its p
    np.arange(40_000, 40_300),              # one contiguous run
    (np.arange(1, 400) * 7919) % 100_003 + 100,
    [500, 500, 501, 2 ** 39, 2 ** 39 + 1, 2 ** 39 - 1, 777, 776, 778, 779],
]).astype(np.int64)


def _evaluation_digests(spec):
    g = parse_growth_spec(spec)
    phi = g.inverse()
    x = np.geomspace(g.x0, 2.0 ** 40, 4099)
    y = np.geomspace(phi.y0, 2.0 ** 40, CHUNK + 37)
    arrays = [g.value(x)] + [g.deriv(x, k) for k in (1, 2, 3)]
    arrays += [phi.value(y), contains_via_inverse_batch(phi, PINNED_P)]
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
                 for a in arrays)


@pytest.mark.parametrize("spec", sorted(EVALUATION_PINNED))
def test_evaluations_keep_their_pinned_bits(spec):
    assert _evaluation_digests(spec) == EVALUATION_PINNED[spec]


# sha256 prefixes of the evaluators that EVALUATION_PINNED leaves out, on a
# grid from x0 (or y0) to 2^40: h^(0), vartheta_1..3, phi', phi'', theta_1..3,
# and last the exact mantissas and exponents of value_mp at EVALUATOR_MP_POINTS
EVALUATOR_PINNED = {
    "pure:1.5:1.0": (
        "82defb0093a60f3a", "f29d13100289cc0a", "f29d13100289cc0a",
        "f29d13100289cc0a", "20bf3812cf60cbb1", "1bb7bffed0f45860",
        "f29d13100289cc0a", "f29d13100289cc0a", "f29d13100289cc0a",
        "fb78ffb5dc0171dc"),
    "powerlog:1.02:1.0:1.0": (
        "23e5d8830aaf1e87", "23fc2173cc72a876", "4329c4162436d5cc",
        "7205d4ca46aa3ac6", "e8d7b3fa9d7739d8", "a548f243b880826e",
        "a9c41f179d128d28", "2ef63f5d14fd9b5a", "1d88fbdbe44149bb",
        "4c9ecde33cd5b287"),
    "powerexplog:1.05:1.0:1.0:0.5": (
        "624b3ba8eafb1ade", "664774e7b525c3a3", "e76a99e5c34932ac",
        "d8ee3ddbed195857", "c4d31bef19bf3f9d", "d9e0b9f91a9663bd",
        "2b3f14e492ae38a4", "3f4dfb2ba0de6e66", "ef6dc225bf39336b",
        "d68ff47f6c44d8b2"),
    "poweriterlog:1.02:1.0:2": (
        "2e2fd6e5b00e0fb0", "9e14d76a5ef06530", "b93ab25ce1213d61",
        "60afe777c0a0d0c2", "805907a3939f1d4c", "38969c2feedf961f",
        "8e4053aadfd63730", "b3fc400d9df01512", "9755477f7d547e10",
        "714ebe0c15656c5f"),
}
EVALUATOR_MP_POINTS = (17, 1000, 3 ** 20, 2 ** 40 + 1)


def _evaluator_digests(spec):
    g = parse_growth_spec(spec)
    phi = g.inverse()
    x = np.geomspace(g.x0, 2.0 ** 40, 1031)
    y = np.geomspace(phi.y0, 2.0 ** 40, 1031)
    arrays = [g.deriv(x, 0)] + [g.vartheta(x, i) for i in (1, 2, 3)]
    arrays += [phi.deriv(y, k) for k in (1, 2)] + [phi.theta(y, i) for i in (1, 2, 3)]
    out = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
           for a in arrays]
    mp = repr([g.value_mp(m)._mpf_ for m in EVALUATOR_MP_POINTS]).encode()
    return (*out, hashlib.sha256(mp).hexdigest()[:16])


@pytest.mark.parametrize("spec", sorted(EVALUATOR_PINNED))
def test_every_evaluator_keeps_its_pinned_bits(spec):
    assert _evaluator_digests(spec) == EVALUATOR_PINNED[spec]


def test_pure_inverse_takes_one_h_point_per_y(phi15, monkeypatch):
    calls = {"value": 0, "deriv": 0}
    value, deriv = GrowthFunction.value, GrowthFunction.deriv

    def counting_value(self, x):
        calls["value"] += np.size(x)
        return value(self, x)

    def counting_deriv(self, x, order):
        calls["deriv"] += 1
        return deriv(self, x, order)

    monkeypatch.setattr(GrowthFunction, "value", counting_value)
    monkeypatch.setattr(GrowthFunction, "deriv", counting_deriv)
    y = np.geomspace(1.0, 2.0 ** 50, CHUNK + 37)
    phi15.value(y)
    phi15.value(1.0)
    assert calls == {"value": y.size + 1, "deriv": 0}


def test_each_newton_step_evaluates_h_once(philog, monkeypatch):
    calls = {"_h": 0, "value": 0, "deriv": 0, "_derivs": 0}

    def counting(name):
        method = getattr(GrowthFunction, name)

        def wrapped(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(GrowthFunction, name, counting(name))
    # one block, whose seeds miss: h(x) = x^1.02 log x is not a pure power
    y = np.geomspace(philog.y0, 2.0 ** 40, 1000)
    philog.value(y)
    # the seed and each bracket doubling are one value call, each Newton
    # step one fused h/h' call, and nothing else evaluates h: here no seed
    # falls below its y, and six steps take 7 h evaluations (11 when each
    # step called value and deriv), each through one _derivs call
    assert calls == {"_h": 7, "value": 1, "deriv": 0, "_derivs": 7}


def test_convergence_error_brackets_only_the_unconverged(monkeypatch):
    # h = x^1.5 / log x: at y0 the seed falls below x0 = e^2, so phi(y0) = x0
    # passes the residual test at once; at 1e6 h(seed) < y, so one Newton
    # step leaves that point with lo = seed > x0
    g = make_growth("powerlog", 1.5, 1.0, a=-1.0)
    phi = g.inverse()
    far = 1e6
    seed = (far / g.c_h) ** phi.gamma
    assert g.value(seed) < far
    monkeypatch.setattr(growth, "INVERSE_MAX_ITER", 1)
    assert phi.value(phi.y0) == g.x0
    with pytest.raises(ConvergenceError, match="did not converge in 1 iterations") as alone:
        phi.value(np.array([far]))
    with pytest.raises(ConvergenceError) as mixed:
        phi.value(np.array([phi.y0, far, phi.y0]))
    assert alone.value.bracket[0] == seed
    assert mixed.value.bracket == alone.value.bracket


# ---------------------------------------------------------------------------
# inverse derivatives and their corrections
# ---------------------------------------------------------------------------

def test_phi_deriv_closed_forms(phi15):
    assert phi15.deriv(8.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-13)
    # closed-form oracle: gamma (gamma - 1) y^(gamma - 2) at gamma = 2/3
    assert phi15.deriv(8.0, 2) == pytest.approx(-1.0 / 72.0, rel=1e-12)


def test_phi_second_deriv_matches_finite_difference(philog):
    y = 1e4
    fd = central_diff(lambda t: philog.deriv(t, 1), y, y * 1e-5)
    assert philog.deriv(y, 2) == pytest.approx(fd, rel=1e-6)


def test_theta_zero_for_pure_power(phi15):
    assert phi15.theta(100.0, 1) == 0.0
    assert phi15.theta(100.0, 3) == 0.0


def test_theta1_symbolic_cross_check(glog, philog):
    # theta = -vartheta(phi) / (c (c + vartheta(phi)))
    y = 1e6
    u = philog.value(y)
    vt = glog.vartheta(u, 1)
    expect = -vt / (1.02 * (1.02 + vt))
    assert philog.theta(y, 1) == pytest.approx(expect, rel=1e-10)


def test_theta2_matches_fd_recursion(philog):
    # theta_2 = theta + y theta' / (gamma + theta) with finite-difference theta'
    y = 1e6
    gam = 1.0 / 1.02
    th = philog.theta(y, 1)
    thp = central_diff(lambda t: philog.theta(t, 1), y, y * 1e-5)
    expect = th + y * thp / (gam + th)
    assert philog.theta(y, 2) == pytest.approx(expect, rel=1e-5)


def test_theta3_matches_fd_recursion(philog):
    y = 1e6
    gam = 1.0 / 1.02
    th2 = philog.theta(y, 2)
    th2p = central_diff(lambda t: philog.theta(t, 2), y, y * 1e-5)
    expect = th2 + y * th2p / (gam - 1.0 + th2)
    assert philog.theta(y, 3) == pytest.approx(expect, rel=1e-4)


def test_second_derivative_product_identity(glog, philog):
    # y^2 phi''(y) = phi(y) (gamma + theta_1)(gamma - 1 + theta_2)
    ys = np.exp(np.linspace(math.log(philog.y0 * 2), math.log(2.0 ** 30), 200))
    gam = 1.0 / 1.02
    lhs = ys ** 2 * np.asarray(philog.deriv(ys, 2))
    rhs = np.asarray(philog.value(ys)) * (gam + np.asarray(philog.theta(ys, 1))) \
        * (gam - 1.0 + np.asarray(philog.theta(ys, 2)))
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-8


def test_doubling_ratio_window(philog):
    gam = 1.0 / 1.02
    ys = np.exp(np.linspace(math.log(2.0 ** 15), math.log(2.0 ** 29), 64))
    r = np.asarray(philog.value(2 * ys)) / np.asarray(philog.value(ys))
    assert np.all(r >= 2.0 ** gam * 0.9)
    assert np.all(r <= 2.0 ** gam * 1.1)


# ---------------------------------------------------------------------------
# c = 1 regime and diagnostics report
# ---------------------------------------------------------------------------

def test_c1_sigma_tau_factorization():
    g = make_growth("powerlog", 1.0, 1.0, a=1.0)
    phi = g.inverse()
    ys = np.exp(np.linspace(math.log(phi.y0 * 2), math.log(2.0 ** 28), 100))
    rep = build_aux_report(phi, ys)
    lhs = ys * np.asarray(phi.deriv(ys, 2))
    rhs = np.asarray(phi.deriv(ys, 1)) * rep.sigma_values * rep.tau_values
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-9
    # tau stays in a fixed negative band; varrho is reported raw
    assert np.all(rep.tau_values < 0)
    assert np.all(np.isfinite(rep.varrho_values))


def test_aux_report_decay(philog):
    grid = np.exp(np.linspace(math.log(philog.y0 * 4), math.log(2.0 ** 30), 400))
    rep = build_aux_report(philog, grid)
    # per column, the top decade's largest magnitude is below the bottom one's
    for col in (*rep.vartheta_values, *rep.theta_values):
        mag = np.abs(col)
        assert mag[grid >= grid[-1] / 10].max() < mag[grid <= grid[0] * 10].max()
    assert rep.sigma_values.size == 0 and rep.tau_values.size == 0


def test_aux_report_theta_fd_envelope_decays(philog):
    # |y * theta_i'(y)| by finite differences: top decade below bottom decade
    grid = np.exp(np.linspace(math.log(philog.y0 * 4), math.log(2.0 ** 30), 60))
    for i in (1, 2, 3):
        env = np.array([abs(y * central_diff(lambda t: philog.theta(t, i),
                                             y, y * 1e-5)) for y in grid])
        lo = env[grid <= grid[0] * 10].max()
        hi = env[grid >= grid[-1] / 10].max()
        assert hi < lo


def test_identity_growth_degenerate():
    gi = identity_growth()
    assert gi.value(7.0) == pytest.approx(7.0)
    assert gi.inverse().value(7.0) == pytest.approx(7.0)
    assert gi.vartheta(5.0, 1) == 0.0


def test_singularity_guard():
    # the identity map has vanishing correction, so the c = 1 ratio
    # vartheta_2 / vartheta hits the denominator guard
    with pytest.raises(SingularityError):
        build_aux_report(identity_growth().inverse(), [5.0])
