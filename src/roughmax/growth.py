"""Regularly varying growth functions h(x) = C_h * x^c * l(x) and their inverses.

Supported shapes of the slowly varying correction l(x):

* ``pure``        -- l(x) = 1
* ``powerlog``    -- l(x) = log(x)^A
* ``powerexplog`` -- l(x) = exp(A * log(x)^B),  B in (0, 1)
* ``poweriterlog``-- l(x) = log(log(...log(x))), m nested logs

Every correction above is a single "log monomial" coef * prod_j l_j^{e_j}
in the iterated logarithms l_1 = log x, l_{j+1} = log l_j, and that class is
closed under differentiation (d/dx l_j = 1 / (x * l_1 * ... * l_{j-1})).
All derivatives used anywhere in the toolkit are therefore computed in closed
form by a tiny exact term algebra; finite differences appear only in tests.

The logarithmic-derivative corrections

    vartheta(x)   = x h'(x)/h(x) - c          (h side)
    theta(y)      = y phi'(y)/phi(y) - 1/c    (inverse side)

and their higher-order analogues vartheta_i / theta_i drive every identity
check in the toolkit:  x h^(i)(x) = h^(i-1)(x) (c - i + 1 + vartheta_i(x)).

Every correction tabulated (vartheta_1..3, varrho, theta_1..3, sigma, tau) is
a closed form in s_j = x^j vartheta^(j), j = 0..2, each evaluated once per call
with no power of x outside its terms, so none leaves the float range early.

phi = h^-1 is (y / C_h)^gamma, gamma = 1/c, in closed form for a pure power,
and Newton's method from that seed for every other h.

This module alone evaluates h and decides its floors, which are never trusted
to plain float arithmetic.  ``GrowthFunction._floors`` settles any h(m) within
its error bound, 4 (1 + |c log m| + |lam(m)|) ulps, of an integer, and
``InverseFunction._floor_neg`` any phi(p) within max(10 * INVERSE_TOL *
|phi(p)|, 8 ulp) of one, by ``GrowthFunction._sign_at``, the sign of h(r) - y
at the nearest integer r: in exact integers for a pure power whose exponent is
a rational of small denominator, in exact rationals for any pure power at
r = 1 (h(1) = C_h), at MP_DPS digits for every other h; no path has a second
stage.  Only that last path, and ``GrowthFunction.value_mp``, load mpmath, at
their first call, so a command that takes no such floor never imports it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    SequenceOverflowError,
    SingularityError,
    ValidationError,
)
from .util import BLOCK

FloatLike = float | np.ndarray

DENOM_GUARD = 1e-8          # recursion denominators below this raise
VALIDATION_SPAN = 2 ** 20   # h', h'' sampled on [x0, x0 * VALIDATION_SPAN]
VALIDATION_POINTS = 64
MP_DPS = 60                 # working precision of the high-precision path
MP_ZERO_BAND = 1e-40        # |h(r) - y| <= this * y is a 60-digit zero
INVERSE_TOL = 1e-12         # phi(y) stops at |h(x) - y| <= INVERSE_TOL * y
INVERSE_MAX_ITER = 100      # Newton steps before the inversion gives up
# a pure power h = (a/b) x^(p/q) with q up to this has an exact integer sign
# test; past it no m >= 2 below 2^64 is a perfect q-th power, so h(m) is never
# an integer there and the 60-digit test meets no exact hits
EXACT_DENOM_MAX = 64


class Variant(enum.Enum):
    PURE_POWER = "pure"
    POWER_LOG = "powerlog"
    POWER_EXP_LOG = "powerexplog"
    POWER_ITER_LOG = "poweriterlog"


# ---------------------------------------------------------------------------
# log-monomial term algebra
# ---------------------------------------------------------------------------
# A term (coef, xpow, lexp) stands for coef * x**xpow * prod_j l_j**lexp[j].

Terms = tuple


def _differentiate(terms: Terms) -> Terms:
    out: dict = {}

    def add(c, xp, le):
        if c != 0.0:
            key = (xp, le)
            out[key] = out.get(key, 0.0) + c

    for coef, xpow, lexp in terms:
        if xpow != 0:
            add(coef * xpow, xpow - 1, lexp)
        for j, ej in enumerate(lexp):
            if ej != 0:
                le = list(lexp)
                for i in range(j):
                    le[i] -= 1
                le[j] -= 1
                add(coef * ej, xpow - 1, tuple(le))
    return tuple((c, xp, le) for (xp, le), c in out.items() if c != 0.0)


def _iterated_logs(x, depth: int, log=np.log, out=None):
    """[log x, log log x, ...], ``depth`` deep, taken by ``log``; with ``out``,
    one float row (or None) per level, np.log writes each level there."""
    logs = []
    v = x
    for j in range(depth):
        v = log(v) if out is None else log(v, out=out[j])
        logs.append(v)
    return logs


def _check_domain(v, start: float, what: str) -> np.ndarray:
    """v as a float array; refused where below start (less 1e-12) or not finite."""
    v = np.asarray(v, dtype=float)
    if np.any(v < start * (1.0 - 1e-12)) or not np.all(np.isfinite(v)):
        raise DomainError(f"{what} = {start} (min requested: {v.min()})")
    return v


def _eval_terms(terms: Terms, x, logs, out=(None, None, None)) -> np.ndarray:
    """The sum of the nonempty ``terms`` at x, from the first term on; a unit
    exponent is a plain product, with the bits of ``np.power(lv, 1.0)``.  x and
    logs may be mpmath numbers, which numpy raises, multiplies and adds by
    their own operators.

    ``out`` holds three float rows of x's shape, or Nones for fresh arrays:
    the sum lands in the first, the first term is formed there too, every
    later one in the second, and a power of a log in the third.
    """
    total = None
    for coef, xpow, lexp in terms:
        dst = out[0] if total is None else out[1]
        t = coef
        if xpow != 0:
            t = np.multiply(coef, np.power(x, float(xpow), out=dst), out=dst)
        for lv, e in zip(logs, lexp):
            if e != 0:
                f = lv if e == 1 else np.power(lv, float(e), out=out[2])
                t = np.multiply(t, f, out=dst)
        total = t if total is None else np.add(total, t, out=out[0])
    return total


def _packed(values: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``values`` copied to the front of ``row``, as that prefix."""
    row[:values.size] = values
    return row[:values.size]


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFunction:
    """A member of the admissible family, immutable after construction.

    All evaluators are pure, accept scalars or numpy arrays, and are safe
    for unrestricted concurrent use.
    """

    variant: Variant
    c: float
    c_h: float
    a: float | None
    b: float | None
    m: int | None
    x0: float
    # closed-form data derived once: log-correction lam = log l(x), its
    # first three derivatives lam^(j) and the scaled x^j lam^(j), as term tuples
    _lam: Terms = field(repr=False, default=())
    _lam_d: tuple = field(repr=False, default=())
    _lam_s: tuple = field(repr=False, default=())
    _depth: int = field(repr=False, default=0)
    # (p, q, a^q, b^q) for a pure power with c = p/q, q <= EXACT_DENOM_MAX,
    # and C_h = a/b, so h(x) >= y exactly when a^q x^p >= b^q y^q; else None
    _exact: tuple | None = field(repr=False, default=None)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _build(variant, c, c_h, a, b, m, x0) -> "GrowthFunction":
        if variant is Variant.PURE_POWER:
            lam: Terms = ()
        elif variant is Variant.POWER_LOG:
            lam = ((float(a), 0, (0.0, 1.0)),)
        elif variant is Variant.POWER_EXP_LOG:
            lam = ((float(a), 0, (float(b),)),)
        else:
            lam = ((1.0, 0, tuple([0.0] * m + [1.0])),)
        derivs = scaled = ()
        t = lam
        for j in range(1, 4):
            t = _differentiate(t)
            derivs += (t,)
            scaled += (tuple((co, xp + j, le) for co, xp, le in t),)
        # d/dx l_j reads only l_1 .. l_(j-1): no derivative is deeper than lam
        depth = max((len(le) for _, _, le in lam), default=0)
        exact = None
        cf, hf = Fraction(float(c)), Fraction(float(c_h))
        if variant is Variant.PURE_POWER and cf.denominator <= EXACT_DENOM_MAX:
            q = cf.denominator
            exact = (cf.numerator, q, hf.numerator ** q, hf.denominator ** q)
        return GrowthFunction(variant, float(c), float(c_h), a, b, m,
                              float(x0), lam, derivs, scaled, depth, exact)

    # -- evaluation -----------------------------------------------------------

    def _chain(self, x):
        """x checked against the domain, as a float array, and its log chain."""
        x = _check_domain(x, self.x0, "evaluation at x < x0")
        return x, _iterated_logs(x, self._depth)

    def _h(self, x, logs, out=(None,) * 4):
        """h(x) = C_h * exp(c log x + lam(x)) at a checked x, with log x taken
        from the chain when it holds one; a pure power adds no lam, as
        c log x + 0.0 has the bits of c log x.  ``out``: the row of h, then
        the three rows of ``_eval_terms``, or Nones."""
        h, *terms = out
        t = np.multiply(self.c, logs[0] if logs else np.log(x, out=h), out=h)
        if self._lam:
            t = np.add(t, _eval_terms(self._lam, x, logs, terms), out=h)
        return np.multiply(self.c_h, np.exp(t, out=h), out=h)

    def _derivs(self, x, order: int, out=None) -> list:
        """[h, h', ..., h^(order)](x), order = 0..3, from one domain check, one
        log chain and one h: the one evaluator of h and its derivatives.

        With u_k the k-th derivative of log h = log C_h + c log x + lam,
        h' = h u_1, h'' = h (u_1^2 + u_2) and h^(3) = h (u_1^3 + 3 u_1 u_2 +
        u_3).  Integer powers are products: a scalar ``**`` is libm ``pow``
        and an array ``**`` a SIMD loop, so only products give the same bits.

        ``out``, for a 1-D x, is a float stack of at least ``order + 4 +
        depth`` rows of x.size values.  Up to order 1, h^(j) lands in row j
        and every step writes into a row, so the call allocates no array of
        x's size but the domain check's masks; the higher orders, and a call
        without a stack, make fresh arrays.  The steps are the same either
        way, and so are the bits.
        """
        x = _check_domain(x, self.x0, "evaluation at x < x0")
        # the stack's next row at each call, or None without a stack
        take = iter(out[:, :x.size]).__next__ if out is not None else lambda: None
        res = [take() for _ in range(order + 1)]
        logs = _iterated_logs(x, self._depth, out=[take() for _ in range(self._depth)])
        terms = [take() for _ in range(3)]

        def lam(k):
            t = self._lam_d[k]
            return _eval_terms(t, x, logs, terms) if t else 0.0

        if order >= 1:
            u1 = np.add(np.divide(self.c, x, out=res[1]), lam(0), out=res[1])
        h = self._h(x, logs, [res[0]] + terms)
        if order >= 2:
            x2 = x * x
            u2 = -self.c / x2 + lam(1)
            res[2] = h * (u1 * u1 + u2)
        if order >= 3:
            u3 = 2.0 * self.c / (x2 * x) + lam(2)
            res[3] = h * (u1 * u1 * u1 + 3.0 * u1 * u2 + u3)
        if order >= 1:      # last, as u_1 shares the row of h'
            res[1] = np.multiply(h, u1, out=res[1])
        res[0] = h
        return res

    def value(self, x) -> FloatLike:
        """h(x) = C_h * exp(c log x + lam(x))."""
        out = self._derivs(x, 0)[0]
        return float(out) if out.ndim == 0 else out

    def deriv(self, x, order: int) -> FloatLike:
        """h^(order)(x) for order in {0, 1, 2, 3}, in closed form."""
        if order not in (0, 1, 2, 3):
            raise ValidationError(f"derivative order {order} not in 0..3")
        out = self._derivs(x, order)[order]
        return float(out) if out.ndim == 0 else out

    def _vartheta_derivs(self, x, k: int) -> list:
        """[s_0, s_1, s_2][:k + 1] at x, k = 0..2, with s_j = x^j vartheta^(j).

        vartheta = x h'/h - c = x lam', so with L_j = x^j lam^(j) (``_lam_s``)
        s_0 = L_1, s_1 = L_1 + L_2 and s_2 = 2 L_2 + L_3, on one log chain.
        """
        x, logs = self._chain(x)
        L = [_eval_terms(t, x, logs) if t else 0.0 * x for t in self._lam_s[:k + 1]]
        return [L[0]] + [j * L[j - 1] + L[j] for j in range(1, k + 1)]

    def _vartheta_levels(self, dv):
        """Yields vartheta_1..vartheta_i from dv = ``_vartheta_derivs(x, i - 1)``.

        vartheta_1 = vartheta; each next level adds x vartheta'_{prev} over
        the previous denominator alpha_{prev} + vartheta_{prev}, which is
        guarded only once that level is asked for.
        """
        t0 = dv[0]
        yield t0
        if len(dv) > 1:
            s1 = dv[1]
            den1 = self.c + t0
            self._guard(den1, "alpha_1 + vartheta_1")
            t1 = t0 + s1 / den1
            yield t1
        if len(dv) > 2:
            # x d/dx of vartheta_2 = s_1 + (s_1 + s_2)/den1 - s_1^2/den1^2
            x_t1p = s1 + (s1 + dv[2]) / den1 - s1 * s1 / (den1 * den1)
            den2 = (self.c - 1.0) + t1
            self._guard(den2, "alpha_2 + vartheta_2")
            yield t1 + x_t1p / den2

    def vartheta(self, x, i: int) -> FloatLike:
        """vartheta_i(x) in the identity x h^(i) = h^(i-1) (alpha_i + vartheta_i)."""
        if i not in (1, 2, 3):
            raise ValidationError(f"vartheta level {i} not in 1..3")
        *_, out = self._vartheta_levels(self._vartheta_derivs(x, i - 1))
        return float(out) if np.asarray(out).ndim == 0 else out

    @staticmethod
    def _guard(den, name: str):
        if np.any(np.abs(den) < DENOM_GUARD):
            raise SingularityError(f"denominator {name} below {DENOM_GUARD}")

    # -- floors ----------------------------------------------------------------

    def value_mp(self, x):
        """h(x) as an mpmath mpf at MP_DPS digits, by the term algebra of
        ``_h``; settles floors near integers for every h but a rational pure
        power, which ``_exact`` settles in integers, and a pure power at x = 1.
        Imports mpmath on its first call."""
        import mpmath

        with mpmath.workdps(MP_DPS):
            xv = mpmath.mpf(x)
            logs = _iterated_logs(xv, self._depth, mpmath.log)
            t = mpmath.mpf(self.c) * mpmath.log(xv)
            if self._lam:
                t = t + _eval_terms(self._lam, xv, logs)
            return mpmath.mpf(self.c_h) * mpmath.e ** t

    def _sign_at(self, r: int, y: int) -> int:
        """Sign of h(r) - y, for an integer r >= 1 and an integer y >= 0.

        A rational pure power h = (a/b) x^(p/q) is settled exactly, as the sign
        of a^q r^p - b^q y^q in integers, and so is any pure power at r = 1,
        as the sign of C_h - y in rationals, since h(1) = C_h 1^c = C_h.  Any
        other case is settled at MP_DPS digits, with |h(r) - y| below
        MP_ZERO_BAND * y treated as exact zero; only that path imports mpmath.
        """
        if self._exact is not None:
            p, q, aq, bq = self._exact
            d = aq * r ** p - bq * y ** q
        elif r == 1 and self.variant is Variant.PURE_POWER:
            d = Fraction(self.c_h) - y
        else:
            import mpmath

            with mpmath.workdps(MP_DPS):
                s = self.value_mp(r) - y
                if abs(s) <= mpmath.mpf(MP_ZERO_BAND) * max(1, abs(y)):
                    return 0
                return 1 if s > 0 else -1
        return (d > 0) - (d < 0)

    def _floors(self, m: np.ndarray) -> np.ndarray:
        """floor(h(m)) for each integer m, with the floor decided, never guessed.

        The float h(m) = C_h exp(c log m + lam(m)) takes these rounding steps.
        Each product and sum lands within u = 2^-53 of its result, and each
        libm log, exp and pow within e u, where e is twice its worst error in
        ulps: e = 1 if correctly rounded, but numpy's reach 0.60, 0.70 and 0.69
        ulp (e_log = 1.2, e_exp = 1.4, e_pow = 1.4; ``tests/test_seqset.py::
        test_libm_error_fits_the_floor_band`` measures them on the running
        machine).  log m and the scale by c put (e_log + 1) u |c log m| into
        the exponent; lam(m) puts in u (alpha + beta |lam|), with (alpha,
        beta) = (|a| e_log, e_log + 1) for powerlog, (0, b e_log + e_pow + 1)
        for powerexplog and (k e_log, e_log) for k nested logs (iterated logs
        are >= 1 on the domain); the add puts in u (|c log m| + |lam|).  exp
        turns that absolute error into a relative one and adds e_exp u, and
        the scale by C_h adds u.  The relative error of h(m) is thus below
        u ((1 + e_exp + alpha) + (e_log + 2) |c log m| + (beta + 1) |lam|), at
        most 3.75 u (1 + |c log m| + |lam|) for the measured e on the growths
        of the test, so below K u (1 + |c log m| + |lam|) with K = 4; and
        u |h| < spacing(h).  So a float h(m) farther than K (1 + |c log m| +
        |lam(m)|) ulps from every integer has the exact floor, and one within
        that band is settled by ``_sign_at`` against the nearest integer.
        """
        mf = m.astype(float)
        v = np.asarray(self.value(mf), dtype=float)
        # a NaN or an infinity fails the comparison too
        if not v.max() < float(1 << 62):
            raise SequenceOverflowError("h(m) exceeds the 64-bit integer range")
        if self.variant is Variant.PURE_POWER and self.c == 1.0 and self.c_h == 1.0:
            return m.copy()
        floors = v.astype(np.int64)     # h > 0, so truncation is the floor
        r = np.rint(v)
        dist = v - r
        np.abs(dist, out=dist)
        # lam = log(h/C_h) - c log m puts the band below K (1 + 2 |c| log m +
        # |log(h/C_h)|), whose maximum over the m given is one scalar; only the
        # values inside that wider band, taken with v 2^-52 >= spacing(v), pay
        # for the spacing and the per-m logs
        t_max = np.abs(np.log(np.array([v.min(), v.max()]) / self.c_h)).max()
        wide = 4.0 * (1.0 + 2.0 * abs(self.c) * math.log(m.max()) + t_max)
        cand = np.nonzero(dist <= (wide * 2.0 ** -52) * v)[0]
        c_log_m = self.c * np.log(mf[cand])
        lam = np.log(v[cand] / self.c_h) - c_log_m
        band = 4.0 * (1.0 + np.abs(c_log_m) + np.abs(lam)) * np.spacing(v[cand])
        for j in cand[dist[cand] <= band]:
            ri = int(r[j])
            # h(m) >= ri exactly when the sign is >= 0, so the floor is ri
            floors[j] = ri if self._sign_at(int(m[j]), ri) >= 0 else ri - 1
        return floors

    # -- inverse ---------------------------------------------------------------

    def inverse(self) -> "InverseFunction":
        return InverseFunction(self, 1.0 / self.c, float(self.value(self.x0)))


def _default_x0(variant: Variant, a, m) -> float:
    if variant is Variant.PURE_POWER:
        return 1.0
    if variant is Variant.POWER_LOG:     # e^(|a| + 1), inf past the float range
        return max(3.0, math.exp(abs(a) + 1.0)) if abs(a) < 700.0 else math.inf
    if variant is Variant.POWER_EXP_LOG:
        return 3.0
    tower = math.e
    for _ in range(m - 1):
        tower = math.exp(tower)
    return max(3.0, tower * 1.0001)


# an h past the float range is refused by the finiteness checks, not warned of
@np.errstate(over="ignore", invalid="ignore")
def make_growth(variant, c: float, c_h: float = 1.0, *,
                a: float | None = None, b: float | None = None,
                m: int | None = None, x0: float | None = None) -> GrowthFunction:
    """Build and validate a growth function.

    Rejects a c, C_h, a or b that is not finite, exponents outside [1, 2),
    the pure power at c = 1 (its correction vanishes identically, which the
    c = 1 regime forbids), and any x0 where sampled h' or h'' fails to be
    positive on [x0, x0 * 2^20].
    """
    if isinstance(variant, str):
        try:
            variant = Variant(variant.lower())
        except ValueError:
            raise ValidationError(f"unknown variant {variant!r}") from None
    for name, v in (("exponent c", c), ("constant C_h", c_h),
                    ("parameter a", a), ("parameter b", b)):
        if v is not None and not math.isfinite(v):
            raise ValidationError(f"{name} = {v} must be finite")
    if not (1.0 <= c < 2.0):
        raise ValidationError(f"exponent c = {c} outside [1, 2)")
    if c_h <= 0:
        raise ValidationError(f"multiplicative constant C_h = {c_h} must be > 0")
    if variant is Variant.PURE_POWER:
        if c == 1.0:
            raise ValidationError(
                "pure power with c = 1 rejected: the correction would vanish "
                "identically, violating the positivity the c = 1 regime needs")
        a = b = m = None
    elif variant is Variant.POWER_LOG:
        if a is None:
            raise ValidationError("powerlog requires the log exponent a")
        b = m = None
    elif variant is Variant.POWER_EXP_LOG:
        if a is None or b is None:
            raise ValidationError("powerexplog requires parameters a and b")
        if not (0.0 < b < 1.0):
            raise ValidationError(f"powerexplog exponent b = {b} outside (0, 1)")
        m = None
    else:
        if m is None or m != int(m) or not (1 <= int(m) <= 3):
            raise ValidationError(
                "poweriterlog depth m must be an integer in 1..3 "
                "(the domain start for deeper nesting exceeds float range)")
        m = int(m)
        a = b = None

    if x0 is None:
        x0 = _default_x0(variant, a, m)
    if x0 < 1.0 or not math.isfinite(x0 * VALIDATION_SPAN):
        raise ValidationError(f"domain start x0 = {x0} must be >= 1, with x0 * 2^20 finite")

    g = GrowthFunction._build(variant, c, c_h, a, b, m, x0)

    grid = np.exp(np.linspace(math.log(x0), math.log(x0 * VALIDATION_SPAN),
                              VALIDATION_POINTS))
    try:
        h0, h1, h2 = g._derivs(grid, 2)
        dv = g._vartheta_derivs(grid, 2)
        for i, vi in enumerate(g._vartheta_levels(dv), 1):
            if not np.all(np.isfinite(vi)):
                raise ValidationError(
                    f"vartheta_{i} not finite on the validation grid")
    except (DomainError, SingularityError, FloatingPointError) as exc:
        raise ValidationError(f"validation grid evaluation failed: {exc}") from exc
    hx0 = g.value(x0)
    if hx0 < 1.0 - 1e-12:
        raise ValidationError(f"h(x0) = {hx0} < 1; raise x0")
    if not np.all(np.isfinite(h0)):
        raise ValidationError("h overflows on [x0, x0 * 2^20]; shrink the domain")
    if np.any(h1 <= 0):
        raise ValidationError("sampled h' not positive on [x0, x0 * 2^20]")
    if np.any(h2 <= 0):
        raise ValidationError("sampled h'' not positive on [x0, x0 * 2^20]")
    if c == 1.0:
        vt = dv[0]      # vartheta_1 = vartheta
        if np.any(vt <= 0) or np.any(np.diff(vt) > 0):
            raise ValidationError(
                "c = 1 requires a positive, nonincreasing correction vartheta "
                "on the validation grid")
    return g


def identity_growth(c_h: float = 1.0) -> GrowthFunction:
    """The degenerate linear map h(x) = c_h * x, skipping admissibility checks.

    Not a member of the admissible family (h'' = 0); exists because the exact
    identity case collapses most formulas and makes a useful oracle.
    """
    return GrowthFunction._build(Variant.PURE_POWER, 1.0, c_h, None, None, None, 1.0)


# ---------------------------------------------------------------------------
# inverse functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseFunction:
    """Numeric inverse phi of a growth function, phi(h(x)) = x.

    Arrays are solved in blocks of ``util.BLOCK`` points: a pure power by its
    closed form (y / C_h)^gamma, which takes no h, any other h by safeguarded
    Newton steps from that seed in a doubling-expanded bracket, each step one
    fused evaluation of h and h' on the points not yet converged.  Immutable
    and concurrency-safe like its source.
    """

    source: GrowthFunction
    gamma: float
    y0: float

    @property
    def c(self) -> float:
        return self.source.c

    @property
    def rows(self) -> int:
        """Rows of the float stack that ``value`` takes as ``out``: phi, and
        for a Newton path the h, h', log-chain and term rows of each step
        (``GrowthFunction._derivs``) and the y, x, lo and hi of the points not
        yet converged."""
        g = self.source
        return 1 + (5 + g._depth + 4 if g._lam else 0)

    def value(self, y, out=None) -> FloatLike:
        """phi(y): the x >= x0 with |h(x) - y| <= INVERSE_TOL * y.

        ``out``, for a 1-D y, is a float stack of at least ``rows`` rows of
        y.size values: phi lands in its first row and the solve works in the
        others, so the call allocates nothing of y's size but masks and, once
        points converge, arrays of the points left.  Without it the call makes
        the result and one stack of at most ``BLOCK`` columns.  Each point
        follows its own closed form or Newton path, so a point's bits do not
        depend on the array it came in, its position, its block or the stack.
        """
        y = _check_domain(y, self.y0, "inversion at y < y0")
        flat = y.ravel()
        if out is None:
            x = np.empty_like(flat)
            work = np.empty((self.rows - 1, min(flat.size, BLOCK)))
        else:
            x, work = out[0, :flat.size], out[1:]
        for i in range(0, flat.size, BLOCK):
            block = flat[i:i + BLOCK]
            self._solve(block, x[i:i + BLOCK], work[:, :block.size])
        return float(x[0]) if y.ndim == 0 else x.reshape(y.shape)

    @np.errstate(over="ignore", invalid="ignore")
    def _solve(self, y: np.ndarray, x: np.ndarray, work: np.ndarray) -> None:
        """phi on one block, into x, with the rows of ``work`` as its scratch.
        For a pure power the seed is the answer: its residual, at most (2.4 c
        + 4 + 4 c log x) u <= 2845 u, meets the residual test for any finite
        y / C_h.  Elsewhere the seed's one evaluation starts both the bracket
        and the first Newton step; an h that overflows to inf is caught by the
        bracket test and the ``bad`` mask, so numpy does not warn of it.

        The Newton iterates are x itself until a point converges; from then on
        the points left are packed, with their positions ``pos`` in x, into
        the front of their rows, and each one goes to x as it converges.  Each
        step is the one of the whole-array form, so are the bits."""
        g = self.source
        x0 = g.x0
        np.divide(y, g.c_h, out=x)
        x **= self.gamma        # in place, with the bits of ``**``
        np.maximum(x, x0, out=x)
        if not g._lam:
            _check_domain(x, x0, "evaluation at x < x0")
            return
        nd = 5 + g._depth       # the rows of one _derivs(x, 1)
        f1, f2 = work[2], work[3]   # scratch between the evaluations
        ya_row, xa_row, lo, hi = work[nd:nd + 4]
        lo.fill(x0)
        np.copyto(hi, x)
        ha, dha = g._derivs(x, 1, work[:nd])
        # a seed that meets the residual test needs no bracket
        below = np.subtract(ha, y, out=f1) < np.multiply(-INVERSE_TOL, y, out=f2)
        for _ in range(200):
            j = np.flatnonzero(below)
            if j.size == 0:
                break
            hi[j] *= 2.0
            below[j] = g.value(hi[j]) < y[j]
        else:
            raise ConvergenceError("bracket expansion failed",
                                   bracket=(float(lo.min()), float(hi[below].max())))

        pos, ya, xa = None, y, x
        for _ in range(INVERSE_MAX_ITER):
            fa = np.subtract(ha, ya, out=ha)
            # a bracket collapsed to adjacent floats is the correctly rounded
            # root; stop there even if the residual test still fails
            done = np.abs(fa, out=f1) <= np.multiply(INVERSE_TOL, ya, out=f2)
            done |= np.subtract(hi, lo, out=f1) <= np.multiply(
                4.0, np.spacing(hi, out=f2), out=f2)
            if done.any():
                keep = ~done
                if pos is None:     # the converged points hold their roots in x
                    pos = np.flatnonzero(keep)
                else:
                    x[pos[done]] = xa[done]
                    pos = pos[keep]
                if pos.size == 0:
                    return
                rows = (ya_row, xa_row, work[0], work[1], lo, hi)
                ya, xa, fa, dha, lo, hi = (_packed(a[keep], row) for a, row in
                                           zip((ya, xa, fa, dha, lo, hi), rows))
                f1, f2 = work[2, :pos.size], work[3, :pos.size]
            above = fa > 0
            np.copyto(hi, xa, where=above)
            np.copyto(lo, xa, where=~above)
            xn = np.subtract(xa, np.divide(fa, dha, out=f1), out=f1)
            bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
            np.copyto(xa, xn)
            np.copyto(xa, np.multiply(0.5, np.add(lo, hi, out=f2), out=f2), where=bad)
            ha, dha = g._derivs(xa, 1, work[:nd])
        raise ConvergenceError(
            f"inversion did not converge in {INVERSE_MAX_ITER} iterations",
            bracket=(float(lo.min()), float(hi.max())))

    __call__ = value

    def _floor_neg(self, p: np.ndarray) -> np.ndarray:
        """floor(-phi(p)) for each integer p, decided, never guessed.

        phi is inverted once; a value x within max(10 * INVERSE_TOL * |x|,
        8 ulp) of an integer r is settled by the sign of h(r) - p.
        """
        x = np.asarray(self.value(p.astype(float)), dtype=float)
        r = np.rint(x)
        band = np.maximum(10.0 * INVERSE_TOL * np.abs(x), 8.0 * np.spacing(np.abs(x)))
        out = -np.ceil(x).astype(np.int64)
        for j in np.nonzero(np.abs(x - r) <= band)[0]:
            rj = int(r[j])
            # h(r) < p puts phi(p) past r, so the ceiling is r + 1; else r
            out[j] = -(rj + 1) if self.source._sign_at(rj, int(p[j])) < 0 else -rj
        return out

    def deriv(self, y, order: int) -> FloatLike:
        """phi'(y) = 1/h'(phi) or phi''(y) = -h''(phi)/h'(phi)^3."""
        if order not in (1, 2):
            raise ValidationError(f"inverse derivative order {order} not in 1..2")
        d = self.source._derivs(self.value(y), order)
        out = 1.0 / d[1] if order == 1 else -d[2] / (d[1] * d[1] * d[1])
        return float(out) if out.ndim == 0 else out

    def theta(self, y, i: int) -> FloatLike:
        """theta_i(y) in the identity y phi^(i) = phi^(i-1) (beta_i + theta_i)."""
        if i not in (1, 2, 3):
            raise ValidationError(f"theta level {i} not in 1..3")
        *_, out = self._thetas(self.source._vartheta_derivs(self.value(y), i - 1))
        return float(out) if np.asarray(out).ndim == 0 else out

    def _thetas(self, dv) -> list:
        """[theta_1..theta_i] at y from dv = ``_vartheta_derivs(phi(y), i - 1)``.

        Closed forms in d = c + vartheta and s_j = u^j vartheta^(j) at u = phi(y),
        powers taken as products (see ``GrowthFunction.deriv``), so a scalar y
        gives the bits of its array element; only the levels asked for are guarded:

            theta_1 = 1/d - gamma
            theta_2 = theta_1 - s_1 / d^2
            theta_3 = theta_2 - (s_2 + 2 s_1) / (d^2 - d^3 - s_1 d)
                              + 2 s_1^2 / (d^3 - d^4 - s_1 d^2)
        """
        d = self.c + dv[0]
        GrowthFunction._guard(d, "c + vartheta(phi)")
        d2 = d * d
        out = [1.0 / d - self.gamma]
        if len(dv) > 1:
            s1 = dv[1]
            out.append(out[0] - s1 / d2)
        if len(dv) > 2:
            d3 = d2 * d
            den1 = d2 - d3 - s1 * d
            den2 = d3 - d3 * d - s1 * d2
            GrowthFunction._guard(den1, "theta_3 denominator")
            GrowthFunction._guard(den2, "theta_3 denominator")
            out.append(out[1] - (dv[2] + 2.0 * s1) / den1 + 2.0 * s1 * s1 / den2)
        return out

    # -- c = 1 regime -----------------------------------------------------------

    def _tau(self, dv):
        """tau at y from dv = [vartheta, u vartheta', ...] at u = phi(y):
        -(1/d + s_1 / (vartheta d^2)) with d = 1 + vartheta."""
        vt, s1 = dv[0], dv[1]
        GrowthFunction._guard(vt, "vartheta(phi)")
        d = self.c + vt
        GrowthFunction._guard(d, "1 + vartheta(phi)")
        return -(1.0 / d + s1 / (vt * d * d))


# ---------------------------------------------------------------------------
# diagnostic report over a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AuxFunctionReport:
    """Correction functions tabulated on a grid, for decay diagnostics.

    ``grid`` carries y-values and ``phi_values`` their inverses x = phi(y),
    found by one inversion of the grid; vartheta columns are evaluated at x
    so that both families share one abscissa.  sigma/tau/varrho are filled
    only in the c = 1 regime and empty otherwise.
    """

    grid: np.ndarray
    phi_values: np.ndarray
    vartheta_values: tuple  # (vt1, vt2, vt3) arrays
    theta_values: tuple     # (th1, th2, th3) arrays
    sigma_values: np.ndarray
    tau_values: np.ndarray
    varrho_values: np.ndarray


def build_aux_report(phi: InverseFunction, grid) -> AuxFunctionReport:
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("report grid must be strictly increasing")
    g = phi.source
    u = np.asarray(phi.value(grid), dtype=float)
    dv = g._vartheta_derivs(u, 2)
    vt = tuple(g._vartheta_levels(dv))
    th = tuple(phi._thetas(dv))
    if g.c == 1.0:
        sig = vt[0]     # sigma(y) = vartheta(phi(y), 1)
        tau = phi._tau(dv)      # refuses a vartheta(phi) below DENOM_GUARD
        rho = vt[1] / vt[0]     # varrho = vartheta_2 / vartheta
    else:
        sig = tau = rho = np.empty(0)
    return AuxFunctionReport(grid, u, vt, th, sig, tau, rho)
