"""Command-line entry point: experiment orchestration and deterministic output.

Every command writes a table (CSV with a ``#``-prefixed metadata header, or a
JSON mirror) whose bytes depend only on the configuration: floats print with
17 significant digits, metadata keys are sorted, and the worker-count flag is
deliberately excluded from the output so results are reproducible across
parallelism settings.  ``kernel-decomp``, ``verify-family`` and ``expsum``
run their scales on ``--workers`` threads (``util.map_scales``) and collect
the rows in scale order; every other command is sequential.  All reductions
are ordered.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NUMERIC_ERRORS, RoughMaxError, ValidationError
from .ergodic import check_states, cyclic_shift, ergodic_average, weighted_average
from .expsum import min_norm_sweep, ratio_sweep
from .growth import GrowthFunction, Variant, build_aux_report, make_growth
from .kernel import decomposition_reports
from .maximal import (
    build_scale_family,
    cz_decompose,
    default_lambda_grid,
    verify_family_hypotheses,
    weak_type_profile,
)
from .seqset import count, generate
from .signals import Signal, check_size
from .util import CHUNK

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# growth spec grammar
# ---------------------------------------------------------------------------

_VARIANT_ARITY = {
    Variant.PURE_POWER: 0,
    Variant.POWER_LOG: 1,
    Variant.POWER_EXP_LOG: 2,
    Variant.POWER_ITER_LOG: 1,
}


def parse_growth_spec(text: str) -> GrowthFunction:
    """Parse ``variant:c:C_h[:A[:B|:m]]`` into a validated growth function."""
    parts = text.split(":")
    pos = [0]
    for p in parts[:-1]:
        pos.append(pos[-1] + len(p) + 1)

    def fail(i, msg):
        raise ValidationError(f"growth spec {text!r}: {msg} (at position {pos[i]})")

    try:
        variant = Variant(parts[0].lower())
    except ValueError:
        fail(0, f"unknown variant {parts[0]!r}")
    arity = _VARIANT_ARITY[variant]
    if len(parts) != 3 + arity:
        fail(0, f"{variant.value} takes {3 + arity} fields, got {len(parts)}")

    def number(i, name):
        try:
            return float(parts[i])
        except ValueError:
            fail(i, f"{name} is not a number: {parts[i]!r}")

    c = number(1, "exponent c")
    c_h = number(2, "constant C_h")
    kwargs = {}
    if variant is Variant.POWER_LOG:
        kwargs["a"] = number(3, "log exponent A")
    elif variant is Variant.POWER_EXP_LOG:
        kwargs["a"] = number(3, "coefficient A")
        kwargs["b"] = number(4, "exponent B")
    elif variant is Variant.POWER_ITER_LOG:
        try:
            kwargs["m"] = int(parts[3])
        except ValueError:
            fail(3, f"iteration depth m is not an integer: {parts[3]!r}")
    return make_growth(variant, c, c_h, **kwargs)


# ---------------------------------------------------------------------------
# deterministic table output
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (Fraction, str)):
        return str(v)
    return format(float(v), ".17g")


def write_table(path: str, meta: dict, columns: list, rows: list, fmt: str) -> None:
    if fmt == "csv":
        lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "meta": {k: str(meta[k]) for k in sorted(meta)},
            "columns": list(columns),
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# parsed options that never change a table's bytes: the handler, the thread
# count and where the output goes
_NOT_IN_HEADER = ("func", "workers", "out", "emit", "emit_atoms")


def _meta(args, results: dict) -> dict:
    """Every parsed option that shapes the output, the package version, and
    the command's own results."""
    meta = {k: v for k, v in vars(args).items() if k not in _NOT_IN_HEADER}
    meta["version"] = __version__
    meta.update(results)
    return meta


def parse_meta(text: str) -> dict:
    """Read the ``# key=value`` header back out of a CSV table.

    The header records the full configuration (minus the worker count, which
    never affects output), so a command can be reconstructed and re-run from
    its own output file.
    """
    out = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        k, v = line[2:].split("=", 1)
        out[k] = v
    return out


def _parse_record(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ValidationError(f"parameter record entry {item!r} is not key=value")
        k, v = (t.strip() for t in item.split("=", 1))
        if k in out:
            raise ValidationError(f"--params key {k!r} is given twice")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# commands: each returns (columns, rows, results), and ``run`` writes the table
# ---------------------------------------------------------------------------

# the largest k with 2.0 ** k a finite float, and the smallest k whose
# octave [2^k, 2^(k+1)] ends above 0 as a float
_KMAX_FLOAT = sys.float_info.max_exp - 1
_KMIN_FLOAT = sys.float_info.min_exp - sys.float_info.mant_dig - 1
# the largest --kmax or --nhi: the scales 2^k up to it hold k^2 / 16 bytes
# (4 MiB), and every command refuses scales far below 2^(2^13)
_KMAX_SCALE = 1 << 13


def _scale_range(args, lo: str, hi: str, lowest: int) -> list:
    """The scales 2^k, k = ``--lo``..``--hi``, refused when the range is
    empty, starts below ``lowest`` or ends past ``_KMAX_SCALE``: the one place
    where a scale is a power of two (a table prints k as N.bit_length() - 1)."""
    a, b = getattr(args, lo), getattr(args, hi)
    if a < lowest:
        raise ValidationError(f"--{lo} {a} must be at least {lowest}")
    if a > b:
        raise ValidationError(f"--{lo} {a} --{hi} {b}: scale range [{a}, {b}] is empty")
    if b > _KMAX_SCALE:
        raise ValidationError(f"--{hi} {b} must be at most {_KMAX_SCALE}")
    return [1 << k for k in range(a, b + 1)]


def _cmd_growth_table(args):
    if args.kmin >= args.kmax:
        raise ValidationError(f"--kmin {args.kmin} must be below --kmax {args.kmax}")
    if args.kmax > _KMAX_FLOAT:
        raise ValidationError(f"--kmax {args.kmax} is past the float range: "
                              f"2^{args.kmax} overflows, so --kmax must be at "
                              f"most {_KMAX_FLOAT}")
    if args.kmin < _KMIN_FLOAT:
        raise ValidationError(f"--kmin {args.kmin} is past the float range: "
                              f"2^{args.kmin + 1} underflows to 0, so --kmin must "
                              f"be at least {_KMIN_FLOAT}")
    g = parse_growth_spec(args.h)
    phi = g.inverse()
    ys = np.sort(np.concatenate([
        np.exp(np.linspace(math.log(max(phi.y0, 2.0 ** k)),
                           math.log(2.0 ** (k + 1)), 9))[:-1]
        for k in range(args.kmin, args.kmax)]))
    # the distinct points, as generate dedups its floors: np.unique would
    # import numpy.ma, which costs more than the rest of a small table
    ys = ys[np.concatenate(([True], ys[1:] != ys[:-1]))]
    rep = build_aux_report(phi, ys[ys >= phi.y0])
    columns = ["y", "phi", "theta1", "theta2", "theta3",
               "vartheta1", "vartheta2", "vartheta3"]
    values = [rep.grid, rep.phi_values, *rep.theta_values, *rep.vartheta_values]
    if g.c == 1.0:
        columns += ["sigma", "tau", "varrho"]
        values += [rep.sigma_values, rep.tau_values, rep.varrho_values]
    return columns, np.column_stack(values).tolist(), {}


# "00" .. "99": entry r is the two ASCII digits of r, as one uint16
_DIGIT_PAIRS = np.frombuffer("".join(f"{r:02d}" for r in range(100)).encode(),
                             dtype=np.uint16)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _decimal_lines(block: np.ndarray) -> bytes:
    """The bytes of "%d\n" per value of ``block``, sorted int64 values >= 1.

    The values of one digit count w are one run of the sorted block; each run
    fills a matrix of w + 1 bytes per row, two digits per pass from the pair
    table, the leading digit of an odd w on its own, and a newline, so no
    value becomes a Python int.  A pass is ``v // 100`` and a multiply-add
    for the remainder: with ``np.divmod`` passes a slice took 1.3-1.4x as
    long.
    """
    bounds = [0, *np.searchsorted(block, _POWERS_OF_TEN).tolist(), block.size]
    parts = []
    for w in range(1, len(bounds)):
        v = block[bounds[w - 1]:bounds[w]]
        if v.size == 0:
            continue
        rows = np.empty((v.size, w + 1), dtype=np.uint8)
        pairs = rows[:, w & 1:w].view(np.uint16)
        for j in range(w // 2 - 1, -1, -1):
            q = v // 100
            r = q * -100
            r += v
            pairs[:, j] = _DIGIT_PAIRS.take(r)
            v = q
        if w & 1:
            rows[:, 0] = v + ord("0")
        rows[:, w] = ord("\n")
        parts.append(rows.tobytes())
    return b"".join(parts)


def _cmd_seqset(args):
    g = parse_growth_spec(args.h)
    s = generate(g, args.nmax)
    # p_min is measured before --emit, so a refused calibration writes no file
    p_min, phi = s.p_min, s.phi
    if args.emit:
        # one line per element, written a CHUNK slice at a time as bytes
        # built in numpy (_decimal_lines), so neither the text of the whole
        # set nor a Python int per element is ever held; an empty set writes
        # one newline
        try:
            fh = open(args.emit, "wb")
        except OSError as exc:
            raise ValidationError(f"--emit {args.emit}: {exc.strerror}") from None
        with fh:
            if s.elements.size == 0:
                fh.write(b"\n")
            for i in range(0, s.elements.size, CHUNK):
                fh.write(_decimal_lines(s.elements[i:i + CHUNK]))
    ns = 1 << np.arange(1, s.n_max.bit_length(), dtype=np.int64)
    counts = count(s, ns)
    phis = np.full(ns.size, np.nan)
    phis[ns >= phi.y0] = phi.value(ns[ns >= phi.y0].astype(float))
    rows = zip(ns.tolist(), counts.tolist(), phis.tolist(), (counts / phis).tolist())
    return ["N", "count", "phi_N", "ratio"], list(rows), {"p_min": p_min}


def _cmd_kernel_decomp(args):
    scales = _scale_range(args, "kmin", "kmax", 0)
    g = parse_growth_spec(args.h)
    s = generate(g, 4 * scales[-1])
    reports = decomposition_reports(s, scales, args.workers)
    rows = [[r.scale_n.bit_length() - 1, r.scale_n, r.small_x_bound, r.gn_sup,
             r.en_sup, r.gn_lipschitz, r.mass] for r in reports]
    return (["k", "N", "small_x_bound", "gn_sup", "en_sup", "gn_lipschitz", "mass"],
            rows, {})


# the --params keys each --bound reads
_BOUND_PARAMS = {"single": ("m",), "two": ("m", "kappa"), "minnorm": ("trunc", "x")}


def _cmd_expsum(args):
    scales = _scale_range(args, "kmin", "kmax", 0)
    g = parse_growth_spec(args.h)
    phi = g.inverse()
    params = _parse_record(args.params)
    reads = _BOUND_PARAMS[args.bound]
    for k in params:
        if k not in reads:
            raise ValidationError(
                f"--params key {k!r} is not read by --bound {args.bound}, "
                f"which reads {', '.join(reads)}")

    def number(key, kind, default):
        if key not in params:
            return default
        try:
            return kind(params[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValidationError(
                f"--params {key} is not {what}: {params[key]!r}") from None

    m = number("m", int, 1)
    if abs(m) > sys.float_info.max:
        raise ValidationError("--params m is past the float range")
    kappa = number("kappa", float, 1.0)
    if args.bound in ("single", "two"):
        sums = [(r.actual_abs, r.bound, r.ratio) for r in
                ratio_sweep(phi, args.bound, m, scales, kappa, args.workers)]
    else:
        # M = max(2, isqrt(N)) by default; an explicit trunc is M itself
        trunc = params.get("trunc", "sqrt")
        fixed_terms = None if trunc == "sqrt" else number("trunc", int, None)
        if fixed_terms is not None and fixed_terms < 2:
            raise ValidationError(f"--params trunc = {fixed_terms} must be >= 2")
        x = number("x", int, 0)
        sums = [(actual, bound, actual / bound) for actual, bound in
                min_norm_sweep(phi, x, fixed_terms, scales, args.workers)]
    rows = [[n.bit_length() - 1, n, *v] for n, v in zip(scales, sums)]
    return ["k", "N", "actual_abs", "bound", "ratio"], rows, {}


def _spec_int(flag: str, spec: str, name: str, text: str, low=None) -> int:
    """The integer field ``name`` of the ``flag`` spec, refused below ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(
            f"{flag} {spec!r}: {name} = {text!r} is not an integer") from None
    if low is not None and value < low:
        raise ValidationError(f"{flag} {spec!r}: {name} = {value} must be >= {low}")
    return value


def _parse_corpus(spec: str) -> Signal:
    if spec == "delta":
        return Signal.delta(0)
    parts = spec.split(":")
    if parts[0] == "random" and len(parts) == 3:
        k = _spec_int("--corpus", spec, "K", parts[1], 1)
        check_size(k, f"--corpus {spec!r}: K = {k}")
        seed = _spec_int("--corpus", spec, "seed", parts[2], 0)
        rng = np.random.default_rng(seed)
        return Signal(0, np.bincount(rng.integers(0, 1 << 14, k)))
    raise ValidationError(f"--corpus {spec!r} is not delta or random:K:seed")


def _cmd_weaktype(args):
    scales = _scale_range(args, "nlo", "nhi", 1)
    g = parse_growth_spec(args.h)
    s = generate(g, 4 * scales[-1])
    family = build_scale_family(s, scales)
    f = _parse_corpus(args.corpus)
    rows = weak_type_profile(family, f, default_lambda_grid(family, f))
    return ["lambda", "superlevel_count", "ratio"], rows, {}


def _exact_value(text: str) -> Fraction:
    """Fraction(text).  A plain ASCII ``[+-]digits[/digits]`` with a nonzero
    denominator is built from its two ints, skipping the regex of
    ``Fraction(str)``; every other text goes through that regex, so the
    accepted values and the error messages are the same."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if (digits.isascii() and digits.isdigit()
            and (not slash or (den.isascii() and den.isdigit() and den.strip("0")))):
        return Fraction(int(num), int(den) if slash else 1)
    return Fraction(text)


def _read_input_signal(path: str) -> dict:
    """``x,value`` rows as {x: exact value}; a repeated x sums its values."""
    values: dict = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("x,"):
            continue
        x_str, comma, v_str = line.partition(",")
        try:
            if not comma:
                raise ValueError("no comma")
            x, v = int(x_str), _exact_value(v_str)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"{path}, line {lineno}: {line!r} is not an x,value row ({exc})"
            ) from None
        if x in values:
            values[x] += v
        else:
            values[x] = v
    return values


def _cmd_cz(args):
    try:
        values = _read_input_signal(args.input)
    except OSError as exc:
        raise ValidationError(f"--input {args.input}: {exc.strerror}") from None
    try:
        lam = Fraction(args.height)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"--height {args.height!r}: {exc}") from None
    # a file in the way is refused before the decomposition, not by mkdir after
    if args.emit_atoms and Path(args.emit_atoms).is_file():
        raise ValidationError(f"--emit-atoms {args.emit_atoms}: File exists")
    cz = cz_decompose(values, lam)
    if args.emit_atoms:
        outdir = Path(args.emit_atoms)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for a in sorted(cz.atoms, key=lambda a: (a.scale, a.index)):
                lines = [f"{x},{v}" for x, v in sorted(a.values.items())]
                (outdir / f"atom_{a.scale}_{a.index}.csv").write_text(
                    "\n".join(lines) + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(
                f"--emit-atoms {args.emit_atoms}: {exc.strerror}") from None
    good = cz.scaled[~cz.bad]
    good_linf = Fraction(max(good) if good.size else 0, cz.denominator)
    rows = [[lam, len(cz.cubes), Fraction(cz.total, cz.denominator),
             cz.total_cube_size(), good_linf,
             cz.reconstruction() == {x: v for x, v in values.items() if v}]]
    return (["lambda", "n_atoms", "l1", "sum_cube_sizes", "good_linf",
             "reconstruction_exact"], rows, {})


def _parse_system(spec: str):
    parts = spec.split(":")
    if parts[0] == "shift" and len(parts) == 3:
        m = _spec_int("--system", spec, "m", parts[1], 1)
        check_states(m, f"--system {spec!r}: m = {m}")
        return cyclic_shift(m, _spec_int("--system", spec, "step", parts[2]))
    raise ValidationError(f"--system {spec!r} is not shift:m:step")


def _parse_observable(spec: str, size: int) -> int:
    parts = spec.split(":")
    if parts[0] == "indicator" and len(parts) == 2:
        state = _spec_int("--f", spec, "k", parts[1])
        if not (0 <= state < size):
            raise ValidationError(f"--f {spec!r}: state {state} outside 0..{size - 1}")
        return state
    raise ValidationError(f"--f {spec!r} is not indicator:k")


def _cmd_ergodic(args):
    scales = _scale_range(args, "kmin", "kmax", 0)
    g = parse_growth_spec(args.h)
    s = generate(g, scales[-1])
    system = _parse_system(args.system)
    k = _parse_observable(args.f, system.m)
    if not (0 <= args.x < system.m):
        raise ValidationError(f"--x {args.x} outside 0..{system.m - 1}")
    rows = zip([n.bit_length() - 1 for n in scales], scales,
               ergodic_average(system, s, k, args.x, scales).tolist(),
               weighted_average(system, s, k, args.x, scales).tolist())
    return ["k", "N", "average", "weighted_average"], list(rows), {}


def _cmd_verify_family(args):
    scales = _scale_range(args, "nlo", "nhi", 1)
    g = parse_growth_spec(args.h)
    s = generate(g, 4 * scales[-1])
    family = build_scale_family(s, scales)
    rep = verify_family_hypotheses(family, args.workers)
    rows = list(zip([n.bit_length() - 1 for n in scales], scales, family.d,
                    family.big_d, rep.residual_sup, rep.f0_d_product,
                    rep.f_sup_times_d, rep.lipschitz_ratio))
    # eps2, the separation exponent, is the constant 1 written here, not a fit
    results = {"eps0": _fmt(family.eps0), "eps1": _fmt(rep.eps1), "eps2": "1",
               "growth_m": _fmt(family.growth_m)}
    return (["n", "N", "d_n", "D_n", "residual_sup", "f0_d_product",
             "f_sup_times_d", "lipschitz_ratio"], rows, results)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, with_h=True):
    if with_h:
        p.add_argument("--h", required=True, help="growth spec variant:c:C_h[:A[:B|:m]]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the scales of kernel-decomp, "
                        "verify-family and expsum; every other command is "
                        "sequential, and output never depends on it")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="roughmax",
        description="numerical experiments on maximal averages along "
                    "floor-of-smooth-growth integer sequences")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth-table", help="correction-function table over a dyadic grid")
    _add_common(p)
    p.add_argument("--kmin", type=int, default=4)
    p.add_argument("--kmax", type=int, default=24)
    p.set_defaults(func=_cmd_growth_table)

    p = sub.add_parser("seqset", help="generate the integer set and its counting table")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--emit", help="also write one element per line to this path")
    p.set_defaults(func=_cmd_seqset)

    p = sub.add_parser("kernel-decomp", help="autocorrelation decomposition sweep")
    _add_common(p)
    p.add_argument("--kmin", type=int, default=12)
    p.add_argument("--kmax", type=int, default=20)
    p.set_defaults(func=_cmd_kernel_decomp)

    p = sub.add_parser("expsum", help="phase-sum ratio sweeps")
    _add_common(p)
    p.add_argument("--bound", choices=("single", "two", "minnorm"), required=True)
    p.add_argument("--kmin", type=int, default=12)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--params", default="", help="record like m=1,kappa=1.0")
    p.set_defaults(func=_cmd_expsum)

    p = sub.add_parser("weaktype", help="superlevel-set ratio profile")
    _add_common(p)
    p.add_argument("--nlo", type=int, default=8)
    p.add_argument("--nhi", type=int, default=14)
    p.add_argument("--corpus", default="delta", help="delta or random:K:seed")
    p.set_defaults(func=_cmd_weaktype)

    p = sub.add_parser("cz", help="stopping-time decomposition of a CSV signal")
    _add_common(p, with_h=False)
    p.add_argument("--input", required=True, help="CSV of x,value rows")
    p.add_argument("--height", required=True, help="decomposition height (exact rational)")
    p.add_argument("--emit-atoms", dest="emit_atoms", help="directory for per-atom CSVs")
    p.set_defaults(func=_cmd_cz)

    p = sub.add_parser("ergodic", help="averages along the set on a finite system")
    _add_common(p)
    p.add_argument("--system", required=True, help="shift:m:step")
    p.add_argument("--f", required=True, help="indicator:k")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--kmin", type=int, default=10)
    p.add_argument("--kmax", type=int, default=20)
    p.set_defaults(func=_cmd_ergodic)

    p = sub.add_parser("verify-family", help="kernel-family hypothesis measurements")
    _add_common(p)
    p.add_argument("--nlo", type=int, default=12)
    p.add_argument("--nhi", type=int, default=20)
    p.set_defaults(func=_cmd_verify_family)
    return ap


def _check_out(path: str) -> None:
    """Refuse an --out path that is a directory, or whose directory is
    missing or not a directory, in the words of the write that would fail,
    before any work."""
    out = Path(path)
    if out.is_dir():
        raise ValidationError(f"--out {path}: Is a directory")
    if not out.parent.is_dir():
        # a missing component or a file on the way; stat says which
        try:
            out.parent.stat()
        except OSError as exc:
            raise ValidationError(f"--out {path}: {exc.strerror}") from None
        raise ValidationError(f"--out {path}: Not a directory")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        raise ValidationError(f"--workers {args.workers} must be >= 1")
    _check_out(args.out)
    columns, rows, results = args.func(args)
    try:
        write_table(args.out, _meta(args, results), columns, rows, args.format)
    except OSError as exc:
        raise ValidationError(f"--out {args.out}: {exc.strerror}") from None
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RoughMaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
