"""Correctness checks for the tables the benchmark's commands write.

Seed-independent commands are compared with reference tables written at the
commit that defined the benchmark (``reference/<label>.csv``): header lines
and integer columns must match exactly, float columns within ``RTOL``, which
leaves room for inverse-function changes that move values inside the
inversion tolerance.  Seed-dependent commands are checked against invariants
read from their own table.  Every check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance for float cells compared with a reference table.
RTOL = 1e-6

INT_COLUMNS = {
    "seqset": {"N", "count"},
    "growth-table": set(),
    "kernel-decomp": {"k", "N"},
    "verify-family": {"n", "N", "d_n", "D_n"},
    "expsum": {"k", "N"},
    "ergodic": {"k", "N"},
}
FLOAT_META = {"eps0", "eps1", "eps2", "growth_m"}


def read_table(text: str) -> tuple:
    """(meta dict, column names, rows of cell strings) of a CSV table."""
    meta, lines = {}, text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        k, v = lines[i][2:].split("=", 1)
        meta[k] = v
        i += 1
    if i == len(lines):
        raise ValueError("table has no column line")
    columns = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:]]
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("ragged table")
    return meta, columns, rows


def _float_close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0)


def compare_reference(command: str, text: str, ref_text: str) -> list:
    meta, cols, rows = read_table(text)
    rmeta, rcols, rrows = read_table(ref_text)
    problems = []
    if sorted(meta) != sorted(rmeta):
        problems.append(f"header keys {sorted(meta)} != {sorted(rmeta)}")
    for k in sorted(set(meta) & set(rmeta)):
        same = (_float_close(meta[k], rmeta[k]) if k in FLOAT_META
                else meta[k] == rmeta[k])
        if not same:
            problems.append(f"header {k}={meta[k]} != {rmeta[k]}")
    if cols != rcols:
        return problems + [f"columns {cols} != {rcols}"]
    if len(rows) != len(rrows):
        return problems + [f"{len(rows)} rows != {len(rrows)}"]
    ints = INT_COLUMNS[command]
    for i, (row, rrow) in enumerate(zip(rows, rrows)):
        for col, a, b in zip(cols, row, rrow):
            same = a == b if col in ints else _float_close(a, b)
            if not same:
                problems.append(f"row {i} {col}: {a} != {b}")
    return problems


def pure_power_count(c: float, n: int) -> int:
    """#{m >= 1 : m^c < n + 1}, i.e. |{floor(m^c)} ∩ [1, n]| for c >= 1.

    Decided in exact integers when c is a ratio p/q with q <= 64, and in
    60-digit arithmetic otherwise (an exact tie is then impossible).
    """
    fr = Fraction(c)

    def below(m: int) -> bool:
        if fr.denominator <= 64:
            return m ** fr.numerator < (n + 1) ** fr.denominator
        with mpmath.workdps(60):
            d = mpmath.mpf(m) ** mpmath.mpf(c) - (n + 1)
            if abs(d) < mpmath.mpf(10) ** -40 * (n + 1):
                raise ValueError(f"{m}^{c} too close to {n + 1} to decide")
            return d < 0

    m = int((n + 1) ** (1.0 / c))
    while m > 0 and not below(m):
        m -= 1
    while below(m + 1):
        m += 1
    return m


def check_pure_counts(c: float, text: str) -> list:
    _, cols, rows = read_table(text)
    iN, ic = cols.index("N"), cols.index("count")
    return [f"count({r[iN]}) = {r[ic]}, exact {pure_power_count(c, int(r[iN]))}"
            for r in rows if int(r[ic]) != pure_power_count(c, int(r[iN]))]


def check_cube_root_elements(elements_text: str, table_text: str) -> list:
    """The emitted set of pure:1.5 is exactly {isqrt(m^3) : m >= 1} up to nmax."""
    meta, _, _ = read_table(table_text)
    n_max = int(meta["nmax"])
    got = np.array(elements_text.split(), dtype=np.int64)
    m = np.arange(1, int(round(n_max ** (2.0 / 3.0))) + 4, dtype=np.int64)
    cube = m ** 3
    r = np.floor(np.sqrt(cube.astype(float))).astype(np.int64)
    for _ in range(2):
        r -= (r * r > cube)
        r += ((r + 1) * (r + 1) <= cube)
    want = r[r <= n_max]
    if got.size != want.size:
        return [f"{got.size} elements emitted, exact set has {want.size}"]
    bad = np.nonzero(got != want)[0]
    return [f"element {bad[0]}: {got[bad[0]]} != {want[bad[0]]}"] if bad.size else []


def check_weaktype(text: str, l1: float) -> list:
    """ratio == lambda * superlevel_count / l1 on every row."""
    _, cols, rows = read_table(text)
    if cols != ["lambda", "superlevel_count", "ratio"] or not rows:
        return [f"unexpected weaktype table columns {cols} / {len(rows)} rows"]
    problems = []
    for lam, cnt, ratio in rows:
        want = float(lam) * int(cnt) / l1
        if int(cnt) < 0 or not math.isclose(float(ratio), want, rel_tol=1e-12,
                                            abs_tol=0.0):
            problems.append(f"lambda {lam}: ratio {ratio} != {want!r}")
    return problems


def check_cz(text: str, l1: Fraction, height: Fraction) -> list:
    """reconstruction_exact == 1, good_linf <= 2 lambda,
    sum_cube_sizes <= 4 l1 / lambda, and the input's exact l1."""
    _, cols, rows = read_table(text)
    if cols != ["lambda", "n_atoms", "l1", "sum_cube_sizes", "good_linf",
                "reconstruction_exact"] or len(rows) != 1:
        return [f"unexpected cz table columns {cols} / {len(rows)} rows"]
    lam, _, t_l1, cubes, good, recon = rows[0]
    lam, t_l1, good = Fraction(lam), Fraction(t_l1), Fraction(good)
    problems = []
    if lam != height:
        problems.append(f"lambda {lam} != {height}")
    if t_l1 != l1:
        problems.append(f"l1 {t_l1} != input l1 {l1}")
    if recon != "1":
        problems.append("reconstruction not exact")
    if good > 2 * lam:
        problems.append(f"good_linf {good} > 2 lambda")
    if int(cubes) > 4 * t_l1 / lam:
        problems.append(f"sum_cube_sizes {cubes} > 4 l1 / lambda")
    return problems


def check_command(cmd, outdir: Path) -> list:
    """All checks ``cmd.check`` asks for, on the files it wrote to ``outdir``."""
    table_path = outdir / f"{cmd.label}.csv"
    if not table_path.exists():
        return ["no output table"]
    text = table_path.read_text(encoding="utf-8")
    spec = cmd.check
    problems = []
    try:
        if spec.get("reference"):
            ref = (REFERENCE_DIR / f"{cmd.label}.csv").read_text(encoding="utf-8")
            problems += compare_reference(cmd.command, text, ref)
        if "pure_count" in spec:
            problems += check_pure_counts(spec["pure_count"], text)
        if spec.get("cube_root_elements"):
            elements = (outdir / f"{cmd.label}.elements").read_text(encoding="utf-8")
            problems += check_cube_root_elements(elements, text)
        if "weaktype_l1" in spec:
            problems += check_weaktype(text, float(spec["weaktype_l1"]))
        if "cz_l1" in spec:
            problems += check_cz(text, Fraction(spec["cz_l1"]),
                                 Fraction(spec["cz_height"]))
    except (ValueError, KeyError, IndexError, OSError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
