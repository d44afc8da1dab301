"""The benchmark's workloads: which ``roughmax`` commands each one runs, and
the inputs generated from the workload seed.

Every workload is a fixed list of CLI commands run one at a time.  Sizes are
the heavy configurations of the layer each workload stresses, scaled so that
one pass over a workload takes a few seconds on a 2-core machine:

* ``sets``     -- ``seqset`` set generation (dedup, dense mask, exact floors at
  perfect powers) plus call-by-call ``growth`` through ``growth-table``.
* ``decomp``   -- ``signals`` FFT autocorrelation and ``kernel`` profiles on
  top of one ``generate`` per command.
* ``phase``    -- ``growth`` inversion (closed-form seed and Newton paths) and
  ``expsum`` phase sums; no set generation at all.
* ``averages`` -- the ``maximal`` operator on both convolution paths, the
  exact-rational CZ decomposition, ``ergodic`` averages and CLI parsing.

Only ``averages`` depends on the seed: the seed alone draws the two
``random:K:seed`` corpora and the rows of the CZ input CSV.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Every command gets the machine's core count as --workers, so a later
# change that makes the flag do work is measured without editing this file.
WORKERS = 2

CZ_ROWS = 16000
CZ_SPAN = 1 << 19
CZ_HEIGHT = "3/2"
FFT_CORPUS_SIZE = 2048      # above the 64-nonzero limit: transform convolution
SHIFT_ADD_CORPUS_SIZE = 48  # below it: shift-add convolution


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``label`` names its output files and reference
    table; ``check`` selects the correctness checks in ``check.py``."""

    label: str
    argv: tuple
    check: dict = field(default_factory=dict)
    emit: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _pow2(k: int) -> str:
    return str(1 << k)


_FIXED = {
    "sets": (
        Command("seqset-pure102",
                ("seqset", "--h", "pure:1.02:1.0", "--nmax", _pow2(20)),
                {"reference": True, "pure_count": 1.02}),
        Command("seqset-iterlog",
                ("seqset", "--h", "poweriterlog:1.02:1.0:2", "--nmax", _pow2(22)),
                {"reference": True}),
        Command("seqset-pure15",
                ("seqset", "--h", "pure:1.5:1.0", "--nmax", _pow2(28)),
                {"reference": True, "pure_count": 1.5, "cube_root_elements": True},
                emit=True),
        Command("growth-table",
                ("growth-table", "--h", "powerlog:1.02:1.0:1.0",
                 "--kmin", "4", "--kmax", "24"),
                {"reference": True}),
    ),
    "decomp": (
        Command("kernel-decomp",
                ("kernel-decomp", "--h", "pure:1.02:1.0", "--kmin", "12", "--kmax", "18"),
                {"reference": True}),
        Command("verify-family",
                ("verify-family", "--h", "pure:1.02:1.0", "--nlo", "12", "--nhi", "18"),
                {"reference": True}),
    ),
    "phase": (
        Command("expsum-single",
                ("expsum", "--h", "pure:1.05:1.0", "--bound", "single",
                 "--kmin", "12", "--kmax", "18", "--params", "m=2"),
                {"reference": True}),
        Command("expsum-two",
                ("expsum", "--h", "powerlog:1.05:1.0:1.0", "--bound", "two",
                 "--kmin", "12", "--kmax", "16", "--params", "m=2,kappa=1.0"),
                {"reference": True}),
        Command("expsum-minnorm",
                ("expsum", "--h", "pure:1.05:1.0", "--bound", "minnorm",
                 "--kmin", "12", "--kmax", "18"),
                {"reference": True}),
    ),
}

NAMES = ("sets", "decomp", "phase", "averages")


def cz_rows(rng: random.Random) -> list:
    """Nonnegative exact-rational ``(x, value)`` rows on both sides of 0."""
    xs = sorted(rng.sample(range(-CZ_SPAN, CZ_SPAN), CZ_ROWS))
    return [(x, Fraction(rng.randint(1, 60), rng.randint(1, 12))) for x in xs]


def cz_csv(rows: list) -> str:
    return "x,value\n" + "".join(f"{x},{v}\n" for x, v in rows)


def commands(workload: str, seed: int, workdir: Path) -> list:
    """The workload's commands; writes any seeded input files into ``workdir``."""
    if workload in _FIXED:
        return list(_FIXED[workload])
    if workload != "averages":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    fft_seed = rng.randrange(1 << 31)
    shift_seed = rng.randrange(1 << 31)
    rows = cz_rows(rng)
    cz_path = workdir / "cz-input.csv"
    cz_path.write_text(cz_csv(rows), encoding="utf-8")
    return [
        Command("weaktype-fft",
                ("weaktype", "--h", "pure:1.5:1.0", "--nlo", "8", "--nhi", "19",
                 "--corpus", f"random:{FFT_CORPUS_SIZE}:{fft_seed}"),
                {"weaktype_l1": FFT_CORPUS_SIZE}),
        Command("weaktype-shiftadd",
                ("weaktype", "--h", "pure:1.02:1.0", "--nlo", "8", "--nhi", "17",
                 "--corpus", f"random:{SHIFT_ADD_CORPUS_SIZE}:{shift_seed}"),
                {"weaktype_l1": SHIFT_ADD_CORPUS_SIZE}),
        Command("cz",
                ("cz", "--input", str(cz_path), "--height", CZ_HEIGHT),
                {"cz_l1": str(sum(v for _, v in rows)), "cz_height": CZ_HEIGHT}),
        Command("ergodic",
                ("ergodic", "--h", "pure:1.02:1.0", "--system", "shift:97:5",
                 "--f", "indicator:3", "--kmin", "10", "--kmax", "19"),
                {"reference": True}),
    ]
