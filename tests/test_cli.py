"""Command-line behavior: grammar, outputs, determinism, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import roughmax
from conftest import cz_csv, cz_rows, dyadic
from roughmax import ValidationError, Variant, build_aux_report, cli, maximal
from roughmax.cli import (
    EXIT_NUMERIC,
    EXIT_VALIDATION,
    _exact_value,
    main,
    parse_growth_spec,
    parse_meta,
)
from roughmax.errors import ConvergenceError


# ---------------------------------------------------------------------------
# growth spec grammar
# ---------------------------------------------------------------------------

def test_parse_basic_specs():
    g = parse_growth_spec("pure:1.5:1.0")
    assert g.variant is Variant.PURE_POWER and g.c == 1.5
    g = parse_growth_spec("powerlog:1.02:1.0:1.0")
    assert g.variant is Variant.POWER_LOG and g.a == 1.0
    g = parse_growth_spec("powerexplog:1.1:1.0:1.0:0.5")
    assert g.b == 0.5
    g = parse_growth_spec("poweriterlog:1.1:1.0:2")
    assert g.m == 2


def test_parse_rejects_bad_exponent():
    with pytest.raises(ValidationError):
        parse_growth_spec("pure:2.5:1.0")


@pytest.mark.parametrize("spec,fragment", [
    ("nosuch:1.5:1.0", "unknown variant"),
    ("pure:abc:1.0", "not a number"),
    ("pure:1.5", "takes 3 fields"),
    ("powerlog:1.02:1.0", "takes 4 fields"),
    ("poweriterlog:1.1:1.0:x", "not an integer"),
])
def test_parse_grammar_errors_carry_position(spec, fragment):
    with pytest.raises(ValidationError) as err:
        parse_growth_spec(spec)
    assert fragment in str(err.value)
    assert "position" in str(err.value)


# ---------------------------------------------------------------------------
# commands and determinism
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_seqset_emits_elements(tmp_path):
    out = tmp_path / "counts.csv"
    emit = tmp_path / "els.csv"
    code = run_cli("seqset", "--h", "pure:1.5:1.0", "--nmax", "11",
                   "--out", str(out), "--emit", str(emit))
    assert code == 0
    assert emit.read_text().split() == ["1", "2", "5", "8", "11"]
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "N,count,phi_N,ratio"


def test_seqset_emit_into_a_missing_directory_names_the_flag(tmp_path, capsys):
    # the bare "[Errno 2] No such file or directory: ..." named no flag
    emit = tmp_path / "missing" / "els.txt"
    assert run_cli("seqset", "--h", "pure:1.5:1.0", "--nmax", "11",
                   "--out", str(tmp_path / "counts.csv"),
                   "--emit", str(emit)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --emit {emit}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("nmax,cause", [
    (4096, "h'(phi(p)) = 0.239 < 1 at its end p = 4095, so ask for a larger n_max"),
    (1 << 20, "h'(phi(p)) = 0.426 < 1 at its end p = 65536, "
              "and P_MIN_WINDOW = 65536 caps the window"),
])
def test_seqset_names_why_the_membership_tests_disagree(tmp_path, capsys, nmax, cause):
    # where h' < 1 the set holds every integer and the inverse test cannot
    # agree with it; the refusal named no cause
    out = tmp_path / "t.csv"
    assert run_cli("seqset", "--h", "powerlog:1.4119:0.1978:-1.794", "--nmax", str(nmax),
                   "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: membership tests disagree through the calibration window: {cause}\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "under-a-file"])
def test_an_unwritable_out_is_refused_by_name_before_the_command_runs(
        tmp_path, capsys, monkeypatch, where):
    # a missing directory used to print a bare "[Errno 2] ..." once the whole
    # command had run, and a directory "[Errno 21] Is a directory"; the
    # handler raises here, so only a refusal made before it can exit 2.  A
    # path below a file was refused as "No such file or directory", where
    # the write says "Not a directory"
    def handler(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "_cmd_kernel_decomp", handler)
    (tmp_path / "F").write_text("kept\n")
    out, reason = {
        "missing-directory": (tmp_path / "missing" / "x.csv", "No such file or directory"),
        "a-directory": (tmp_path, "Is a directory"),
        "under-a-file": (tmp_path / "F" / "x.csv", "Not a directory"),
    }[where]
    assert run_cli("kernel-decomp", "--h", "pure:1.02:1.0", "--kmin", "4", "--kmax", "5",
                   "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --out {out}: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]
    assert (tmp_path / "F").read_text() == "kept\n"
    with pytest.raises(OSError) as write:
        out.write_text("")
    assert write.value.strerror == reason


def test_a_failed_table_write_names_out(tmp_path, capsys, monkeypatch):
    # an error of the write itself, after the command ran, names --out too
    def refuse(path, *args):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "write_table", refuse)
    out = tmp_path / "x.csv"
    assert run_cli("growth-table", "--h", "pure:1.5:1.0", "--kmin", "4", "--kmax", "5",
                   "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --out {out}: Permission denied\n"
    assert not out.exists()


def test_seqset_emit_file_is_pinned(tmp_path):
    # 104032 elements, so the file is written in two CHUNK slices; the pin
    # is the sha256 of one "\n".join over the whole set
    emit = tmp_path / "els.txt"
    assert run_cli("seqset", "--h", "pure:1.02:1.0", "--nmax", "131072",
                   "--out", str(tmp_path / "counts.csv"), "--emit", str(emit)) == 0
    text = emit.read_bytes()
    assert text.count(b"\n") == 104032 and text.endswith(b"\n131072\n")
    assert hashlib.sha256(text).hexdigest() == (
        "c17d1ecff47b3cec1d75f3bca19e2e6aacdf76dbfca802d15d1aef0a22a09700")


def test_seqset_emit_bytes_are_one_join_over_the_set(tmp_path, monkeypatch):
    # slices of 1000 elements, so the file is written in 11 CHUNK slices
    monkeypatch.setattr(roughmax.cli, "CHUNK", 1000)
    emit = tmp_path / "els.txt"
    assert run_cli("seqset", "--h", "pure:1.5:1.0", "--nmax", str(1 << 20),
                   "--out", str(tmp_path / "counts.csv"), "--emit", str(emit)) == 0
    elements = roughmax.generate(parse_growth_spec("pure:1.5:1.0"), 1 << 20).elements
    assert 10_000 < elements.size < 11_000
    assert emit.read_text() == "\n".join(map(str, elements.tolist())) + "\n"
    # h(8) = 16.6 is the first value past x0 = e^2, so nothing is <= 15
    assert run_cli("seqset", "--h", "powerlog:1.0:1.0:1.0", "--nmax", "15",
                   "--out", str(tmp_path / "counts.csv"), "--emit", str(emit)) == 0
    assert emit.read_bytes() == b"\n"


def percent_lines(values) -> bytes:
    return "".join("%d\n" % v for v in values).encode()


def test_decimal_lines_match_a_percent_format():
    # 10^k - 1, 10^k and 10^k + 1 for every digit count from 1 to 19, then
    # 2^62 and the largest int64
    edges = sorted({1, 2, 9, *(10 ** k + d for k in range(1, 19) for d in (-1, 0, 1)),
                    1 << 62, (1 << 63) - 1})
    assert sorted({len(str(v)) for v in edges}) == list(range(1, 20))
    values = np.array(edges, dtype=np.int64)
    assert cli._decimal_lines(values) == percent_lines(edges)
    # slices that start and end inside width runs, and one-element slices
    for lo, hi in ((3, 40), (5, 6), (0, 1), (len(edges) - 1, len(edges))):
        assert cli._decimal_lines(values[lo:hi]) == percent_lines(edges[lo:hi])
    # log-uniform, so every width holds many values
    rng = np.random.default_rng(23)
    drawn = np.sort((10 ** rng.uniform(0, 18.9, 4000)).astype(np.int64))
    assert cli._decimal_lines(drawn) == percent_lines(drawn.tolist())


def test_seqset_emit_slices_may_end_anywhere(tmp_path, monkeypatch):
    # slices of 7 elements: most start or end inside a width run, and the
    # ones at 10, 100, ... hold two widths
    monkeypatch.setattr(roughmax.cli, "CHUNK", 7)
    emit = tmp_path / "els.txt"
    assert run_cli("seqset", "--h", "pure:1.5:1.0", "--nmax", str(1 << 14),
                   "--out", str(tmp_path / "counts.csv"), "--emit", str(emit)) == 0
    elements = roughmax.generate(parse_growth_spec("pure:1.5:1.0"), 1 << 14).elements
    assert elements[-1] > 10_000 and elements.size % 7
    assert emit.read_bytes() == percent_lines(elements.tolist())


def test_seqset_emit_holds_one_slice(tmp_path, monkeypatch):
    # the command is handed a set it already holds (799,004 elements, 6.1 MiB),
    # so the peak is what writing it costs: 2.5 MiB measured, for one CHUNK
    # slice; one % format per slice peaked at 5.6 MiB, and the text of the
    # whole set would take 6.4 MB more
    s = roughmax.generate(parse_growth_spec("pure:1.02:1.0"), 1 << 20)
    monkeypatch.setattr(roughmax.cli, "generate", lambda g, n_max: s)
    # p_min is measured on first read, and this test bounds the emit alone
    assert s.p_min == 16
    tracemalloc.start()
    try:
        assert run_cli("seqset", "--h", "pure:1.02:1.0", "--nmax", str(1 << 20),
                       "--out", str(tmp_path / "counts.csv"),
                       "--emit", str(tmp_path / "els.txt")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_only_seqset_runs_the_inverse_membership_test(tmp_path, monkeypatch):
    # generate builds the set alone, so the commands that never print p_min
    # run without the inverse test; seqset reads p_min before it writes
    # --emit, so a refused calibration leaves no file
    def refuse(phi, p):
        raise ValidationError("inverse membership test called")

    monkeypatch.setattr(roughmax.seqset, "contains_via_inverse_batch", refuse)
    roughmax.generate(parse_growth_spec("pure:1.02:1.0"), 1 << 16)
    for argv in (("kernel-decomp", "--kmin", "8", "--kmax", "10"),
                 ("verify-family", "--nlo", "8", "--nhi", "11"),
                 ("weaktype", "--nlo", "6", "--nhi", "8", "--corpus", "random:16:3"),
                 ("ergodic", "--system", "shift:7:3", "--f", "indicator:2",
                  "--kmin", "6", "--kmax", "8")):
        assert run_cli(*argv, "--h", "pure:1.02:1.0",
                       "--out", str(tmp_path / f"{argv[0]}.csv")) == 0, argv[0]
    emit, out = tmp_path / "els.txt", tmp_path / "s.csv"
    argv = ("seqset", "--h", "poweriterlog:1.02:1.0:2", "--nmax", str(1 << 17),
            "--out", str(out), "--emit", str(emit))
    assert run_cli(*argv) == EXIT_VALIDATION and not emit.exists()
    monkeypatch.undo()
    assert run_cli(*argv) == 0 and emit.exists()
    assert parse_meta(out.read_text())["p_min"] == "17"


def _imported_after(module: str, tmp_path, *argvs) -> bool:
    """Whether ``module`` is in ``sys.modules`` of a fresh interpreter, run in
    ``tmp_path``, once ``cli.main`` has returned 0 on each of ``argvs``."""
    code = ("import sys\nfrom roughmax import cli\n"
            + "".join(f"assert cli.main({list(a)!r}) == 0\n" for a in argvs)
            + f"print({module!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(roughmax.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_seqset_and_growth_table_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma, 10-14 ms of a 19 ms growth-table run
    assert not _imported_after(
        "numpy.ma", tmp_path,
        ("seqset", "--h", "pure:1.5:1.0", "--nmax", "4096", "--out", "s.csv",
         "--emit", "e.txt"),
        ("growth-table", "--h", "powerlog:1.3:1.0:1.0", "--kmin", "2", "--kmax", "6",
         "--out", "g.csv"))


# commands whose floors, if any, fall on h(1) of a pure power or on no value
# near an integer, so no 60-digit sign test runs and mpmath stays unimported
MPMATH_FREE = (
    ("expsum", "--h", "pure:1.05:1.0", "--bound", "single", "--kmin", "8",
     "--kmax", "9", "--params", "m=2"),
    ("expsum", "--h", "powerlog:1.05:1.0:1.0", "--bound", "two", "--kmin", "8",
     "--kmax", "9", "--params", "m=2,kappa=1.0"),
    ("expsum", "--h", "pure:1.05:1.0", "--bound", "minnorm", "--kmin", "8", "--kmax", "9"),
    ("seqset", "--h", "pure:1.02:1.0", "--nmax", "4096"),
    ("kernel-decomp", "--h", "pure:1.02:1.0", "--kmin", "6", "--kmax", "8"),
    ("verify-family", "--h", "pure:1.02:1.0", "--nlo", "6", "--nhi", "9"),
    ("weaktype", "--h", "pure:1.02:1.0", "--nlo", "6", "--nhi", "8",
     "--corpus", "random:16:3"),
    ("ergodic", "--h", "pure:1.02:1.0", "--system", "shift:97:5", "--f",
     "indicator:3", "--kmin", "6", "--kmax", "8"),
)
# sha256 of the table and --emit file of seqset pure:1.9 to 2^34, whose 49
# band candidates past m = 1 take the 60-digit sign test
SEQSET_PURE19_PINNED = (
    "e6c1a37816dcfd26353a0d3658508421d85ea3ca7d817ca62d40e15c46665947",
    "935181672489a61d900b1f7cca25912c7373caadf752f9bfc9e0754d799a49f8",
)


@pytest.mark.parametrize("argv", MPMATH_FREE,
                         ids=lambda a: a[4] if a[0] == "expsum" else a[0])
def test_a_command_without_a_60_digit_sign_test_leaves_mpmath_unimported(tmp_path,
                                                                           argv):
    assert not _imported_after("mpmath", tmp_path, (*argv, "--out", "t.csv"))


def test_a_60_digit_sign_test_still_loads_mpmath(tmp_path):
    argv = ("seqset", "--h", "pure:1.9:1.0", "--nmax", str(1 << 34),
            "--out", "t.csv", "--emit", "e.txt")
    assert _imported_after("mpmath", tmp_path, argv)
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in ("t.csv", "e.txt")) == SEQSET_PURE19_PINNED


def test_byte_identical_reruns_and_worker_independence(tmp_path):
    outs = []
    for i, workers in enumerate((1, 1, 7)):
        p = tmp_path / f"o{i}.csv"
        code = run_cli("weaktype", "--h", "pure:1.02:1.0", "--nlo", "8",
                       "--nhi", "10", "--corpus", "random:16:3",
                       "--workers", str(workers), "--out", str(p))
        assert code == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# the benchmark's tables and the reference tables it checks them against,
# kept under perfbench/reference; the decomposition tables run on two threads
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
REFERENCE_TABLES = {
    "seqset-pure102": ("seqset", "--h", "pure:1.02:1.0", "--nmax", str(1 << 20)),
    "seqset-iterlog": ("seqset", "--h", "poweriterlog:1.02:1.0:2",
                       "--nmax", str(1 << 22)),
    "seqset-pure15": ("seqset", "--h", "pure:1.5:1.0", "--nmax", str(1 << 28)),
    "expsum-single": ("expsum", "--h", "pure:1.05:1.0", "--bound", "single",
                      "--kmin", "12", "--kmax", "18", "--params", "m=2"),
    "expsum-two": ("expsum", "--h", "powerlog:1.05:1.0:1.0", "--bound", "two",
                   "--kmin", "12", "--kmax", "16", "--params", "m=2,kappa=1.0"),
    "expsum-minnorm": ("expsum", "--h", "pure:1.05:1.0", "--bound", "minnorm",
                       "--kmin", "12", "--kmax", "18"),
    "ergodic": ("ergodic", "--h", "pure:1.02:1.0", "--system", "shift:97:5",
                "--f", "indicator:3", "--kmin", "10", "--kmax", "19"),
    "kernel-decomp": ("kernel-decomp", "--h", "pure:1.02:1.0", "--kmin", "12",
                      "--kmax", "18", "--workers", "2"),
    "verify-family": ("verify-family", "--h", "pure:1.02:1.0", "--nlo", "12",
                      "--nhi", "18", "--workers", "2"),
}


# the phase sums again on two threads, and the decomposition tables on one,
# which must not move a byte
REFERENCE_RUNS = (
    [pytest.param(label, (), id=label) for label in sorted(REFERENCE_TABLES)]
    + [pytest.param(label, ("--workers", "2"), id=f"{label}-workers-2")
       for label in sorted(REFERENCE_TABLES) if label.startswith("expsum")]
    + [pytest.param(label, ("--workers", "1"), id=f"{label}-workers-1")
       for label in ("kernel-decomp", "verify-family")])


@pytest.mark.parametrize("label,workers", REFERENCE_RUNS)
def test_phase_tables_match_the_reference_bytes(tmp_path, label, workers):
    out = tmp_path / f"{label}.csv"
    assert run_cli(*REFERENCE_TABLES[label], *workers, "--out", str(out)) == 0
    assert out.read_bytes() == (REFERENCE_DIR / f"{label}.csv").read_bytes()


# sha256 of expsum tables whose one window, at N = 2^19, holds 1,835,008
# points, past the 2^20 terms from which the sums are an fsum of chunks
EXPSUM_PINNED = {
    ("single", "m=2"): "74063eddc3df9049872c1b378280dc252bfc8f82c6e99276ce9f5c35d98498d4",
    ("minnorm", "x=5"): "928d5974ede1c8c16321e8b52ead7935ebe3cd6a442c3a0e862b633c2f09c0a9",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("config", sorted(EXPSUM_PINNED), ids="-".join)
def test_expsum_tables_past_the_compensated_threshold_are_pinned(tmp_path, config,
                                                                 workers):
    bound, params = config
    out = tmp_path / "e.csv"
    assert run_cli("expsum", "--h", "pure:1.05:1.0", "--bound", bound, "--kmin", "19",
                   "--kmax", "19", "--params", params, "--workers", workers,
                   "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPSUM_PINNED[config]


# sha256 of weaktype tables: a wide corpus of 2048 sites on pure:1.5, a
# 48-site corpus on the dense pure:1.02, and one site on the sparse pure:1.9
WEAKTYPE_PINNED = {
    ("pure:1.5:1.0", "8", "19", "random:2048:7"):
        "4c611a546b8d3993b2583bb7bff782f43cde3fce971183619f8743fa4d1c35b5",
    ("pure:1.02:1.0", "8", "17", "random:48:7"):
        "71d5cbdab400191feb510b03a8286d7da6d2efcf8585ed6a68e0614a4fc18776",
    ("pure:1.9:1.0", "10", "16", "delta"):
        "130698b4c0f7bbb6740fc936608955326a3a5db0439fd3dc0a1deb2378126874",
}


@pytest.mark.parametrize("config", sorted(WEAKTYPE_PINNED), ids="-".join)
def test_weaktype_tables_are_pinned(tmp_path, config):
    h, nlo, nhi, corpus = config
    out = tmp_path / "w.csv"
    assert run_cli("weaktype", "--h", h, "--nlo", nlo, "--nhi", nhi,
                   "--corpus", corpus, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WEAKTYPE_PINNED[config]


# sha256 of kernel-decomp and verify-family tables on two non-pure growths;
# the reference tables above run both commands on pure:1.02 only
DECOMPOSITION_PINNED = {
    ("kernel-decomp", "--h", "powerlog:1.05:1.0:1.0", "--kmin", "10", "--kmax", "14"):
        "c083984379d22c69ea31b705827f223d63ec09a2de0cbfd829a7aeaf41276c81",
    ("verify-family", "--h", "poweriterlog:1.02:1.0:2", "--nlo", "10", "--nhi", "14"):
        "ad3fda14f9909c48f8a4d3d5c87fc12c87d6a7a695fcddc420a1479a0550f503",
}


@pytest.mark.parametrize("argv", sorted(DECOMPOSITION_PINNED),
                         ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_decomposition_tables_on_non_pure_growths_are_pinned(tmp_path, argv):
    out = tmp_path / "d.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DECOMPOSITION_PINNED[argv]


def test_weaktype_never_builds_a_dense_kernel(tmp_path, monkeypatch):
    # the maximal operator reads each kernel as points: with every binding of
    # build_kernel made to raise, the pinned tables come out unchanged
    def refuse(*args, **kwargs):
        raise AssertionError("weaktype built a dense kernel window")

    for mod in [m for name, m in sys.modules.items()
                if name == "roughmax" or name.startswith("roughmax.")]:
        if hasattr(mod, "build_kernel"):
            monkeypatch.setattr(mod, "build_kernel", refuse)
    for config in sorted(WEAKTYPE_PINNED):
        test_weaktype_tables_are_pinned(tmp_path, config)


def test_weaktype_transforms_only_the_segments_that_hold_a_point(tmp_path,
                                                                 monkeypatch):
    # on the sparse pure:1.9 a one-site corpus cuts each kernel into segments
    # of 4 cells, and most hold no set element: those are skipped, and the
    # table keeps its pinned bytes
    rows = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            rows.append(len(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    config = ("pure:1.9:1.0", "10", "16", "delta")
    test_weaktype_tables_are_pinned(tmp_path, config)
    s = roughmax.generate(parse_growth_spec(config[0]), 4 << 16)
    fam = roughmax.build_scale_family(s, dyadic(10, 16))
    step = 4                                  # L = 4 and a width-1 corpus
    total = 0
    for n in fam.scales:
        pos, _ = roughmax.kernel._kernel_support(s, n)
        total += -(-int(pos[-1] - pos[0] + 1) // step)
    # 1,413 of 111,811 segments measured
    assert 0 < sum(rows) < total / 20, (sum(rows), total)


# sha256 of growth-table tables over octaves 4..24: the benchmark's powerlog
# spec, its c = 1 twin (which adds the sigma, tau and varrho columns), and the
# other three shapes
GROWTH_TABLE_PINNED = {
    "powerlog:1.02:1.0:1.0":
        "d218a2d06755dc866defc33a3a4ac7eee5772123e515ba08cea6a7cb1e514418",
    "powerlog:1.0:1.0:1.0":
        "156717e868ac43ca5b4f020889b424cbb5ebf28e0b1438385ba0d87512815c57",
    "powerexplog:1.05:1.0:1.0:0.5":
        "30c64d5707e631cf5f891335d1c85cdce733766e665d28909d5cd1700d06b024",
    "poweriterlog:1.02:1.0:2":
        "fe43e08bb4b3cb271e97360951eaf97b3af2a03b149c38cebd69edab99e42df0",
    "pure:1.5:1.0":
        "5fe4fa16ac171daa693391bde0604306a0165a007e015ba25446561780d5a93b",
}


@pytest.mark.parametrize("spec", sorted(GROWTH_TABLE_PINNED))
def test_growth_tables_are_pinned(tmp_path, spec):
    out = tmp_path / "g.csv"
    assert run_cli("growth-table", "--h", spec, "--kmin", "4", "--kmax", "24",
                   "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GROWTH_TABLE_PINNED[spec]


def test_kernel_errors_exit_2_from_the_first_use_of_the_family(tmp_path, capsys,
                                                               monkeypatch):
    # the family holds no kernel, so a kernel that cannot be built fails the
    # command where the scale is first read, with build_kernel's own error:
    # pure:1.9:64 has no element in [1, 32] ...
    assert run_cli("weaktype", "--h", "pure:1.9:64", "--nlo", "5", "--nhi", "5",
                   "--corpus", "delta",
                   "--out", str(tmp_path / "w.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "no set elements in [1, 32]" in err and "Traceback" not in err
    # ... and under a cap of 4096 the kernel at 2^10 fits but its 7059-lag
    # autocorrelation does not, so the first scale to read it fails
    monkeypatch.setattr(roughmax.signals, "MAX_SUPPORT", 4096)
    assert run_cli("verify-family", "--h", "pure:1.02:1.0", "--nlo", "8",
                   "--nhi", "11", "--out", str(tmp_path / "v.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "autocorrelation support 7059 exceeds" in err and "Traceback" not in err


def test_workers_never_start_more_threads_than_scales(tmp_path, monkeypatch):
    # min(--workers, #scales) threads start for a command's scales, and none
    # at --workers 1; every thread start is counted, per run
    import threading
    starts = []
    start = threading.Thread.start

    def counting(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    sizes = []
    for label, argv in (("kernel-decomp", ("kernel-decomp", "--kmin", "8", "--kmax", "11")),
                        ("verify-family", ("verify-family", "--nlo", "8", "--nhi", "11")),
                        ("single", ("expsum", "--bound", "single", "--kmin", "8",
                                    "--kmax", "11")),
                        ("minnorm", ("expsum", "--bound", "minnorm", "--kmin", "8",
                                     "--kmax", "11"))):
        for workers in ("64", "1"):
            starts.clear()
            assert run_cli(*argv, "--h", "pure:1.02:1.0", "--workers", workers,
                           "--out", str(tmp_path / f"{label}-{workers}.csv")) == 0
            if starts:
                sizes.append(len(starts))
        assert (tmp_path / f"{label}-64.csv").read_bytes() \
            == (tmp_path / f"{label}-1.csv").read_bytes()
    assert sizes == [4, 4, 4, 4]


# header keys that are not options: the command, the version and the
# results a command records beside its table
HEADER_RESULTS = {"seqset": {"p_min"},
                  "verify-family": {"eps0", "eps1", "eps2", "growth_m"}}


def test_config_round_trip_from_emitted_meta(tmp_path):
    # every command's header is a complete config: rebuilding the argv from
    # its option keys reproduces the output byte for byte.  Each config sets
    # options away from their defaults, so a key missing from the header
    # shows as a different rerun.
    f = tmp_path / "f.csv"
    f.write_text("x,value\n0,8\n20,1/2\n", encoding="utf-8")
    configs = [
        ("growth-table", "--h", "powerlog:1.02:1.0:1.0", "--kmin", "5", "--kmax", "8",
         "--seed", "3"),
        ("seqset", "--h", "pure:1.5:1.0", "--nmax", "512",
         "--emit", str(tmp_path / "els.txt")),
        ("kernel-decomp", "--h", "pure:1.02:1.0", "--kmin", "8", "--kmax", "10",
         "--workers", "2"),
        ("expsum", "--h", "pure:1.05:1.0", "--bound", "two", "--kmin", "8",
         "--kmax", "9", "--params", "m=2,kappa=0.5"),
        ("weaktype", "--h", "pure:1.02:1.0", "--nlo", "6", "--nhi", "8",
         "--corpus", "random:16:3"),
        ("cz", "--input", str(f), "--height", "1/2",
         "--emit-atoms", str(tmp_path / "atoms")),
        ("ergodic", "--h", "pure:1.05:1.0", "--system", "shift:7:3",
         "--f", "indicator:2", "--x", "1", "--kmin", "6", "--kmax", "8"),
        ("verify-family", "--h", "pure:1.02:1.0", "--nlo", "8", "--nhi", "11",
         "--workers", "2"),
    ]
    assert len({argv[0] for argv in configs}) == 8
    for i, argv in enumerate(configs):
        first, second = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
        assert run_cli(*argv, "--out", str(first)) == 0
        meta = parse_meta(first.read_text())
        command = meta.pop("command")
        assert command == argv[0]
        results = HEADER_RESULTS.get(command, set())
        assert results <= set(meta) and meta.pop("version") == roughmax.__version__
        assert not {"workers", "out", "emit", "emit_atoms"} & set(meta)
        rebuilt = [command]
        for k, v in meta.items():
            if k not in results:
                rebuilt += [f"--{k}", v]
        assert run_cli(*rebuilt, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes(), command


def test_json_mirror(tmp_path):
    p = tmp_path / "t.json"
    code = run_cli("ergodic", "--h", "pure:1.05:1.0", "--system", "shift:7:3",
                   "--f", "indicator:2", "--x", "0", "--kmin", "8",
                   "--kmax", "10", "--out", str(p), "--format", "json")
    assert code == 0
    doc = json.loads(p.read_text())
    assert doc["columns"] == ["k", "N", "average", "weighted_average"]
    assert len(doc["rows"]) == 3
    assert doc["meta"]["command"] == "ergodic"


def test_cz_command_with_atoms(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("x,value\n0,8\n20,1/2\n", encoding="utf-8")
    atoms = tmp_path / "atoms"
    out = tmp_path / "cz.csv"
    code = run_cli("cz", "--input", str(f), "--height", "1",
                   "--out", str(out), "--emit-atoms", str(atoms))
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = body[0].split(",")
    row = dict(zip(header, body[1].split(",")))
    assert row["reconstruction_exact"] == "1"
    assert row["n_atoms"] == "1"
    assert (atoms / "atom_2_0.csv").read_text() == "0,8\n"


def test_cz_names_a_missing_input(tmp_path, capsys):
    # the bare "[Errno 2] No such file or directory: ..." named no flag
    f = tmp_path / "missing.csv"
    assert run_cli("cz", "--input", str(f), "--height", "1",
                   "--out", str(tmp_path / "cz.csv")) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --input {f}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_cz_refuses_an_atom_directory_that_is_a_file_before_decomposing(
        tmp_path, capsys, monkeypatch):
    # mkdir used to print a bare "[Errno 17] File exists: ..." once the whole
    # decomposition had run
    def decompose(*args):
        raise AssertionError("the decomposition ran")

    monkeypatch.setattr(cli, "cz_decompose", decompose)
    f = tmp_path / "f.csv"
    f.write_text("x,value\n0,8\n", encoding="utf-8")
    atoms = tmp_path / "atoms"
    atoms.write_text("kept\n", encoding="utf-8")
    assert run_cli("cz", "--input", str(f), "--height", "1", "--out",
                   str(tmp_path / "cz.csv"), "--emit-atoms", str(atoms)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --emit-atoms {atoms}: File exists\n"
    assert atoms.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atoms", "f.csv"]


def test_cz_names_an_atom_directory_below_a_file(tmp_path, capsys):
    # mkdir's bare "[Errno 20] Not a directory: ..." named no flag
    f = tmp_path / "f.csv"
    f.write_text("x,value\n0,8\n", encoding="utf-8")
    atoms = f / "atoms"
    assert run_cli("cz", "--input", str(f), "--height", "1", "--out",
                   str(tmp_path / "cz.csv"), "--emit-atoms", str(atoms)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --emit-atoms {atoms}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]


# a seeded 2,000-row exact-rational input on both sides of 0 at height 3/2;
# the expected table and atom files were written by the stack-walk procedure
CZ_PINNED_TABLE = (
    "# command=cz\n# format=csv\n# height=3/2\n# input={input}\n# seed=0\n"
    "# version=0.1.0\n"
    "lambda,n_atoms,l1,sum_cube_sizes,good_linf,reconstruction_exact\n"
    "3/2,1270,448951687/27720,7956,3/2,1\n")
CZ_PINNED_ATOMS = (1270, "1d1f0c7c709e46511e87e6071db1dd98274d8947b7fc7c66379ddb0ff621cdaf")


def test_cz_table_and_atom_bytes_are_pinned(tmp_path):
    rng = random.Random(1305)
    xs = sorted(rng.sample(range(-(1 << 14), 1 << 14), 2000))
    f = tmp_path / "f.csv"
    f.write_text("x,value\n" + "".join(
        f"{x},{Fraction(rng.randint(1, 60), rng.randint(1, 12))}\n" for x in xs),
        encoding="utf-8")
    atoms = tmp_path / "atoms"
    out = tmp_path / "cz.csv"
    assert run_cli("cz", "--input", str(f), "--height", "3/2", "--out", str(out),
                   "--emit-atoms", str(atoms)) == 0
    assert out.read_text() == CZ_PINNED_TABLE.format(input=f)
    digest = hashlib.sha256()
    names = sorted(p.name for p in atoms.iterdir())
    for name in names:
        digest.update(name.encode() + b"\n" + (atoms / name).read_bytes())
    assert (len(names), digest.hexdigest()) == CZ_PINNED_ATOMS


# sha256 of the cz table, and the count and sha256 of the --emit-atoms files
# (each file's name, a newline and its bytes, in name order), at height 3/2
# on the 16,000-row inputs the benchmark's averages workload writes for seeds
# 1-3; recorded from the decomposition that built every atom dict in its walk
CZ_PINNED = {
    1: ("d9991be8a2b6098f0848360f01c7cd2fe54c4004ecdff18ebddf80d2c5680131", 12769,
        "ccc31e24e2128f095531644d09c4c9a2517c3924d4426d0df8509eac3c372b2b"),
    2: ("c472b06218f893b44182e49f6a69799a36f0a2730a7ecdf4c6a94b7789eb5af8", 12760,
        "125b473a727e5ea62165f784314ec157dd94b0615d2e7b802e00a135c157a342"),
    3: ("ffdb94b80d199bebdf4aa8c5b39d62c12843775f68f00f2bd3065498b23ca53a", 12764,
        "b84bfdff0bb4b5efaa7b96caadb7dbea5629bc595d66bc27ef8ff5d3ea21c7c7"),
}


def write_workload_cz_input(seed: int) -> None:
    """cz-input.csv in the current directory, as the averages workload of
    the given seed writes it: its two corpus seeds are drawn first."""
    rng = random.Random(seed)
    rng.randrange(1 << 31), rng.randrange(1 << 31)
    Path("cz-input.csv").write_text(cz_csv(cz_rows(rng)), encoding="utf-8")


def run_cz(*extra) -> dict:
    """cz at height 3/2 on cz-input.csv in the current directory; its row."""
    assert run_cli("cz", "--input", "cz-input.csv", "--height", "3/2",
                   "--out", "cz.csv", *extra) == 0
    header, row = Path("cz.csv").read_text().splitlines()[-2:]
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("seed", sorted(CZ_PINNED))
def test_cz_bytes_on_the_benchmark_inputs_are_pinned(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    write_workload_cz_input(seed)
    run_cz("--emit-atoms", "atoms")
    digest = hashlib.sha256()
    names = sorted(p.name for p in Path("atoms").iterdir())
    for name in names:
        digest.update(name.encode() + b"\n" + (Path("atoms") / name).read_bytes())
    assert (hashlib.sha256(Path("cz.csv").read_bytes()).hexdigest(), len(names),
            digest.hexdigest()) == CZ_PINNED[seed]


@pytest.mark.parametrize("fault", ["none", "overlap", "missing"])
def test_cz_reconstruction_reads_0_on_a_broken_split(tmp_path, monkeypatch, fault):
    monkeypatch.chdir(tmp_path)
    write_workload_cz_input(1)
    decompose = cli.cz_decompose

    def broken(values, lam):
        cz = decompose(values, lam)
        cubes = cz.cubes.copy()
        # an atom whose range ends before the last point
        k = int(np.flatnonzero(cubes[:, 3] < cz.positions.size)[0])
        if fault == "overlap":
            cubes[k, 3] += 1                  # it also takes the next point
        elif fault == "missing":
            cubes = np.delete(cubes, k, axis=0)  # its points are in no range
        return dataclasses.replace(cz, cubes=cubes)

    monkeypatch.setattr(cli, "cz_decompose", broken)
    assert run_cz()["reconstruction_exact"] == ("1" if fault == "none" else "0")


def test_cz_builds_no_atom_and_adds_no_fraction_unless_atoms_are_emitted(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_workload_cz_input(2)
    built, added = [], []
    atom = maximal.CZAtom
    monkeypatch.setattr(maximal, "CZAtom", lambda *a: built.append(a) or atom(*a))
    for name in ("__add__", "__radd__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, op=op: added.append(b) or op(a, b))
    row = run_cz()
    assert (len(built), len(added), row["l1"]) == (0, 0, "1736982959/13860")
    # the counters see the atoms when they are read
    assert run_cz("--emit-atoms", "atoms") == row
    assert (len(built), len(added)) == (int(row["n_atoms"]), 0)


def test_cz_refuses_a_position_past_int64(tmp_path, capsys):
    f = tmp_path / "f.csv"
    f.write_text("x,value\n9223372036854775808,3/2\n", encoding="utf-8")
    assert run_cli("cz", "--input", str(f), "--height", "1",
                   "--out", str(tmp_path / "cz.csv")) == EXIT_VALIDATION
    assert "2^63" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["5", "5;1/2", "five,1/2", "5,half", "5,1/0"])
def test_cz_names_the_line_of_a_bad_row(tmp_path, capsys, row):
    f = tmp_path / "f.csv"
    f.write_text(f"x,value\n0,1\n{row}\n", encoding="utf-8")
    assert run_cli("cz", "--input", str(f), "--height", "1",
                   "--out", str(tmp_path / "cz.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{f}, line 3" in err and repr(row) in err


# texts on both sides of the int and int/int fast path of the row parser:
# signs, leading zeros, zero denominators, spaces, underscores, non-ASCII
# digits, decimals, and malformed values
VALUE_TEXTS = ["3", "-3", "+3", "007", "3/4", "-6/8", "+6/08", "0", "-0", "1/0",
               "1/00", "1/-2", " 3", "3 ", " -1/2 ", "1_000", "1_0/3", "", "+",
               "-", "/", "3/", "/4", "1.5", "1e3", "²", "٣", "3/٣",
               "3 / 4", "nan", "+-3", "1/2/3", "12345678901234567890123/7"]


def test_cz_value_parsing_is_fraction_of_the_text():
    def parse(fn, text):
        try:
            v = fn(text)
            return type(v), v
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)

    for text in VALUE_TEXTS:
        assert parse(_exact_value, text) == parse(Fraction, text), text


def test_cz_names_a_height_that_is_not_a_rational(tmp_path, capsys):
    f = tmp_path / "f.csv"
    f.write_text("x,value\n0,1\n", encoding="utf-8")
    assert run_cli("cz", "--input", str(f), "--height", "1/0",
                   "--out", str(tmp_path / "cz.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--height '1/0'" in err and "Traceback" not in err


def test_cz_sums_a_repeated_position(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("x,value\n4,1/2\n-1,1\n4,1/3\n", encoding="utf-8")
    out = tmp_path / "cz.csv"
    atoms = tmp_path / "atoms"
    assert run_cli("cz", "--input", str(f), "--height", "1/4", "--out", str(out),
                   "--emit-atoms", str(atoms)) == 0
    row = out.read_text().splitlines()[-1].split(",")
    assert row[2] == "11/6"
    assert "4,5/6\n" in [p.read_text() for p in atoms.iterdir()]


def test_expsum_command(tmp_path):
    p = tmp_path / "r.csv"
    code = run_cli("expsum", "--h", "pure:1.05:1.0", "--bound", "single",
                   "--kmin", "10", "--kmax", "11", "--params", "m=2",
                   "--out", str(p))
    assert code == 0
    rows = [l for l in p.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2


@pytest.mark.parametrize("bound,params,reads", [
    ("two", "m=2,kapa=0.5", "m, kappa"),
    ("minnorm", "m=7", "trunc, x"),
    ("single", "m=2,kappa=1.0", "m"),
])
def test_expsum_refuses_a_params_key_its_bound_does_not_read(tmp_path, capsys,
                                                             bound, params, reads):
    out = tmp_path / "r.csv"
    assert run_cli("expsum", "--h", "pure:1.05:1.0", "--bound", bound,
                   "--kmin", "10", "--kmax", "11", "--params", params,
                   "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    key = params.split(",")[-1].split("=")[0]
    assert f"--params key {key!r}" in err and f"reads {reads}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("kappa", ["5", "-0.5", "nan"])
def test_expsum_two_refuses_a_kappa_outside_the_unit_interval(tmp_path, capsys,
                                                              kappa):
    # x = ceil(phi(N)^kappa) was formed first, so kappa = 5 exited 2 with
    # "window (128.0, -293636039058.0] is empty", which names no kappa
    out = tmp_path / "r.csv"
    assert run_cli("expsum", "--h", "pure:1.05:1.0", "--bound", "two",
                   "--params", f"m=1,kappa={kappa}",
                   "--kmin", "8", "--kmax", "8", "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"kappa = {float(kappa)} outside [0, 1]" in err
    assert "window" not in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("trunc", ["1", "0", "-5"])
def test_expsum_minnorm_refuses_a_trunc_below_2(tmp_path, capsys, trunc):
    # M = max(2, trunc) was taken, so each wrote the rows of trunc = 2
    # under a header that recorded its own trunc
    out = tmp_path / "r.csv"
    assert run_cli("expsum", "--h", "pure:1.05:1.0", "--bound", "minnorm",
                   "--params", f"trunc={trunc}", "--kmin", "8", "--kmax", "9",
                   "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"--params trunc = {trunc} must be >= 2" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("bound,params,what", [
    ("single", "m=abc", "m is not an integer: 'abc'"),
    ("two", "m=1.5", "m is not an integer: '1.5'"),
    ("two", "m=1,kappa=abc", "kappa is not a number: 'abc'"),
    ("minnorm", "trunc=abc", "trunc is not an integer: 'abc'"),
    ("minnorm", "x=abc", "x is not an integer: 'abc'"),
], ids=["m-text", "m-float", "kappa-text", "trunc-text", "x-text"])
def test_expsum_names_a_params_value_that_is_not_a_number(tmp_path, capsys,
                                                          bound, params, what):
    # int()/float() failed with "invalid literal for int() with base 10: 'abc'"
    # or "could not convert string to float", which name no key
    out = tmp_path / "r.csv"
    assert run_cli("expsum", "--h", "pure:1.05:1.0", "--bound", bound,
                   "--params", params, "--kmin", "8", "--kmax", "9",
                   "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: --params {what}" in err
    assert "Traceback" not in err and not out.exists()


def test_growth_table_c1_extra_columns(tmp_path):
    p = tmp_path / "g.csv"
    code = run_cli("growth-table", "--h", "powerlog:1.0:1.0:1.0",
                   "--kmin", "6", "--kmax", "8", "--out", str(p))
    assert code == 0
    header = [l for l in p.read_text().splitlines() if not l.startswith("#")][0]
    assert header.endswith("sigma,tau,varrho")


@pytest.mark.parametrize("kmax", ["5", "4"])
def test_growth_table_refuses_an_empty_octave_range(tmp_path, capsys, kmax):
    assert run_cli("growth-table", "--h", "pure:1.5:1.0", "--kmin", "5",
                   "--kmax", kmax, "--out", str(tmp_path / "g.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--kmin 5" in err and f"--kmax {kmax}" in err and "Traceback" not in err


@pytest.mark.parametrize("spec,field", [
    ("pure:1.5:inf", "constant C_h = inf"),
    ("pure:1.5:1e309", "constant C_h = inf"),
    ("pure:1.5:nan", "constant C_h = nan"),
    ("powerlog:1.05:inf:1.0", "constant C_h = inf"),
    ("poweriterlog:1.05:inf:1", "constant C_h = inf"),
    ("powerlog:1.05:1.0:inf", "parameter a = inf"),
    ("powerexplog:1.05:1.0:1.0:nan", "parameter b = nan"),
])
def test_a_non_finite_growth_constant_is_refused_by_name(tmp_path, capsys, spec, field):
    # an infinite C_h died in Fraction(float(c_h)) with an OverflowError
    # traceback, a NaN one with that bare message, and an infinite powerlog a
    # blamed the domain start x0 = exp(|a| + 1) = inf
    out = tmp_path / "g.csv"
    assert run_cli("growth-table", "--h", spec, "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {field} must be finite" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv,lo,hi,lowest", [
    (("kernel-decomp",), "kmin", "kmax", 0),
    (("expsum", "--bound", "single"), "kmin", "kmax", 0),
    (("ergodic", "--system", "shift:7:1", "--f", "indicator:1"), "kmin", "kmax", 0),
    (("weaktype",), "nlo", "nhi", 1),
    (("verify-family",), "nlo", "nhi", 1),
], ids=["kernel-decomp", "expsum", "ergodic", "weaktype", "verify-family"])
def test_every_scale_range_is_checked_by_name(tmp_path, capsys, argv, lo, hi, lowest):
    # an empty range (--kmin 9 --kmax 8 on ergodic, say) wrote a header-only
    # table from kernel-decomp, expsum and ergodic, and a negative exponent
    # died in 1 << k as "negative shift count"
    out = tmp_path / "t.csv"
    for a, b, message in (
            (12, 10, f"--{lo} 12 --{hi} 10: scale range [12, 10] is empty"),
            (lowest - 1, 10, f"--{lo} {lowest - 1} must be at least {lowest}"),
            (-5, -2, f"--{lo} -5 must be at least {lowest}")):
        assert run_cli(*argv, "--h", "pure:1.02:1.0", f"--{lo}", str(a),
                       f"--{hi}", str(b), "--out", str(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {message}" in err, err
        assert "Traceback" not in err and not out.exists()


# each command with scale-exponent flags: the rest of a small run, its --lo
# and --hi flags, and the lowest exponent it takes
_SCALE_FLAGS = {
    "kernel-decomp": (("--h", "pure:1.5:1.0"), "kmin", "kmax", 0),
    "expsum": (("--h", "pure:1.05:1.0", "--bound", "single"), "kmin", "kmax", 0),
    "weaktype": (("--h", "pure:1.5:1.0"), "nlo", "nhi", 1),
    "verify-family": (("--h", "pure:1.02:1.0"), "nlo", "nhi", 1),
    "ergodic": (("--h", "pure:1.5:1.0", "--system", "shift:64:1",
                 "--f", "indicator:0"), "kmin", "kmax", 0),
}


def _scale_flag_cases():
    """(command, flag, value, lo, hi): each flag at -1, at 0, crossing the
    other, past the caps of the set and the window (5000) and past the
    exponent cap of the CLI (10^6); the other flag keeps the range small."""
    for cmd, (_, lo, hi, lowest) in _SCALE_FLAGS.items():
        for value in (-1, 0, "crossed", 5000, 10 ** 6):
            if value == "crossed":
                yield cmd, lo, value, 4, 3
                yield cmd, hi, value, 4, 3
            else:
                yield cmd, lo, value, value, max(value, lowest + 2)
                yield cmd, hi, value, lowest, value


@pytest.mark.parametrize("cmd,flag,value,lo,hi", list(_scale_flag_cases()),
                         ids=lambda v: str(v))
def test_every_scale_flag_edge_exits_cleanly(tmp_path, capsys, cmd, flag,
                                             value, lo, hi):
    # --kmax 5000 on kernel-decomp, ergodic, weaktype and verify-family
    # exited 2 with "error: n_max = 5649868..." and over 1,500 digits
    base, lo_flag, hi_flag, _ = _SCALE_FLAGS[cmd]
    out = tmp_path / "t.csv"
    code = run_cli(cmd, *base, f"--{lo_flag}", str(lo), f"--{hi_flag}", str(hi),
                   "--out", str(out))
    err = capsys.readouterr().err
    assert code in (0, EXIT_VALIDATION), err
    assert "Traceback" not in err and "Unable to allocate" not in err
    if code == 0:
        assert err == "" and out.exists()
        return
    (line,) = err.splitlines()
    assert line.startswith("error: ") and len(line) < 200, line
    # the flag, its value, or the scale or n_max that the value sets
    assert (f"--{flag}" in line or str(value) in line
            or re.search(r"\b(N|n_max)\b", line)), line
    assert not out.exists()


# edge values of the flags that set no scale: small runs on which each flag
# is tried, the flag going last
_BIG = "1" + "0" * 400
_ERGODIC = ("ergodic", "--h", "pure:1.5:1.0", "--kmin", "3", "--kmax", "4")
_EXPSUM = ("expsum", "--h", "pure:1.05:1.0", "--kmin", "4", "--kmax", "5", "--bound")
_FLAG_RUNS = {
    "seqset": ("seqset", "--h", "pure:1.5:1.0", "--nmax", "64"),
    "growth-table": ("growth-table", "--kmin", "4", "--kmax", "6"),
    "growth-table/far": ("growth-table", "--kmin", "1020", "--kmax", "1023"),
    "weaktype": ("weaktype", "--h", "pure:1.5:1.0", "--nlo", "3", "--nhi", "4"),
    "ergodic": _ERGODIC + ("--f", "indicator:0"),
    "ergodic/system": _ERGODIC + ("--system", "shift:64:1"),
    "ergodic/x": _ERGODIC + ("--system", "shift:64:1", "--f", "indicator:0"),
    "single": _EXPSUM + ("single",),
    "two": _EXPSUM + ("two",),
    "minnorm": _EXPSUM + ("minnorm",),
    "cz": ("cz", "--input", "@input"),
    "cz/height": ("cz", "--input", "@input", "--height", "1"),
    "kernel-decomp": ("kernel-decomp", "--h", "pure:1.5:1.0", "--kmin", "4", "--kmax", "5"),
}


def _edges(run, flag, *cases):
    """(run, flag, value, named) for each (value, named) of ``cases``: named
    is a text the run's error line holds, or None where the run succeeds."""
    return [(run, flag, value, named) for value, named in cases]


_FLAG_EDGES = [
    *_edges("seqset", "--nmax",
            ("64", None), ("1", None), ("0", "n_max = 0"), ("-1", "n_max = -1"),
            ("nan", "--nmax"), ("inf", "--nmax"), ("1e3", "--nmax"), ("1.5", "--nmax"),
            ("", "--nmax"), (str(1 << 26), None),
            (str(1 << 40), "n_max = 1099511627776 needs"),
            (str((1 << 40) + 1), "n_max = 1099511627777 above"),
            (str(1 << 64), "n_max >= 2^64"), (_BIG, "n_max >= 2^1328")),
    *_edges("growth-table", "--h",
            ("pure:1.5:1.0", None), ("PURE:1.999999:1.0", None),
            ("pure:1.0000001:1.0", None), ("", "growth spec ''"),
            ("pure", "growth spec 'pure'"), ("pure:1.5:1.0:2", "growth spec"),
            ("cubic:1.5:1.0", "unknown variant 'cubic'"),
            ("pure:x:1.0", "exponent c is not a number: 'x'"),
            ("pure:1.5:y", "constant C_h is not a number: 'y'"),
            ("pure:nan:1.0", "exponent c = nan"), ("pure:-inf:1.0", "exponent c = -inf"),
            ("pure:1.0:1.0", "c = 1"), ("pure:2.0:1.0", "exponent c = 2.0"),
            ("pure:-1.5:1.0", "exponent c = -1.5"), ("pure:1.5:0", "C_h = 0.0"),
            ("pure:1.5:-1", "C_h = -1.0"), ("pure:1.5:inf", "C_h = inf"),
            ("pure:1.5:1e300", "h overflows"), ("pure:1.5:1.7e308", "h overflows"),
            ("pure:1.5:1e-300", "h(x0) = 1e-300"),
            ("powerlog:1.05:1.0", "growth spec"), ("powerlog:1.05:1.0:nan", "a = nan"),
            ("powerlog:1.05:1.0:-50", "h(x0) = "), ("powerlog:1.05:1e308:1.0", "h overflows"),
            ("powerlog:1.0:1.0:-1.0", "alpha_2 + vartheta_2"),
            ("powerlog:1.05:1.0:700", "x0 = inf"), ("powerlog:1.05:1.0:1e300", "x0 = inf"),
            ("powerexplog:1.05:1.0:1.0:0", "b = 0.0"), ("powerexplog:1.05:1.0:1.0:1", "b = 1.0"),
            ("powerexplog:1.05:1.0:1e300:0.5", "vartheta_3"),
            ("powerexplog:1.05:1.0:-1e300:0.5", "vartheta_3"),
            ("powerexplog:1.05:1e305:1:0.5", "h overflows"),
            ("poweriterlog:1.02:1.0:0", "depth m"), ("poweriterlog:1.02:1.0:4", "depth m"),
            ("poweriterlog:1.02:1.0:1.5", "depth m is not an integer: '1.5'"),
            ("poweriterlog:1.02:1.0:3", None), ("poweriterlog:1.02:1e300:1", None),
            ("poweriterlog:1.02:1e302:1", "h overflows")),
    *_edges("weaktype", "--corpus",
            ("delta", None), ("random:100:1", None), (f"random:5:{_BIG}", None),
            ("", "--corpus ''"), ("random", "--corpus 'random'"), ("random:1", "--corpus"),
            ("random:0:1", "K = 0"), ("random:-1:1", "K = -1"), ("random:x:1", "K = 'x'"),
            ("random:1e3:1", "K = '1e3'"), ("random:5:-1", "seed = -1"),
            ("random:5:1.5", "seed = '1.5'"), ("gauss:5:1", "--corpus 'gauss:5:1'"),
            ("random:5:1:2", "--corpus"), ("random:1073741825:0", "K = 1073741825"),
            ("random:5000000000:1", "K = 5000000000"), (f"random:{_BIG}:1", "--corpus")),
    *_edges("ergodic", "--system",
            ("shift:64:1", None), ("shift:64:0", None), ("shift:64:-1", None),
            (f"shift:64:{_BIG}", None), ("", "--system ''"), ("shift", "--system 'shift'"),
            ("shift:0:1", "m = 0"), ("shift:-1:1", "m = -1"), ("shift:x:1", "m = 'x'"),
            ("shift:64:x", "step = 'x'"), ("shift:1e3:1", "m = '1e3'"),
            ("rotate:64:1", "--system 'rotate:64:1'"), ("shift:64:1:2", "--system"),
            ("shift:1073741825:1", None), ("shift:2147483648:1", None),
            ("shift:2147483649:1", "m = 2147483649 exceeds MAX_STATES = 2147483648"),
            ("shift:100000000000:1", "m = 100000000000"), (f"shift:{_BIG}:1", "--system")),
    *_edges("ergodic/system", "--f",
            ("indicator:63", None), ("indicator:64", "state 64"), ("indicator:-1", "state -1"),
            ("indicator:x", "k = 'x'"), ("indicator:1.5", "k = '1.5'"),
            ("indicator", "--f 'indicator'"), ("delta:0", "--f 'delta:0'"), ("", "--f ''"),
            ("indicator:0:1", "--f"), (f"indicator:{_BIG}", "--f")),
    *_edges("ergodic/x", "--x",
            ("63", None), ("64", "--x 64"), ("-1", "--x -1"), ("nan", "--x"),
            ("1.5", "--x"), (_BIG, "--x")),
    *_edges("single", "--params",
            ("m=2", None), ("", None), ("m=-1", None), ("m=100000000000000000000", None),
            ("m", "entry 'm'"), ("m=", "--params m"), ("m=x", "--params m"),
            ("m=1.5", "--params m"), ("m=nan", "--params m"), ("m=0", "m must be nonzero"),
            ("m=1,m=2", "--params key 'm'"), (" m=1 , m =2", "--params key 'm'"),
            ("kappa=1", "--params key 'kappa'"), ("=1", "--params key ''"),
            ("m=1,,m=2", "entry ''"), (f"m={_BIG}", "--params m"),
            (f"m=-{_BIG}", "--params m")),
    *_edges("two", "--params",
            ("m=1,kappa=0.5", None), ("m=1,kappa=0", None), ("m=1,kappa=nan", "kappa = nan"),
            ("m=1,kappa=inf", "kappa = inf"), ("m=1,kappa=-1", "kappa = -1.0"),
            (f"m=1,kappa={_BIG}", "kappa = inf"), ("kappa=1,kappa=2", "--params key 'kappa'"),
            (f"m={_BIG}", "--params m")),
    *_edges("minnorm", "--params",
            ("x=5", None), ("x=-5", None), ("trunc=sqrt", None), ("x=99999999999", None),
            ("trunc=99999999999", None), (f"x={_BIG}", None), ("trunc=1", "trunc = 1"),
            ("trunc=0", "trunc = 0"), ("trunc=x", "--params trunc"), ("x=nan", "--params x"),
            ("trunc=3,trunc=4", "--params key 'trunc'"), ("m=1", "--params key 'm'")),
    *_edges("cz", "--height",
            ("1", None), ("1/3", None), ("0.1", None), ("1e400", None), ("1e-400", None),
            (_BIG, None), (f"1/{_BIG}", None), ("0", "height 0"), ("-1", "height -1"),
            ("nan", "--height 'nan'"), ("inf", "--height 'inf'"), ("-inf", "--height"),
            ("1/0", "--height '1/0'"), ("x", "--height 'x'"), ("", "--height ''")),
    *[edge for run in ("kernel-decomp", "single", "seqset") for edge in _edges(
        run, "--workers",
        ("1", None), ("2", None), ("1000000", None), (_BIG, None),
        ("0", "--workers 0"), ("-1", "--workers -1"), ("x", "--workers"),
        ("1.5", "--workers"), ("nan", "--workers"))],
    # numpy warned of the overflow of h on the Newton path before it exited 0
    ("growth-table/far", "--h", "powerlog:1.05:1.0:1.0", None),
    *_edges("seqset", "--format", ("json", None), ("xml", "--format")),
    # paths: @missing is a directory that does not exist, @dir an empty one
    # and @file a regular file; --emit-atoms makes its missing directories
    *[edge for flag in ("--out", "--emit") for edge in _edges(
        "seqset", flag,
        ("@missing/t.csv", f"{flag} @missing/t.csv: No such file or directory"),
        ("@dir", f"{flag} @dir: Is a directory"),
        ("@file/t.csv", f"{flag} @file/t.csv: Not a directory"))],
    *_edges("cz/height", "--input",
            ("@missing/in.csv", "--input @missing/in.csv: No such file or directory"),
            ("@dir", "--input @dir: Is a directory"),
            ("@file/in.csv", "--input @file/in.csv: Not a directory")),
    *_edges("cz/height", "--emit-atoms",
            ("@missing/atoms", None), ("@dir", None),
            ("@file", "--emit-atoms @file: File exists"),
            ("@file/atoms", "--emit-atoms @file/atoms: Not a directory")),
]


@pytest.mark.parametrize("run,flag,value,named", _FLAG_EDGES,
                         ids=[f"{r}:{f}={v[:24]}" for r, f, v, _ in _FLAG_EDGES])
def test_every_flag_edge_exits_cleanly(tmp_path, capsys, recwarn, run, flag, value,
                                       named):
    # --params m=1,m=2 ran with m = 2 under a header of params=m=1,m=2; numpy
    # warned of overflows that the checks after them refuse; powerlog with
    # |A| past 700 and an m past the float range died with an OverflowError;
    # the flag goes after --out, so a row of --out overrides it
    out, source = tmp_path / "t.csv", tmp_path / "in.csv"
    source.write_text("x,value\n0,1\n1,3/2\n5,7\n-4,2\n")
    (tmp_path / "dir").mkdir()
    paths = {"@missing": str(tmp_path / "missing"), "@dir": str(tmp_path / "dir"),
             "@file": str(source), "@input": str(source)}
    value, named = (re.sub("@[a-z]+", lambda m: paths[m[0]], t) if t else t
                    for t in (value, named))
    before = sorted(tmp_path.rglob("*"))
    argv = [paths.get(a, a) for a in _FLAG_RUNS[run]]
    try:
        code = main([*argv, "--out", str(out), flag, value])
    except SystemExit as exc:       # argparse refuses a value of the wrong type
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Unable to allocate" not in err
    warned = [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not warned
    if named is None:
        assert code == 0 and err == "" and out.exists(), err
        return
    assert code == EXIT_VALIDATION and sorted(tmp_path.rglob("*")) == before, err
    (line,) = [l for l in err.splitlines() if "error: " in l]
    assert named in line, line


def test_growth_table_refuses_a_kmax_past_the_float_range(tmp_path, capsys):
    # the grid ends at 2.0 ** kmax, which overflows from 1024 on: --kmax 1030
    # died with an OverflowError traceback
    out = tmp_path / "g.csv"
    assert run_cli("growth-table", "--h", "pure:1.5:1.0", "--kmin", "1020",
                   "--kmax", "1030", "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--kmax 1030" in err and "at most 1023" in err and not out.exists()
    assert run_cli("growth-table", "--h", "pure:1.5:1.0", "--kmin", "1020",
                   "--kmax", "1023", "--out", str(out)) == 0


def test_growth_table_refuses_a_kmin_past_the_float_range(tmp_path, capsys):
    # the octave of kmin ends at 2.0 ** (kmin + 1), which underflows to 0 from
    # kmin = -1076 on: --kmin -1100 exited 2 with a bare "math domain error"
    out = tmp_path / "g.csv"
    assert run_cli("growth-table", "--h", "pure:1.5:1.0", "--kmin", "-1100",
                   "--kmax", "-1090", "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--kmin -1100" in err and "at least -1075" in err and not out.exists()
    assert "math domain error" not in err
    assert run_cli("growth-table", "--h", "pure:1.5:1.0", "--kmin", "-1075",
                   "--kmax", "-1070", "--out", str(out)) == 0


_WEAKTYPE = ("weaktype", "--h", "pure:1.5:1.0", "--nlo", "4", "--nhi", "6")
_ERGODIC = ("ergodic", "--h", "pure:1.02:1.0", "--kmin", "4", "--kmax", "6")


@pytest.mark.parametrize("argv,what", [
    (_WEAKTYPE + ("--corpus", "random:abc:1"),
     "--corpus 'random:abc:1': K = 'abc' is not an integer"),
    (_WEAKTYPE + ("--corpus", "random:-3:1"),
     "--corpus 'random:-3:1': K = -3 must be >= 1"),
    (_WEAKTYPE + ("--corpus", "random:0:1"),
     "--corpus 'random:0:1': K = 0 must be >= 1"),
    (_WEAKTYPE + ("--corpus", "random:3:-1"),
     "--corpus 'random:3:-1': seed = -1 must be >= 0"),
    (_WEAKTYPE + ("--corpus", "random:3"),
     "--corpus 'random:3' is not delta or random:K:seed"),
    (_ERGODIC + ("--system", "shift:abc:5", "--f", "indicator:3"),
     "--system 'shift:abc:5': m = 'abc' is not an integer"),
    (_ERGODIC + ("--system", "shift:0:5", "--f", "indicator:0"),
     "--system 'shift:0:5': m = 0 must be >= 1"),
    (_ERGODIC + ("--system", "shift:7:x", "--f", "indicator:3"),
     "--system 'shift:7:x': step = 'x' is not an integer"),
    (_ERGODIC + ("--system", "shift:7:3", "--f", "indicator:x"),
     "--f 'indicator:x': k = 'x' is not an integer"),
    (_ERGODIC + ("--system", "shift:7:3", "--f", "indicator:7"),
     "--f 'indicator:7': state 7 outside 0..6"),
], ids=["corpus-K-text", "corpus-K-negative", "corpus-K-zero",
        "corpus-seed-negative", "corpus-shape", "system-m-text", "system-m-zero",
        "system-step-text", "f-k-text", "f-k-range"])
def test_a_spec_that_does_not_parse_names_its_flag(tmp_path, capsys, argv, what):
    out = tmp_path / "t.csv"
    assert run_cli(*argv, "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {what}\n" == err
    assert not out.exists()


def test_weaktype_refuses_a_corpus_too_spread_for_the_default_heights(tmp_path,
                                                                    capsys):
    # 100,000 sites on 2^14 cells: l1 / (4 max D_n) = 10^5 / 32 lies above
    # 2 linf = 38, so the log grid of heights would be empty
    out = tmp_path / "t.csv"
    assert run_cli("weaktype", "--h", "pure:1.02:1.0", "--nlo", "1", "--nhi", "1",
                   "--corpus", "random:100000:1",
                   "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == ("error: default heights need 0 < l1 / (4 max D_n) <= 2 linf, "
                   "got 3125.0 and 38.0\n")
    assert not out.exists()


@pytest.mark.parametrize("x", [7, 9, -1])
def test_ergodic_names_a_start_state_outside_the_system(tmp_path, capsys, x):
    out = tmp_path / "t.csv"
    assert run_cli(*_ERGODIC, "--system", "shift:7:3", "--f", "indicator:2",
                   "--x", str(x), "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: --x {x} outside 0..6\n" and not out.exists()


@pytest.mark.parametrize("h", ["pure:1.5:2.5", "powerexplog:1.1:1.0:1.0:0.5"])
def test_ergodic_runs_when_the_first_element_lies_below_y0(tmp_path, h):
    # floor(h(ceil x0)) < h(x0) = y0 on both; the weighted average used to
    # ask phi below its domain and exit 2
    p = tmp_path / "e.csv"
    assert run_cli("ergodic", "--h", h, "--system", "shift:7:1",
                   "--f", "indicator:0", "--kmin", "8", "--kmax", "10",
                   "--out", str(p)) == 0
    body = [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 4
    assert all(0.0 < float(row.split(",")[3]) < 1.0 for row in body[1:])


def test_ergodic_runs_a_shift_by_a_step_past_int64(tmp_path):
    # the step used to reach np.arange and exit 1 with an OverflowError
    outs = []
    for step in ("99999999999999999999999", str(99999999999999999999999 % 97)):
        p = tmp_path / f"{step}.csv"
        assert run_cli("ergodic", "--h", "pure:1.02:1.0", "--system", f"shift:97:{step}",
                       "--f", "indicator:0", "--kmin", "2", "--kmax", "4",
                       "--out", str(p)) == 0
        outs.append([l for l in p.read_text().splitlines() if not l.startswith("#")])
    assert outs[0] == outs[1]


def assert_refused_above_max_support(run_limited, *argv,
                                     cap=f"MAX_SUPPORT = {1 << 30}"):
    """Run the CLI in a child under a 3 GiB address-space limit and check
    that it refuses with exit 2, naming ``cap``, and no traceback."""
    proc = run_limited("-m", "roughmax.cli", *argv)
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert f"exceeds {cap}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,cap", [
    (("ergodic", "--h", "pure:1.5:1.0", "--system", "shift:100000000000:1",
      "--f", "indicator:0", "--kmin", "1", "--kmax", "2"),
     f"MAX_STATES = {1 << 31}"),
    (("weaktype", "--h", "pure:1.5:1.0", "--nlo", "1", "--nhi", "2",
      "--corpus", "random:5000000000:1"), f"MAX_SUPPORT = {1 << 30}"),
], ids=["ergodic-system-m", "weaktype-corpus-K"])
def test_a_spec_size_past_the_cap_is_refused_before_it_is_drawn(
        tmp_path, run_limited, argv, cap):
    # shift:m:step built arange(m) and random:K:seed drew K positions with no
    # check, and died with "Unable to allocate 745. GiB" and "37.3 GiB"; the
    # shift allocates nothing of m now, and m is refused where its arithmetic
    # would leave int64
    assert_refused_above_max_support(run_limited, *argv,
                                     "--out", str(tmp_path / "t.csv"), cap=cap)


def test_ergodic_runs_a_shift_on_2_31_states_under_a_memory_limit(tmp_path,
                                                                 run_limited):
    # m = 2^31 was refused above MAX_SUPPORT = 2^30; its map alone took 16 GiB.
    # A step of m - 1 is a step of -1, so T^j x == x only where m divides j,
    # which no element up to 2^12 does
    out = tmp_path / "t.csv"
    proc = run_limited("-m", "roughmax.cli", "ergodic", "--h", "pure:1.5:1.0",
                       "--system", "shift:2147483648:2147483647", "--x", "2147483647",
                       "--f", "indicator:2147483647", "--kmin", "1", "--kmax", "12",
                       "--out", str(out))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert rows == [f"{k},{1 << k},0,0" for k in range(1, 13)]


def test_seqset_fits_a_quarter_of_the_cap_limit(tmp_path, run_limited):
    # nmax = 2^26 on pure:1.02 needs 47M values of m, below the 2^26 cap,
    # and runs in 0.9 GB of address space, under a 2.5 GiB limit; at a
    # quarter of that (12.1M values of m under 640 MiB) the whole-range
    # arrays of set generation peaked at 0.88 GB and died with a MemoryError,
    # and the CHUNK-blocked walk peaks at 0.31 GB
    out = tmp_path / "s.csv"
    proc = run_limited("-m", "roughmax.cli", "seqset", "--h", "pure:1.02:1.0",
                       "--nmax", str(1 << 24), "--out", str(out), limit=640 << 20)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[-1].startswith(f"{1 << 24},")


def test_weaktype_holds_one_accumulator_under_an_address_space_limit(
        tmp_path, run_limited):
    # M f over pure:1.9 16..24 spans 537 MB: held as one accumulator, the
    # run took over 543 MB of RSS.  Reduced block by block, it takes about
    # 116 MiB of address space in all (41 MB of RSS)
    out = tmp_path / "w.csv"
    proc = run_limited("-m", "roughmax.cli", "weaktype", "--h", "pure:1.9:1.0",
                       "--nlo", "16", "--nhi", "24", "--corpus", "delta",
                       "--out", str(out), limit=300 << 20)
    assert proc.returncode == 0, proc.stderr
    assert len([l for l in out.read_text().splitlines()
                if not l.startswith("#")]) == 65


def test_kernel_decomp_refuses_an_oversized_kernel(tmp_path, run_limited):
    # scale 2^29 on pure:1.9 would need a 14 GiB dense kernel
    assert_refused_above_max_support(
        run_limited, "kernel-decomp", "--h", "pure:1.9:1.0", "--kmin", "29",
        "--kmax", "29", "--out", str(tmp_path / "k.csv"))


def test_expsum_refuses_an_oversized_window(tmp_path, run_limited):
    # the window (N/2, 4N] of N = 2^29 holds 1.88e9 points, a 14 GiB array;
    # in a sweep every window is checked before any scale runs, so the
    # smaller scales (2^28 alone would need 7 GiB) never start, on any
    # number of threads
    assert_refused_above_max_support(
        run_limited, "expsum", "--h", "pure:1.02:1.0", "--bound", "single",
        "--kmin", "29", "--kmax", "29", "--out", str(tmp_path / "e.csv"))
    for bound in ("single", "two", "minnorm"):
        for workers in ("1", "2"):
            assert_refused_above_max_support(
                run_limited, "expsum", "--h", "pure:1.02:1.0", "--bound", bound,
                "--kmin", "12", "--kmax", "29", "--workers", workers,
                "--out", str(tmp_path / f"{bound}-{workers}.csv"))


@pytest.mark.parametrize("bound", ["single", "two", "minnorm"])
def test_expsum_refuses_a_scale_past_the_float_range(tmp_path, capsys, bound):
    # float(2^1030) overflows: the window is counted in integers and refused
    # before any float is formed; it died with an OverflowError traceback
    out = tmp_path / "e.csv"
    assert run_cli("expsum", "--h", "pure:1.02:1.0", "--bound", bound,
                   "--kmin", "1030", "--kmax", "1030", "--out", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "N >= 2^1030" in err and f"exceeds MAX_SUPPORT = {1 << 30}" in err
    assert not out.exists()


def test_an_allocation_the_memory_limit_refuses_exits_2(tmp_path, run_limited):
    # kernel-decomp passes MAX_SUPPORT, then asks for a 7.00 GiB kernel
    # window at scale 2^28, more than the 3 GiB limit
    proc = run_limited("-m", "roughmax.cli", "kernel-decomp", "--h", "pure:1.9:1.0",
                       "--kmin", "28", "--kmax", "28", "--out", str(tmp_path / "k.csv"))
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate"), proc.stderr
    assert "Traceback" not in proc.stderr
    # weaktype on the delta corpus up to 2^28 asked for a 7.50 GiB
    # accumulator and exited 2 the same way; reduced block by block, M f
    # takes about 116 MiB of address space, and the table comes out
    out = tmp_path / "w.csv"
    proc = run_limited("-m", "roughmax.cli", "weaktype", "--h", "pure:1.9:1.0",
                       "--nlo", "27", "--nhi", "28", "--corpus", "delta",
                       "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len([l for l in out.read_text().splitlines()
                if not l.startswith("#")]) == 65


# (growth spec, kmin, kmax): c > 1, c = 1, and a grid whose first octaves lie
# below y0, where the table drops those rows
GROWTH_TABLES = {
    "c-above-1": ("powerlog:1.02:1.0:1.0", 4, 12),
    "c-equals-1": ("powerlog:1.0:1.0:1.0", 4, 12),
    "below-y0": ("powerlog:1.3:1.0:1.0", 2, 6),
}


@pytest.mark.parametrize("label", sorted(GROWTH_TABLES))
def test_growth_table_rows_are_the_aux_report_bits(tmp_path, label):
    spec, kmin, kmax = GROWTH_TABLES[label]
    out = tmp_path / "g.csv"
    assert run_cli("growth-table", "--h", spec, "--kmin", str(kmin),
                   "--kmax", str(kmax), "--out", str(out)) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    table = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    g = parse_growth_spec(spec)
    phi = g.inverse()
    grid = np.unique(np.concatenate([
        np.exp(np.linspace(math.log(max(phi.y0, 2.0 ** k)),
                           math.log(2.0 ** (k + 1)), 9))[:-1]
        for k in range(kmin, kmax)]))
    kept = grid[grid >= phi.y0]
    assert (kept.size < grid.size) == (label == "below-y0")
    rep = build_aux_report(phi, kept)
    expected = {"y": rep.grid, "phi": rep.phi_values}
    expected.update({f"theta{i}": rep.theta_values[i - 1] for i in (1, 2, 3)})
    expected.update({f"vartheta{i}": rep.vartheta_values[i - 1] for i in (1, 2, 3)})
    # each report column has the bits of the public call on the whole grid
    public = {f"theta{i}": phi.theta(kept, i) for i in (1, 2, 3)}
    public.update({f"vartheta{i}": g.vartheta(rep.phi_values, i) for i in (1, 2, 3)})
    if g.c == 1.0:
        expected.update(sigma=rep.sigma_values, tau=rep.tau_values,
                        varrho=rep.varrho_values)
        public.update(sigma=g.vartheta(rep.phi_values, 1),
                      varrho=g.vartheta(rep.phi_values, 2)
                      / g.vartheta(rep.phi_values, 1))
    for name, values in public.items():
        assert np.array_equal(expected[name].view(np.int64),
                              np.asarray(values).view(np.int64)), name
    assert lines[0].split(",") == list(expected)
    for j, name in enumerate(expected):
        assert np.array_equal(table[:, j].view(np.int64),
                              expected[name].view(np.int64)), name


def test_exit_code_validation(tmp_path):
    assert run_cli("seqset", "--h", "pure:2.5:1.0", "--nmax", "10",
                   "--out", str(tmp_path / "x.csv")) == EXIT_VALIDATION


def test_exit_code_for_a_set_above_the_cap(tmp_path, capsys):
    assert run_cli("seqset", "--h", "pure:1.02:1.0", "--nmax", str(1 << 40),
                   "--out", str(tmp_path / "x.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "2^26 cap" in err and "Traceback" not in err
    # few values of m, but n_max past the range where float floors are exact
    assert run_cli("seqset", "--h", "pure:1.9:64", "--nmax", str(1 << 54),
                   "--out", str(tmp_path / "y.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "2^40 cap" in err and "Traceback" not in err


def test_exit_code_for_a_maximal_accumulator_above_the_cap(tmp_path, capsys,
                                                           monkeypatch):
    # every kernel up to 2^10 is under 3.5 * 2^10 wide and fits; the corpus
    # spans 2^14 sites, so its transform length, 2^16, does not.  weaktype
    # holds no array over the whole support, so that is the size it checks
    monkeypatch.setattr(roughmax.signals, "MAX_SUPPORT", 4096)
    assert run_cli("weaktype", "--h", "pure:1.02:1.0", "--nlo", "8", "--nhi", "10",
                   "--corpus", "random:16:7",
                   "--out", str(tmp_path / "x.csv")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "overlap-save transform length 65536" in err and "Traceback" not in err


def test_exit_code_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == EXIT_VALIDATION


def test_exit_code_numeric(monkeypatch, tmp_path):
    import roughmax.cli as cli

    def explode(args):
        raise ConvergenceError("forced for the exit-code contract")

    monkeypatch.setitem(cli.__dict__, "_cmd_seqset", explode)
    # reparse so the subcommand picks up the patched handler
    monkeypatch.setattr(cli, "build_parser", _patched_parser(explode))
    assert cli.main(["seqset", "--h", "pure:1.5:1.0", "--nmax", "10",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_NUMERIC


def _patched_parser(handler):
    import roughmax.cli as cli

    def build():
        ap = cli.argparse.ArgumentParser(prog="roughmax")
        sub = ap.add_subparsers(dest="command", required=True)
        p = sub.add_parser("seqset")
        p.add_argument("--h")
        p.add_argument("--nmax", type=int)
        p.add_argument("--out")
        p.add_argument("--workers", type=int, default=1)
        p.set_defaults(func=handler)
        return ap

    return build
