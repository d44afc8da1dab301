"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``
from the root of a checkout.

Anything that wraps the package runs in a subprocess, so the wrappers never
leak into this test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(HERE)]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def _traced_sums(code: str) -> dict:
    """Run ``code`` with the layers wrapped; return the span sums."""
    proc = _python(
        "import json, roughmax.cli, spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "import roughmax\n"
        f"{code}\n"
        "print(json.dumps(tracer.summary('none')))\n")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _seqset_command() -> workloads.Command:
    return workloads.commands("sets", 0, Path("."))[0]


def test_reference_table_passes_and_tampered_integer_cell_fails(tmp_path):
    cmd = _seqset_command()
    ref = (check.REFERENCE_DIR / f"{cmd.label}.csv").read_text(encoding="utf-8")
    (tmp_path / f"{cmd.label}.csv").write_text(ref, encoding="utf-8")
    bench = run.Run([cmd], tmp_path)
    assert bench._verify(cmd, tmp_path, {"digest": "a"}, trace=False)
    assert bench.failed == 0

    lines = ref.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("64,"))
    cells = lines[row].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[row] = ",".join(cells)
    (tmp_path / f"{cmd.label}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert not bench._verify(cmd, tmp_path, {"digest": "b"}, trace=False)
    assert bench.failed == 1


def test_float_cells_compare_within_rtol():
    ref = "# h=x\nk,v\n1,2.0\n"
    assert check.compare_reference("expsum", "# h=x\nk,v\n1,2.000000001\n", ref) == []
    assert check.compare_reference("expsum", "# h=x\nk,v\n1,2.001\n", ref)
    assert check.compare_reference("expsum", "# h=x\nk,v\n2,2.0\n", ref)


def test_pure_power_count_is_exact_at_perfect_powers():
    # 4^1.5 = 8: floor(m^1.5) <= 7 for m = 1..3 only; <= 8 adds m = 4
    assert check.pure_power_count(1.5, 7) == 3
    assert check.pure_power_count(1.5, 8) == 4
    assert check.pure_power_count(1.02, 1) == 1


def test_seeded_inputs_are_byte_identical(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = workloads.commands("averages", 7, dirs[0])
    b = workloads.commands("averages", 7, dirs[1])
    c = workloads.commands("averages", 8, dirs[2])
    data = [(d / "cz-input.csv").read_bytes() for d in dirs]
    assert data[0] == data[1] != data[2]
    assert [(x.argv, x.check) for x in a if x.command != "cz"] \
        == [(x.argv, x.check) for x in b if x.command != "cz"]
    assert [x.argv for x in a if x.command == "weaktype"] \
        != [x.argv for x in c if x.command == "weaktype"]


def test_missing_wrapper_target_fails():
    proc = _python("import roughmax.cli, spans\n"
                   "spans.Tracer().install(spans.REQUIRED + ('kernel:no_such_function',))\n")
    assert proc.returncode != 0
    assert "TraceError" in proc.stderr and "kernel:no_such_function" in proc.stderr


def test_binding_left_unwrapped_fails():
    proc = _python("import roughmax.cli, roughmax.kernel as kernel, spans\n"
                   "kernel._CUTOFFS = {'eta': kernel.eta}\n"
                   "spans.Tracer().install()\n")
    assert proc.returncode != 0
    assert "TraceError" in proc.stderr and "_CUTOFFS" in proc.stderr


def test_every_binding_is_wrapped():
    proc = _python(
        "import roughmax, roughmax.cli, spans\n"
        "spans.Tracer().install()\n"
        "from roughmax import cli, growth, kernel, maximal, seqset\n"
        "assert cli.generate is seqset.generate is roughmax.generate\n"
        "assert hasattr(cli.generate, '__wrapped__')\n"
        "assert hasattr(kernel.autocorrelation_signal, '__wrapped__')\n"
        "assert hasattr(maximal.convolve, '__wrapped__')\n"
        "for name in ('value', 'deriv', 'value_mp'):\n"
        "    assert hasattr(getattr(growth.GrowthFunction, name), '__wrapped__')\n"
        "for name in ('value', 'deriv', 'theta'):\n"
        "    assert hasattr(getattr(growth.InverseFunction, name), '__wrapped__')\n"
        "assert growth.InverseFunction.__call__ is growth.InverseFunction.value\n")
    assert proc.returncode == 0, proc.stderr


def test_derived_ratios_match_hand_counts():
    sums = _traced_sums(
        "import numpy as np\n"
        "from roughmax.signals import Signal\n"
        "phi = roughmax.make_growth('pure', 1.5).inverse()\n"
        "phi.value(np.ones(5))\n"
        "roughmax.autocorrelation_signal(Signal(0, np.ones(5)))\n"
        "roughmax.convolve(Signal(0, np.ones(3)), Signal(0, np.ones(4)), 'fast')\n"
        "roughmax.convolve(Signal(0, np.ones(3)), Signal(0, np.ones(4)))\n")
    m = spans.derive(sums)
    # h(1) = 1 exactly: one bracket check and one converged Newton check per point
    assert m["growth.phi_value.points"] == 5
    assert m["growth.phi_value.h_points"] == 10
    assert m["growth.phi_value.h_evals_per_point"] == 2.0
    # autocorrelation of length 5 needs 9 points, padded to 16
    assert m["signals.autocorr.fft_points"] == 16
    assert m["signals.autocorr.pad_ratio"] == 9 / 16
    # 3 + 4 - 1 = 6 points padded to 8; the direct convolution uses no FFT
    assert m["signals.convolve.calls"] == 2
    assert m["signals.convolve.fft_points"] == 8
    assert m["signals.convolve.pad_ratio"] == 6 / 8


def test_phase_sweep_ratio_on_tiny_cli_config(tmp_path):
    out = tmp_path / "t.csv"
    spec = {"argv": ["expsum", "--h", "pure:1.5:1.0", "--bound", "single",
                     "--kmin", "4", "--kmax", "4", "--params", "m=1", "--out", str(out)],
            "outputs": [str(out)], "trace": True,
            "result": str(tmp_path / "r.json"), "src": str(run.SRC)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          capture_output=True, text=True, env=run._child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    m = spans.derive(report["trace"])
    # N = 16: the window (8, 64] has 56 terms, summed for each of 4 alpha
    # probes; each probe evaluates phi on the 56 terms and once at N, and the
    # resonant probe evaluates phi once at 2N: 1 + 4 * 57 = 229 points
    assert m["expsum.phase_sum.calls"] == 4
    assert m["expsum.phase_sum.terms"] == 224
    assert m["expsum.sweep_phi_points"] == 229
    assert m["expsum.phi_points_per_term"] == pytest.approx(229 / 224, rel=1e-15)
    assert abs(report["trace"]["trace.unaccounted_s"]) < 1e-6
    assert m["cli.expsum.wall_s"] > 0
