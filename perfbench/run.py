"""The roughmax benchmark: ``roughmax`` CLI commands at pinned heavy configs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {sets,decomp,phase,averages} \\
        --seed N --seconds S --trace {0,1}

A closed loop from one process: each command runs alone, in a fresh
interpreter (``worker.py``), as a user's shell invocation would, so no
in-process state is shared between commands.  Each pass runs the workload's
commands once; passes repeat until ``--seconds`` have gone by, and every
timing is the median over passes.  Before untraced passes, ``setup_s`` is the
median over several fresh interpreters of start-up through
``import roughmax.cli``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (sum over the
pass's commands of the ``cli.main`` call), ``cpu_s`` (user + sys of those
calls), ``peak_rss_mb`` (largest ``ru_maxrss`` of the pass's command
processes) and ``setup_s``.  ``--trace 1`` alternates untraced passes with
passes whose workers wrap every layer (``spans.py``) and reports the
per-layer metrics; traced tables must be byte-identical to untraced ones.

Every command is one operation; it fails when it exits nonzero, raises, or
its output fails ``check.py``.  The last line of standard output is the JSON
result.  Without ``src/roughmax`` beside this directory the script exits 2
without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_PROBES = 11
COMMAND_TIMEOUT_S = 150
RUN_BUDGET_S = 150          # stop starting passes past this, whatever --seconds says
ACCOUNTING_SLACK_S = 1e-6   # self times must add up to the command's wall time
_PROBE = "import time, roughmax.cli; print(time.perf_counter())"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter to ``import roughmax.cli`` done."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=_child_env(), timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"importing roughmax.cli failed:\n{proc.stderr}")
    return float(proc.stdout) - t0


def run_command(cmd, outdir: Path, trace: bool) -> dict:
    """Run one command in a fresh worker; returns the worker's report."""
    table = outdir / f"{cmd.label}.csv"
    outputs = [table]
    argv = [*cmd.argv, "--workers", str(workloads.WORKERS), "--out", str(table)]
    if cmd.emit:
        outputs.append(outdir / f"{cmd.label}.elements")
        argv += ["--emit", str(outputs[1])]
    result_path = outdir / f"{cmd.label}.result.json"
    spec = {"argv": argv, "outputs": [str(p) for p in outputs], "trace": trace,
            "result": str(result_path), "src": str(SRC)}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              capture_output=True, text=True, env=_child_env(),
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {COMMAND_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"rc": None, "error": proc.stderr[-4000:] or f"worker exit {proc.returncode}"}
    report = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    report["digest"] = hashlib.sha256(
        b"".join(p.read_bytes() for p in outputs if p.exists())).hexdigest()
    return report


class Run:
    """One benchmark run: its passes, operation counts and failure notes."""

    def __init__(self, cmds: list, workdir: Path):
        self.cmds = cmds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.untraced: list = []    # per pass: list of worker reports
        self.traced: list = []
        self._digest: dict = {}     # label -> digest of the first checked output

    def _fail(self, cmd, why: str) -> None:
        self.failed += 1
        print(f"FAILED {cmd.label}: {why}", file=sys.stderr)

    def run_pass(self, trace: bool) -> None:
        outdir = self.workdir / ("traced" if trace else "plain")
        outdir.mkdir(parents=True, exist_ok=True)
        reports = []
        for cmd in self.cmds:
            self.attempted += 1
            rep = run_command(cmd, outdir, trace)
            reports.append(rep)
            if rep["rc"] != 0 or rep.get("error"):
                rep["ok"] = False
                self._fail(cmd, f"exit {rep['rc']}: {rep.get('error')}")
                continue
            rep["ok"] = self._verify(cmd, outdir, rep, trace)
        (self.traced if trace else self.untraced).append(reports)

    def _verify(self, cmd, outdir: Path, rep: dict, trace: bool) -> bool:
        first = self._digest.get(cmd.label)
        if trace:
            if first is None or rep["digest"] != first:
                self._fail(cmd, "traced output differs from the untraced output")
                return False
            slack = abs(rep["trace"]["trace.unaccounted_s"])
            if slack > ACCOUNTING_SLACK_S:
                self._fail(cmd, f"span self times miss {slack:.3g} s of the wall time")
                return False
            return True
        if rep["digest"] == first:
            return True
        problems = check.check_command(cmd, outdir)
        if problems:
            self._fail(cmd, "; ".join(problems[:5]))
            return False
        self._digest.setdefault(cmd.label, rep["digest"])
        return True


def _median_over_passes(passes: list, key: str) -> float:
    return statistics.median(sum(r.get(key, 0.0) for r in p) for p in passes)


def end_to_end(run: Run, setup: list) -> dict:
    return {
        "wall_s": (_median_over_passes(run.untraced, "wall_s"), "s"),
        "cpu_s": (_median_over_passes(run.untraced, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(
            max(r.get("maxrss_mb", 0.0) for r in p) for p in run.untraced), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(run: Run) -> dict:
    derived = [spans.derive(spans.merge(r["trace"] for r in p if r.get("ok")))
               for p in run.traced]
    traced_wall = _median_over_passes(run.traced, "wall_s")
    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - _median_over_passes(run.untraced, "wall_s")
        else:
            value = statistics.median(d[name] for d in derived)
        out[name] = (value, unit)
    return out


def machine() -> dict:
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = 0
    with open("/proc/meminfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 2 ** 20, 2),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    cmds = workloads.commands(workload, seed, workdir)
    setup = [] if trace else [setup_probe() for _ in range(SETUP_PROBES)]
    run = Run(cmds, workdir)
    start = time.perf_counter()
    while True:
        run.run_pass(False)
        if trace:
            run.run_pass(True)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= RUN_BUDGET_S:
            break
    metrics = per_layer(run) if trace else end_to_end(run, setup)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "roughmax" / "cli.py").is_file():
        print(f"no roughmax package under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
