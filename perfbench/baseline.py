"""Record the machine and a baseline of the benchmark at the current commit.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py [--seeds 10] [--seconds S] [--out perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed untraced, and reports
each end-to-end metric's median, quartiles and spread (interquartile range
over median); then it runs two traced runs on one seed and checks that the
exact counts repeat.  It also re-measures the rows of the ROADMAP baseline
table, each in a fresh interpreter, and lists (without failing) every row
outside its quoted range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

# Counts that must repeat exactly between two traced runs on the same seed.
EXACT_COUNTS = ("growth.h_value_mp.calls", "seqset.generate.elements",
                "expsum.phase_sum.terms", "maximal.cz.atoms",
                "signals.autocorr.fft_points", "signals.convolve.fft_points")

# (name, code timed in a fresh interpreter, quoted range of seconds, quoted MB)
_SETUP_102 = ("from roughmax import make_growth, generate\n"
              "g = make_growth('pure', 1.02); phi = g.inverse()\n")
ROADMAP_ROWS = (
    ("generate(pure:1.02, 2^22)", _SETUP_102, "generate(g, 1 << 22)",
     (3.3, 3.8), 351.0),
    ("ratio_sweep(pure:1.05, single, m=1, 12..20)",
     "from roughmax import make_growth, ratio_sweep\n"
     "phi = make_growth('pure', 1.05).inverse()\n",
     "ratio_sweep(phi, 'single', 1, 12, 20)", (4.2, 5.5), None),
    ("decomposition_report sweep 2^12..2^20",
     _SETUP_102 + "from roughmax import Normalization, build_kernel, decomposition_report\n"
                  "s = generate(g, 1 << 22)\n",
     "[decomposition_report(build_kernel(s, phi, 1 << k, Normalization.PHI_APPROX), phi)"
     " for k in range(12, 21)]", (3.6, 4.4), None),
)
APPROX = 0.1  # a quoted "~x" is read as x +- 10%
REPEATS = 3


def _timed(setup: str, stmt: str) -> dict:
    code = ("import json, resource, time\n" + setup
            + f"t0 = time.perf_counter()\n{stmt}\n"
            "print(json.dumps({'s': time.perf_counter() - t0, 'mb': "
            "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=run._child_env(), timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def roadmap_rows() -> list:
    rows = []
    for name, setup, stmt, (lo, hi), mb in ROADMAP_ROWS:
        samples = [_timed(setup, stmt) for _ in range(REPEATS)]
        sec = statistics.median(x["s"] for x in samples)
        peak = statistics.median(x["mb"] for x in samples)
        notes = []
        if not lo <= sec <= hi:
            notes.append(f"{sec:.2f} s outside the quoted {lo}-{hi} s")
        if mb is not None and abs(peak - mb) > APPROX * mb:
            notes.append(f"{peak:.0f} MB outside the quoted ~{mb:.0f} MB")
        rows.append({"row": name, "seconds": sec, "peak_mb": peak,
                     "samples": samples, "differs": notes})
    return rows


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def workload_baseline(workload: str, seeds: int, seconds: int, bounds: dict) -> dict:
    runs = [_bench(workload, seed, seconds, 0) for seed in range(1, seeds + 1)]
    out = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        out["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds[name], "steady": spread < bounds[name] / 3,
            "values": values}
    traced = [_bench(workload, 1, seconds, 1) for _ in range(2)]
    metrics = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
    out["per_layer"] = metrics[0]
    out["exact_counts_repeat"] = {k: metrics[0][k] == metrics[1][k] for k in EXACT_COUNTS}
    out["trace_failed"] = sum(t["failed"] for t in traced)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"machine": run.machine(), "run_seconds": seconds,
              "roadmap_rows": roadmap_rows(), "workloads": {}}
    for row in result["roadmap_rows"]:
        for note in row["differs"]:
            print(f"ROADMAP row {row['row']}: {note}")
    for name in workloads.NAMES:
        wl = workload_baseline(name, args.seeds, seconds, bounds)
        result["workloads"][name] = wl
        for metric, m in wl["metrics"].items():
            print(f"{name} {metric}: median {m['median']:.4g} spread {m['spread']:.4f}"
                  f" (bound {m['bound']}){'' if m['steady'] else ' NOT STEADY'}")
        print(f"{name}: {wl['failed']} of {wl['attempted']} operations failed; "
              f"exact counts repeat: {all(wl['exact_counts_repeat'].values())}")
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
