"""Write the reference tables that ``check.py`` compares outputs with.

Usage: ``python3 perfbench/make_reference.py`` from the root of a checkout.
Runs every seed-independent command of every workload once and copies its
table to ``perfbench/reference/<label>.csv``.  Run it only at a commit whose
outputs are known to be right; the tables are then that commit's outputs.
"""

from __future__ import annotations

import shutil
import sys

import check
import run
import workloads


def main() -> int:
    workdir = run.OUT_ROOT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in workloads.NAMES:
            for cmd in workloads.commands(name, 0, workdir):
                if not cmd.check.get("reference"):
                    continue
                rep = run.run_command(cmd, workdir, trace=False)
                if rep["rc"] != 0:
                    print(f"{cmd.label} failed: {rep.get('error')}", file=sys.stderr)
                    return 1
                shutil.copyfile(workdir / f"{cmd.label}.csv",
                                check.REFERENCE_DIR / f"{cmd.label}.csv")
                print(f"{cmd.label}: {rep['wall_s']:.2f} s")
    finally:
        shutil.rmtree(run.OUT_ROOT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
