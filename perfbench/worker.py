"""Run one ``roughmax`` CLI command in this fresh interpreter and report its cost.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the spec keys
``argv`` (CLI arguments), ``outputs`` (files the command writes), ``trace``
(wrap the package layers first) and ``result`` (where to write the report).

The timed region is the ``roughmax.cli.main`` call only: interpreter start
and imports are the benchmark's ``setup_s``.  ``roughmax`` must be importable
from the checkout's ``src`` directory (the parent sets ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    import roughmax.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"roughmax imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    entry = cli.main
    error = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        rc = entry(list(spec["argv"]))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        sums = tracer.summary(spec["argv"][0])
        sums["cli.output_bytes"] = sum(
            Path(p).stat().st_size for p in spec["outputs"] if Path(p).exists())
        result["trace"] = sums
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
