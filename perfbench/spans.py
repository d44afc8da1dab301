"""Span tracing of the ``roughmax`` layers from outside the package.

``install()`` wraps every public function and method of the layer modules,
on every name that binds it: the package imports with ``from .x import y``,
so a function such as ``generate`` is bound in ``roughmax.seqset``,
``roughmax.cli``, ``roughmax.kernel`` and the package root alike, and a method
alias such as ``InverseFunction.__call__`` is a second binding of ``value``.
A target the metrics need that cannot be found, or an original held where
no wrapper can be installed (in a container or as a default argument), raises
``TraceError``.

Each wrapped call appends a span ``[key, parent, start, end, count]`` to an
in-memory list; ``Tracer.summary`` turns the spans into additive per-command
sums, and ``derive`` turns sums over a workload into the per-layer metrics.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under ``cli.main`` add up to the
command's wall time.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import sys
import time

import numpy as np

LAYERS = ("growth", "seqset", "signals", "kernel", "expsum", "maximal",
          "ergodic", "cli")

COMMANDS = ("growth-table", "seqset", "kernel-decomp", "verify-family",
            "expsum", "weaktype", "cz", "ergodic")

# metric stem -> the wrapped targets ("layer:qualname") whose spans it reports
STEMS = {
    "growth.h_value": ("growth:GrowthFunction.value",),
    "growth.h_deriv": ("growth:GrowthFunction.deriv",),
    "growth.h_value_mp": ("growth:GrowthFunction.value_mp",),
    "growth.phi_value": ("growth:InverseFunction.value",),
    "seqset.generate": ("seqset:generate",),
    "seqset.calibrate": ("seqset:contains_via_inverse_batch",),
    "signals.autocorr": ("signals:autocorrelation_signal",),
    "signals.convolve": ("signals:convolve",),
    "kernel.build": ("kernel:build_kernel",),
    "kernel.gn_profile": ("kernel:gn_profile",),
    "kernel.report": ("kernel:decomposition_report",),
    "kernel.eta": ("kernel:eta",),
    "expsum.phase_sum": ("expsum:single_phase_sum", "expsum:two_phase_sum"),
    "expsum.min_norm": ("expsum:min_norm_sum",),
    "expsum.sweep": ("expsum:ratio_sweep",),
    "maximal.family": ("maximal:build_scale_family",),
    "maximal.operator": ("maximal:maximal_function",),
    "maximal.cz": ("maximal:cz_decompose",),
    "maximal.verify_family": ("maximal:verify_family_hypotheses",),
    "ergodic.average": ("ergodic:ergodic_average",),
    "ergodic.weighted": ("ergodic:weighted_average",),
    "cli.main": ("cli:main",),
}
REQUIRED = tuple(t for targets in STEMS.values() for t in targets)
_STEM_OF = {t: stem for stem, targets in STEMS.items() for t in targets}

# the per-layer metrics, in report order, with their units
PER_LAYER = (
    ("seqset.generate.self_s", "s"),
    ("seqset.generate.elements", "count"),
    ("seqset.generate.ns_per_element", "ns"),
    ("seqset.generate.bytes_per_element", "B"),
    ("seqset.generate.rss_rise_mb", "MB"),
    ("seqset.calibrate.points", "count"),
    ("seqset.calibrate.self_s", "s"),
    ("seqset.self_s", "s"),
    ("growth.h_value.calls", "count"),
    ("growth.h_value.points", "count"),
    ("growth.h_value.self_s", "s"),
    ("growth.h_deriv.calls", "count"),
    ("growth.h_deriv.points", "count"),
    ("growth.h_deriv.self_s", "s"),
    ("growth.h_value_mp.calls", "count"),
    ("growth.phi_value.calls", "count"),
    ("growth.phi_value.points", "count"),
    ("growth.phi_value.self_s", "s"),
    ("growth.phi_value.h_points", "count"),
    ("growth.phi_value.h_evals_per_point", "ratio"),
    ("growth.self_s", "s"),
    ("signals.autocorr.calls", "count"),
    ("signals.autocorr.self_s", "s"),
    ("signals.autocorr.fft_points", "count"),
    ("signals.autocorr.pad_ratio", "ratio"),
    ("signals.convolve.calls", "count"),
    ("signals.convolve.self_s", "s"),
    ("signals.convolve.fft_points", "count"),
    ("signals.convolve.pad_ratio", "ratio"),
    ("signals.self_s", "s"),
    ("kernel.build.self_s", "s"),
    ("kernel.gn_profile.self_s", "s"),
    ("kernel.report.self_s", "s"),
    ("kernel.eta.points", "count"),
    ("kernel.eta.self_s", "s"),
    ("kernel.self_s", "s"),
    ("expsum.phase_sum.calls", "count"),
    ("expsum.phase_sum.terms", "count"),
    ("expsum.phase_sum.self_s", "s"),
    ("expsum.min_norm.self_s", "s"),
    ("expsum.sweep_phi_points", "count"),
    ("expsum.phi_points_per_term", "ratio"),
    ("expsum.self_s", "s"),
    ("maximal.family.self_s", "s"),
    ("maximal.operator.self_s", "s"),
    ("maximal.cz.self_s", "s"),
    ("maximal.cz.atoms", "count"),
    ("maximal.verify_family.self_s", "s"),
    ("maximal.self_s", "s"),
    ("ergodic.average.self_s", "s"),
    ("ergodic.weighted.self_s", "s"),
    ("ergodic.self_s", "s"),
    *((f"cli.{c}.wall_s", "s") for c in COMMANDS),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class TraceError(RuntimeError):
    """A target could not be wrapped, or a binding was left unwrapped."""


# -- what each target counts, computed from its arguments and result ---------

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _points(i, name):
    return lambda a, kw, out: int(np.size(_arg(a, kw, i, name)))


def _fft_size(needed: int) -> int:
    return 1 << (needed - 1).bit_length()


def _fft_autocorr(a, kw, out):
    s = _arg(a, kw, 0, "s")
    if _arg(a, kw, 1, "method", "fast") != "fast" or s.values.size == 0:
        return (0, 0)
    needed = 2 * s.values.size - 1
    return (needed, _fft_size(needed))


def _fft_convolve(a, kw, out):
    x, y = _arg(a, kw, 0, "a"), _arg(a, kw, 1, "b")
    if (_arg(a, kw, 2, "method", "direct") != "fast"
            or x.values.size == 0 or y.values.size == 0):
        return (0, 0)
    needed = x.values.size + y.values.size - 1
    return (needed, _fft_size(needed))


def _phase_terms(a, kw, out):
    p = out.params
    n1 = max(p["N"] / 2.0, p["N"] / 2.0 - p["x"])
    return math.floor(p["N_prime"]) - math.floor(n1)


COUNTERS = {
    "growth:GrowthFunction.value": _points(1, "x"),
    "growth:GrowthFunction.deriv": _points(1, "x"),
    "growth:InverseFunction.value": _points(1, "y"),
    "seqset:generate": lambda a, kw, out: int(out.elements.size),
    "seqset:contains_via_inverse_batch": _points(1, "p"),
    "signals:autocorrelation_signal": _fft_autocorr,
    "signals:convolve": _fft_convolve,
    "kernel:eta": _points(0, "t"),
    "expsum:single_phase_sum": _phase_terms,
    "expsum:two_phase_sum": _phase_terms,
    "maximal:cz_decompose": lambda a, kw, out: len(out.atoms),
}
RSS_TARGETS = ("seqset:generate",)


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# -- installation ----------------------------------------------------------------

def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "roughmax" or name.startswith("roughmax."))]


def _package_classes(modules) -> list:
    seen = {}
    for mod in modules:
        for val in vars(mod).values():
            if inspect.isclass(val) and val.__module__.startswith("roughmax"):
                seen[id(val)] = val
    return list(seen.values())


def discover(layers=LAYERS) -> dict:
    """id(function) -> (key, function) for the public functions and methods
    defined in the layer modules."""
    found = {}
    for layer in layers:
        mod = sys.modules[f"roughmax.{layer}"]
        for name, val in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(val) and val.__module__ == mod.__name__:
                found[id(val)] = (f"{layer}:{val.__qualname__}", val)
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    fn = member.__func__ if isinstance(member, staticmethod) else member
                    if inspect.isfunction(fn):
                        found[id(fn)] = (f"{layer}:{fn.__qualname__}", fn)
    return found


def _bindings(modules, classes):
    """Yield (owner, name, value) for every module global and class attribute."""
    for owner in (*modules, *classes):
        for name, val in list(vars(owner).items()):
            yield owner, name, val


def _held(val):
    """Functions a binding holds where no wrapper can be installed: inside
    containers, or as default arguments."""
    if isinstance(val, dict):
        yield from (*val.keys(), *val.values())
    elif isinstance(val, (list, tuple, set, frozenset)):
        yield from val
    elif inspect.isfunction(val):
        yield from (val.__defaults__ or ())
        yield from (val.__kwdefaults__ or {}).values()


class Tracer:
    """Holds the spans of one process; ``install`` wires it into the package."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(key)
        rss = key in RSS_TARGETS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if rss:
                rss0 = _maxrss_bytes()
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            if rss:
                rec.append(_maxrss_bytes() - rss0)
            return out

        return wrapper

    def install(self, required=REQUIRED) -> None:
        """Wrap every binding of every target."""
        targets = discover()
        keys = {key for key, _ in targets.values()}
        missing = sorted(set(required) - keys)
        if missing:
            raise TraceError(f"wrapper targets not found: {', '.join(missing)}")
        wrappers = {i: self._wrap(key, fn) for i, (key, fn) in targets.items()}
        modules = _package_modules()
        classes = _package_classes(modules)

        def original(val) -> bool:
            return id(val) in targets and targets[id(val)][1] is val

        for owner, name, val in _bindings(modules, classes):
            inner = val.__func__ if isinstance(val, staticmethod) else val
            if original(inner):
                w = wrappers[id(inner)]
                setattr(owner, name,
                        staticmethod(w) if isinstance(val, staticmethod) else w)
        for owner, name, val in _bindings(modules, classes):
            if any(original(v) for v in _held(val)):
                raise TraceError(f"{getattr(owner, '__name__', owner)}.{name} holds "
                                 "a target that is left unwrapped")

    def summary(self, command: str) -> dict:
        """Additive sums over this process's spans (see ``derive``)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, t0, t1, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        under_generate = [False] * len(spans)
        under_sweep = [False] * len(spans)
        sums: dict = {"trace.spans": len(spans), "trace.unaccounted_s": 0.0}

        def add(name, v):
            sums[name] = sums.get(name, 0.0) + v

        for i, (key, parent, t0, t1, cnt, *rest) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            layer = key.split(":", 1)[0]
            add(f"{layer}.self_s", own)
            if parent < 0:
                sums["trace.unaccounted_s"] += dur
            sums["trace.unaccounted_s"] -= own
            pkey = spans[parent][0] if parent >= 0 else None
            if parent >= 0:
                under_generate[i] = under_generate[parent] or pkey == "seqset:generate"
                under_sweep[i] = under_sweep[parent] or pkey == "expsum:ratio_sweep"
            stem = _STEM_OF.get(key)
            if stem is None:
                continue
            if stem == "seqset.calibrate" and not under_generate[i]:
                continue
            add(f"{stem}.calls", 1)
            add(f"{stem}.self_s", own)
            add(f"{stem}.total_s", dur)
            if stem in ("signals.autocorr", "signals.convolve"):
                add(f"{stem}.fft_needed", cnt[0])
                add(f"{stem}.fft_points", cnt[1])
            elif stem == "seqset.generate":
                add("seqset.generate.elements", cnt)
                add("seqset.generate.rss_rise_bytes", rest[0])
                sums["seqset.generate.rss_rise_mb"] = max(
                    sums.get("seqset.generate.rss_rise_mb", 0.0), rest[0] / 2 ** 20)
            elif stem == "expsum.phase_sum":
                add("expsum.phase_sum.terms", cnt)
            elif stem == "maximal.cz":
                add("maximal.cz.atoms", cnt)
            elif key in COUNTERS:
                add(f"{stem}.points", cnt)
            if stem in ("growth.h_value", "growth.h_deriv") \
                    and pkey == "growth:InverseFunction.value":
                add("growth.phi_value.h_points", cnt)
            if stem == "growth.phi_value" and under_sweep[i]:
                add("expsum.sweep_phi_points", cnt)
            if stem == "cli.main":
                add(f"cli.{command}.wall_s", dur)
        return sums


def merge(sums_list) -> dict:
    """Add per-command sums into per-workload sums (the rss rise takes the max)."""
    out: dict = {}
    for sums in sums_list:
        for k, v in sums.items():
            if k.endswith("rss_rise_mb"):
                out[k] = max(out.get(k, 0.0), v)
            else:
                out[k] = out.get(k, 0.0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(sums: dict) -> dict:
    """The PER_LAYER metrics from a workload's sums; absent work reads 0."""
    s = dict(sums)
    s["seqset.generate.ns_per_element"] = 1e9 * _ratio(
        s.get("seqset.generate.total_s", 0.0), s.get("seqset.generate.elements", 0))
    s["seqset.generate.bytes_per_element"] = _ratio(
        s.get("seqset.generate.rss_rise_bytes", 0), s.get("seqset.generate.elements", 0))
    s["growth.phi_value.h_evals_per_point"] = _ratio(
        s.get("growth.phi_value.h_points", 0), s.get("growth.phi_value.points", 0))
    s["expsum.phi_points_per_term"] = _ratio(
        s.get("expsum.sweep_phi_points", 0), s.get("expsum.phase_sum.terms", 0))
    for stem in ("signals.autocorr", "signals.convolve"):
        s[f"{stem}.pad_ratio"] = _ratio(s.get(f"{stem}.fft_needed", 0),
                                        s.get(f"{stem}.fft_points", 0))
    return {name: float(s.get(name, 0.0)) for name, _ in PER_LAYER}
