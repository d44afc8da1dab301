"""Tooling guards: no module of the package or of its tests imports a name
it never uses,
every exception type the package defines is raised somewhere in it, every
module-level private function is used somewhere outside its own body, every
public module-level name and every method or property of a package class is
read by the package, the acceptance criteria or the benchmark's tracer, no
function takes a set or a kernel beside an inverse that must match it, no
public function but the CLI's takes a range of scale exponents,
the CLI takes no private name from another package module, no module but
``growth`` imports mpmath or reads ``_exact``, none imports the thread pool
of ``concurrent.futures``, no dataclass that holds an
array takes the generated ``==``, and the benchmark's span tracer still
installs on the package and counts the terms of a phase sum."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from roughmax import single_phase_sum, two_phase_sum
from roughmax.expsum import _single_setup, _two_setup

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roughmax"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression ever reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unraised_errors(errors_source: str, sources) -> list:
    """Classes defined in ``errors_source``, the base RoughMaxError aside, that
    no ``raise`` statement in ``sources`` names."""
    defined = [n.name for n in ast.parse(errors_source).body
               if isinstance(n, ast.ClassDef) and n.name != "RoughMaxError"]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [name for name in defined if name not in raised]


def test_guard_flags_an_unused_import():
    src = "import math\nimport sys\nfrom os import path, sep\nprint(sys.argv, sep)\n"
    assert unused_imports(src) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize(
    "module", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_guard_flags_an_error_nothing_raises():
    errors = ("class RoughMaxError(Exception):\n    pass\n"
              "class AError(RoughMaxError):\n    pass\n"
              "class BError(RoughMaxError):\n    pass\n"
              "class CError(RoughMaxError):\n    pass\n"
              "NUMERIC = (AError, BError, CError)\n")
    users = ["from .errors import AError, BError, CError\n"
             "def f(x):\n"
             "    if x:\n"
             "        raise AError('a')\n"
             "    try:\n"
             "        pass\n"
             "    except CError:\n"
             "        raise\n",
             "from . import errors\n"
             "def g():\n"
             "    raise errors.BError\n"]
    assert unraised_errors(errors, users) == ["CError"]
    assert unraised_errors(errors, users[:1]) == ["BError", "CError"]


def test_every_error_type_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert unraised_errors(errors, sources) == []


# modules whose attributes never read a package name, though they may share
# one (np.convolve beside signals.convolve)
FOREIGN = {"np", "math", "mpmath"}


def _foreign(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id in FOREIGN


def _names_read(node) -> set:
    """Names, attributes (of anything but np, math and mpmath) and imported
    names anywhere inside ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and not _foreign(n):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _attributes_read(node) -> Counter:
    """How often each attribute is loaded inside ``node``, attributes of np,
    math and mpmath aside."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                   and not _foreign(n))


def dead_private_functions(sources) -> list:
    """Module-level ``_private`` functions that no top-level statement in
    ``sources`` names, their own ``def`` aside."""
    private, statements = [], []
    for source in sources:
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                private.append(node)
            statements.append((node, _names_read(node)))
    return sorted(d.name for d in private
                  if not any(d.name in names for node, names in statements
                             if node is not d))


def test_guard_flags_a_dead_private_function():
    users = ["def _dead(n):\n    return _dead(n - 1) if n else 0\n"
             "def _local():\n    return 1\n"
             "def _imported():\n    return 2\n"
             "def _called():\n    return 3\n"
             "def public():\n    return _local()\n",
             "from .a import _imported\n"
             "from . import a\n"
             "x = a._called()\n"]
    assert dead_private_functions(users) == ["_dead"]
    assert dead_private_functions(users[:1]) == ["_called", "_dead", "_imported"]


def test_every_private_function_is_used():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.parent.rglob("*.py")]
    assert dead_private_functions(sources) == []


# methods the constructor calls by itself, which no code needs to name
HOOKS = {"__init__", "__post_init__"}


def unread_public_names(modules: dict, readers, targets: str) -> list:
    """Public module-level functions and classes of ``modules`` (module name
    -> source), as ``"module:name"``, that no other top-level statement of
    ``modules`` reads, no source in ``readers`` reads, and no
    ``"module:qualname"`` string in ``targets`` names; then the methods and
    properties of their classes, public and private, as
    ``"module:Class.name"``, that no attribute load in ``modules`` or
    ``readers`` outside their own ``def`` reads and no target names.

    An attribute of np, math or mpmath never reads a package name, and a
    method is never read by a bare name: a builtin call ``reversed(x)`` or a
    local variable ``tau`` leaves the methods of those names unread.  Two
    cases are out of the guard's reach.  An operator dunder is called by its
    operator (``a + b`` calls ``__add__``, ``s(x)`` calls ``__call__``), which
    names no attribute, so a dunder in use reads as unread; the constructor
    hooks in ``HOOKS`` are not checked.  A class-body alias
    (``__rmul__ = __mul__``) is not itself checked, and it reads its target.
    """
    traced = set(re.findall(r'"(\w+:[\w.]+)"', targets))
    traced |= {t.split(".")[0] for t in traced}
    read = set().union(*(_names_read(ast.parse(r)) for r in readers))
    loads = sum((_attributes_read(ast.parse(r)) for r in readers), Counter())
    public, statements, methods = [], [], []
    for module, source in modules.items():
        tree = ast.parse(source)
        loads += _attributes_read(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.append((module, node))
            statements.append((node, _names_read(node)))
            if isinstance(node, ast.ClassDef):
                aliased = {a.value.id for a in node.body
                           if isinstance(a, ast.Assign) and isinstance(a.value, ast.Name)}
                methods += [(module, node.name, d, aliased) for d in node.body
                            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and d.name not in HOOKS]
    unread = [f"{m}:{d.name}" for m, d in public
              if d.name not in read and f"{m}:{d.name}" not in traced
              and not any(d.name in names for node, names in statements
                          if node is not d)]
    unread += [f"{m}:{c}.{d.name}" for m, c, d, aliased in methods
               if loads[d.name] == _attributes_read(d)[d.name]
               and d.name not in aliased and f"{m}:{c}.{d.name}" not in traced]
    return sorted(unread)


def test_guard_flags_an_unread_public_name():
    modules = {"a": '"""Module docstring naming dead."""\n'
                    "def dead(n):\n    return dead(n - 1) if n else 0\n"
                    "def local():\n    return 1\n"
                    "def api():\n    return local()\n"
                    "class Traced:\n    def value(self):\n        return Traced()\n"
                    "def _private():\n    return 2\n",
               "b": "from .a import api\n"
                    "def tested():\n    return 3\n"
                    "def traced_elsewhere():\n    return 4\n"}
    readers = ["from roughmax import tested\n"]
    targets = 'STEMS = {"x": ("a:Traced.value", "c:traced_elsewhere")}\n'
    assert unread_public_names(modules, readers, targets) == [
        "a:dead", "b:traced_elsewhere"]
    assert unread_public_names(modules, [], "") == [
        "a:Traced", "a:Traced.value", "a:dead", "b:tested", "b:traced_elsewhere"]


def test_guard_flags_an_unread_method():
    modules = {"a": "class S:\n"
                    "    def __post_init__(self):\n        self._own()\n"
                    "    def _own(self):\n        return self\n"
                    "    @property\n    def size(self):\n        return 1\n"
                    "    def __add__(self, other):\n        return self\n"
                    "    def __mul__(self, k):\n        return self\n"
                    "    __rmul__ = __mul__\n"
                    "    def traced(self):\n        return 2\n"
                    "    def tested(self):\n        return 3\n"
                    "    def dead(self):\n        return 4\n",
               "b": "from .a import S\n"
                    "def api(s):\n    return s.size\n"}
    readers = ["from roughmax import api\napi(S()).tested()\n"]
    targets = 'STEMS = {"x": ("a:S.traced",)}\n'
    # a used operator dunder reads as unread: ``a + b`` names no attribute
    assert unread_public_names(modules, readers, targets) == ["a:S.__add__", "a:S.dead"]
    assert unread_public_names(modules, [], "") == [
        "a:S.__add__", "a:S.dead", "a:S.tested", "a:S.traced", "b:api"]


@pytest.mark.parametrize("source, flagged", [
    ("def convolve(a, b):\n    return a\n"
     "def api(a, b):\n    return np.convolve(a, b)\n", "a:convolve"),
    ("class S:\n    def reversed(self):\n        return self\n"
     "def api(items):\n    return S(), reversed(items)\n", "a:S.reversed"),
    ("class P:\n    def tau(self):\n        return 1\n"
     "    def _tau(self):\n        return 2\n"
     "def api(p):\n    tau = p._tau()\n    return P(), tau\n", "a:P.tau"),
    ("class W:\n    def walk(self, n):\n        return self.walk(n - 1) if n else 0\n"
     "def api():\n    return W()\n", "a:W.walk"),
], ids=["np-attribute", "builtin-call", "local-variable", "own-body"])
def test_guard_sees_past_a_name_collision(source, flagged):
    modules = {"a": source, "b": "from .a import api\n"}
    assert unread_public_names(modules, [], "") == [flagged]


# public names that only tests read, each kept for the reason given
UNREAD_PUBLIC_KEPT = {
    "growth:identity_growth": "the identity oracle behind the gident, phident "
                              "and sident fixtures",
    "kernel:compute_gn": "the direct-summation oracle that gn_profile is "
                         "checked against",
    "kernel:autocorrelation": "the full-grid oracle for decomposition_report's "
                              "half-lag sups",
    "cli:parse_meta": "reads a table's header back for the config round-trip test",
    "maximal:CZDecomposition.index_set": "the selected-cube set the stopping-time "
                                         "tests compare with the stack reference",
    "signals:Signal.__eq__": "the == of equal-content signals, which names no "
                             "attribute",
}


def test_every_public_name_is_read():
    root = PACKAGE.parents[1]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [(root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    targets = (root / "perfbench" / "spans.py").read_text(encoding="utf-8")
    assert unread_public_names(modules, readers, targets) == sorted(UNREAD_PUBLIC_KEPT)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list:
    """``_private`` names that ``source`` takes from another package module,
    as ``"module:name"``: imported from it (``from .m import _name``), or
    read off a module imported relatively (``from . import m``, then
    ``m._name``).  Dunders such as ``__version__`` are public."""
    tree = ast.parse(source)
    modules, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    out.add(f"{node.module}:{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            out.add(f"{node.value.id}:{node.attr}")
    return sorted(out)


@pytest.mark.parametrize("source, flagged", [
    ("from .maximal import _cover_counts, cz_decompose\n"
     "from . import __version__, signals\n"
     "def api(cz):\n    return signals._check_size(_cover_counts(cz), 'n')\n",
     ["maximal:_cover_counts", "signals:_check_size"]),
    ("from . import __version__, signals\n"
     "from .maximal import cz_decompose\n"
     "from numpy import _NoValue\n"
     "def _own():\n    return signals.MAX_SUPPORT, _NoValue\n"
     "def api(cz):\n    return cz._atoms(), _own()\n", []),
], ids=["private-names", "public-surface"])
def test_guard_flags_a_private_import(source, flagged):
    assert private_imports(source) == flagged


def test_the_cli_reads_only_public_names_of_the_package():
    assert private_imports((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def set_and_inverse_params(source: str) -> list:
    """Functions with a parameter annotated ``SequenceSet`` or ``Kernel`` and
    another annotated ``InverseFunction`` (``| None`` and the like included):
    the set carries its own inverse as ``s.phi``, and a kernel its set as
    ``k.s``, so the second can only disagree."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = set()
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.annotation is not None:
                    names |= _names_read(arg.annotation)
            if "InverseFunction" in names and names & {"SequenceSet", "Kernel"}:
                out.append(node.name)
    return sorted(out)


def test_guard_flags_a_set_beside_its_inverse():
    src = ("def both(s: SequenceSet, phi: InverseFunction, n: int): pass\n"
           "def maybe(s: SequenceSet, phi: InverseFunction | None = None): pass\n"
           "def qualified(s: seqset.SequenceSet, *, phi: growth.InverseFunction): pass\n"
           "def set_only(s: SequenceSet, n: int): pass\n"
           "def inverse_only(phi: InverseFunction, n: int): pass\n"
           "def kernel(k: Kernel, phi: InverseFunction): pass\n"
           "def kernel_only(k: kernel.Kernel, n: int): pass\n"
           "class K:\n"
           "    def method(self, s: SequenceSet, phi: InverseFunction): pass\n")
    assert set_and_inverse_params(src) == ["both", "kernel", "maybe", "method",
                                           "qualified"]


def test_no_call_takes_a_set_and_its_inverse():
    assert [name for p in MODULES
            for name in set_and_inverse_params(p.read_text(encoding="utf-8"))] == []


EXPONENT_RANGE = {"k_lo", "k_hi", "n_lo", "n_hi"}


def exponent_range_params(source: str) -> list:
    """Public functions and methods with a parameter named k_lo, k_hi, n_lo
    or n_hi: a function that sweeps scales takes the scales N themselves, and
    only the CLI turns its exponent flags into 2^k."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _private(node.name)):
            a = node.args
            if {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs} & EXPONENT_RANGE:
                out.append(node.name)
    return sorted(out)


def test_guard_flags_an_exponent_range():
    src = ("def sweep(phi, m: int, k_lo: int, k_hi: int): pass\n"
           "def family(s, n_lo, n_hi): pass\n"
           "def keyword(s, *, n_hi=3): pass\n"
           "def listed(s, scales, workers=1): pass\n"
           "def _helper(k_lo, k_hi): pass\n"
           "class F:\n"
           "    def at(self, k_lo): pass\n")
    assert exponent_range_params(src) == ["at", "family", "keyword", "sweep"]


def test_no_library_function_takes_an_exponent_range():
    assert [name for p in MODULES if p.stem != "cli"
            for name in exponent_range_params(p.read_text(encoding="utf-8"))] == []


def precision_leaks(modules: dict) -> list:
    """``"module:mpmath"`` for each module of ``modules`` (module name ->
    source) but ``growth`` that imports mpmath, and ``"module:_exact"`` for
    each that reads an attribute named ``_exact``: the working precision of
    every floor, and the integers of its exact sign test, stay in ``growth``."""
    out = set()
    for module, source in modules.items():
        if module == "growth":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            if any(n.split(".")[0] == "mpmath" for n in names):
                out.add(f"{module}:mpmath")
            if isinstance(node, ast.Attribute) and node.attr == "_exact":
                out.add(f"{module}:_exact")
    return sorted(out)


def test_guard_flags_precision_outside_growth():
    modules = {"growth": "import mpmath\ndef sign(g):\n    return g._exact\n",
               "a": "import numpy as np, mpmath as mp\n",
               "b": "from mpmath.libmp import mpf_log\n",
               "c": "def sign(g):\n    return g._exact is not None\n",
               "d": "from .growth import MP_DPS\n"
                    "def f(g):\n    return g.exact, g._exact_value, MP_DPS\n"}
    assert precision_leaks(modules) == ["a:mpmath", "b:mpmath", "c:_exact"]
    assert precision_leaks({"seqset": modules["growth"]}) == [
        "seqset:_exact", "seqset:mpmath"]


def test_only_growth_holds_the_working_precision():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert precision_leaks(modules) == []


def imports_of(source: str, package: str) -> bool:
    """Whether ``source`` imports ``package`` or a module under it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == package or n.startswith(package + ".") for n in names):
            return True
    return False


def test_guard_flags_a_thread_pool_import():
    assert imports_of("import concurrent.futures\n", "concurrent.futures")
    assert imports_of("def f():\n    from concurrent.futures import ThreadPoolExecutor\n",
                      "concurrent.futures")
    assert imports_of("from concurrent import futures\n", "concurrent.futures")
    assert not imports_of("import threading\nfrom .util import futures\n",
                          "concurrent.futures")


def test_threads_start_without_the_thread_pool_module():
    # util.map_scales starts plain threads: no module imports the pool, and a
    # threaded expsum run leaves it unloaded, which saves its ~0.35 MB of RSS
    assert [p.name for p in (*MODULES, PACKAGE / "__init__.py")
            if imports_of(p.read_text(encoding="utf-8"), "concurrent.futures")] == []
    code = ("import sys, threading\nimport roughmax.cli\nstarted = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda t: (started.append(t), start(t))\n"
            "argv = ['expsum', '--h', 'pure:1.05:1.0', '--bound', 'two', '--kmin', '8',\n"
            "        '--kmax', '10', '--workers', '2', '--out', sys.argv[1]]\n"
            "assert roughmax.cli.main(argv) == 0\n"
            "print(len(started), 'concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", code, os.path.join(tmp, "t.csv")],
                              capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "False"]


def comparable_array_records(source: str) -> list:
    """Dataclasses with a field annotated ``np.ndarray`` (``| None`` and the
    like included) that neither pass ``eq=False`` nor define ``__eq__``: the
    generated ``==`` compares the fields as tuples, which raises on an array
    of two or more values, and the generated hash raises on any array."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            call = d if isinstance(d, ast.Call) else None
            if "dataclass" in _names_read(call.func if call else d):
                break
        else:
            continue
        eq = {k.arg: k.value for k in call.keywords}.get("eq") if call else None
        if isinstance(eq, ast.Constant) and eq.value is False:
            continue
        if any(isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in node.body):
            continue
        if any(isinstance(f, ast.AnnAssign) and "ndarray" in {
                   getattr(n, "attr", getattr(n, "id", None))
                   for n in ast.walk(f.annotation)}
               for f in node.body):
            out.append(node.name)
    return sorted(out)


def test_guard_flags_an_array_record_with_the_generated_eq():
    src = ("@dataclass(frozen=True)\nclass Flagged:\n    v: np.ndarray\n"
           "@dataclasses.dataclass\nclass Optional:\n    n: int\n"
           "    v: ndarray | None = None\n"
           "@dataclass(frozen=True, eq=False)\nclass ByIdentity:\n    v: np.ndarray\n"
           "@dataclass(frozen=True, eq=False)\nclass OwnEq:\n    v: np.ndarray\n"
           "    def __eq__(self, other):\n        return True\n"
           "@dataclass(eq=True)\nclass EqOnly:\n    v: np.ndarray\n"
           "    def __eq__(self, other):\n        return True\n"
           "@dataclass(frozen=True)\nclass NoArray:\n    v: tuple\n"
           "class Plain:\n    v: np.ndarray\n")
    assert comparable_array_records(src) == ["Flagged", "Optional"]


def test_no_array_record_takes_the_generated_eq():
    assert [name for p in MODULES
            for name in comparable_array_records(p.read_text(encoding="utf-8"))] == []


def test_the_benchmark_tracer_installs():
    # perfbench/spans.py raises TraceError when a function it reports on is
    # gone, or when a public function is held where no wrapper can reach it
    # (in a container or as a default argument); install wraps the package in
    # place, so it runs in a fresh interpreter
    perfbench = PACKAGE.parents[1] / "perfbench"
    code = (f"import sys\nsys.path.insert(0, {str(perfbench)!r})\n"
            "import roughmax.cli\nimport spans\nspans.Tracer().install()\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_the_benchmark_phase_counter_counts_the_summed_terms(phi105):
    # the benchmark's expsum.phase_sum.terms is the number of points each
    # phase sum adds up, which perfbench/spans.py reads from the result's
    # params N, x and N_prime (the window's last point)
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    n = 1 << 10
    x = int(math.ceil(float(phi105.value(float(n)))))
    for result, setup in (
            (single_phase_sum(phi105, n, -5, 0.25, 2, 1, 0),
             _single_setup(phi105, n, -5, 2, 1, 0)),
            (two_phase_sum(phi105, n, x, 0.25, 1, -1, 1.0),
             _two_setup(phi105, n, x, 1, -1, 1.0))):
        assert spans._phase_terms((), {}, result) == setup.k
