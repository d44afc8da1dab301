import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import roughmax
from roughmax import generate, identity_growth, make_growth


def values_at(s, x):
    """The values of the signal ``s`` at the integers ``x``: its ``values``
    inside the window at ``offset``, 0 outside; a float for a scalar x."""
    i = np.asarray(x) - s.offset
    inside = (i >= 0) & (i < s.values.size)
    out = np.zeros(i.shape)
    out[inside] = s.values[i[inside]]
    return float(out) if out.ndim == 0 else out


def count_kernel(s, n):
    """The maximal operator's kernel at scale N, over the count of set
    elements up to N: the values of ``kernel._kernel_support`` laid out as
    a Signal."""
    pos, norm = roughmax.kernel._kernel_support(s, n)
    dense = np.zeros(int(pos[-1] - pos[0] + 1))
    dense[pos - pos[0]] = roughmax.kernel._kernel_values(pos, n, norm)
    return roughmax.Signal(int(pos[0]), dense)


def dyadic(lo: int, hi: int) -> list:
    """The scales 2^lo, ..., 2^hi, as the CLI builds them from its exponent
    flags."""
    return [1 << n for n in range(lo, hi + 1)]


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cz_rows(rng):
    """16,000 nonnegative exact-rational ``(x, value)`` rows on both sides of
    0, drawn from the ``random.Random`` ``rng`` as the benchmark's
    ``averages`` workload draws the rows of its ``cz`` input."""
    xs = sorted(rng.sample(range(-(1 << 19), 1 << 19), 16000))
    return [(x, Fraction(rng.randint(1, 60), rng.randint(1, 12))) for x in xs]


def cz_csv(rows) -> str:
    """The ``x,value`` CSV text of ``rows``, as ``cz --input`` reads it."""
    return "x,value\n" + "".join(f"{x},{v}\n" for x, v in rows)


@pytest.fixture(scope="session")
def g15():
    return make_growth("pure", 1.5)


@pytest.fixture(scope="session")
def phi15(g15):
    return g15.inverse()


@pytest.fixture(scope="session")
def g102():
    return make_growth("pure", 1.02)


@pytest.fixture(scope="session")
def phi102(g102):
    return g102.inverse()


@pytest.fixture(scope="session")
def g105():
    return make_growth("pure", 1.05)


@pytest.fixture(scope="session")
def phi105(g105):
    return g105.inverse()


@pytest.fixture(scope="session")
def glog():
    return make_growth("powerlog", 1.02, 1.0, a=1.0, x0=3.0)


@pytest.fixture(scope="session")
def philog(glog):
    return glog.inverse()


@pytest.fixture(scope="session")
def s15_small(g15):
    return generate(g15, 11)


@pytest.fixture(scope="session")
def s15_1m(g15):
    return generate(g15, 10 ** 6 + 1)


@pytest.fixture(scope="session")
def s102_16(g102):
    return generate(g102, 1 << 16)


@pytest.fixture(scope="session")
def s102_22(g102):
    """Shared heavy set: supports kernels up to scale 2^20."""
    return generate(g102, 1 << 22)


@pytest.fixture(scope="session")
def s105_20(g105):
    return generate(g105, 1 << 20)


@pytest.fixture(scope="session")
def gident():
    return identity_growth()


@pytest.fixture(scope="session")
def phident(gident):
    return gident.inverse()


@pytest.fixture(scope="session")
def sident(gident):
    return generate(gident, 1 << 12)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def run_limited():
    """run(*args, limit=3 GiB): ``python *args`` in a child whose address
    space is capped at ``limit`` bytes, so that a regression fails with a
    MemoryError instead of exhausting the machine; returns the finished
    process, with its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(Path(roughmax.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")

    def run(*args, limit=3 << 30):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=120, preexec_fn=cap, env=env)

    return run
