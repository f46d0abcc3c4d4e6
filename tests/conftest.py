import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fullerene_belyi
from fullerene_belyi import exact
from fullerene_belyi.exact import UniPoly

SRC = str(Path(fullerene_belyi.__file__).parents[1])


@pytest.fixture
def cold_python():
    """Run `python -S -W error *args` in a fresh interpreter that finds this
    package, and only it, on PYTHONPATH.  Without site, no .pth file
    preloads a module (typing, pathlib) and no installed package (mpmath,
    numpy) is in reach, as on a stdlib-only install; -W error makes every
    warning an error, as pytest's filterwarnings does in process.  `env`
    adds variables; the output stays bytes."""
    def run(*args, cwd=None, timeout=60, env=None):
        return subprocess.run(
            [sys.executable, "-S", "-W", "error", *args], capture_output=True,
            cwd=cwd, timeout=timeout,
            env={**os.environ, "PYTHONPATH": SRC, **(env or {})})
    return run


@pytest.fixture
def cold_cli(cold_python):
    """`fullerene-belyi *argv` on a cold, clean interpreter."""
    def run(*argv, **kwargs):
        return cold_python("-m", "fullerene_belyi.cli", *argv, **kwargs)
    return run


@pytest.fixture(scope="session")
def icosahedral_data():
    """The classical degree-60 solution (P, V, M, k)."""
    P = UniPoly.from_terms({11: 1, 6: -11, 1: -1})
    V = UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1})
    M = UniPoly.from_terms(
        {30: 1, 25: -522, 20: -10005, 10: -10005, 5: 522, 0: 1})
    return P, V, M, 1728


@pytest.fixture
def rng():
    return random.Random(20240501)


@pytest.fixture
def widths(monkeypatch):
    """The digit widths, in bits, of each exact._unpack call: _packed_sum's,
    and the identity's, which reads W''s z^deg O digit when the tops of
    k*Z and Q cancel and names the sides of a failure."""
    seen = []
    unpack = exact._unpack

    def spy(x, n, width):
        seen.append(8 * width)
        return unpack(x, n, width)

    monkeypatch.setattr(exact, "_unpack", spy)
    return seen
