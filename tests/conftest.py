import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fullerene_belyi import exact
from fullerene_belyi.exact import UniPoly


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
    """The digit widths, in bits, that _packed_sum unpacks at."""
    seen = []
    unpack = exact._unpack

    def spy(x, n, width):
        seen.append(8 * width)
        return unpack(x, n, width)

    monkeypatch.setattr(exact, "_unpack", spy)
    return seen
