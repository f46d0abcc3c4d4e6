"""Genuine Belyi maps beyond the presets, from a derandomized strategy.

beta = c*z^a*(1 - z)^b with c = (a + b)^(a + b)/(a^a*b^b) is a Belyi map of
degree n = a + b: its finite critical points are 0, 1 and a/n, where beta
takes the values 0, 0 and 1, and infinity is a pole of order n.  Its zero
side is z^a*(z - 1)^b with k = (-1)^b*c, and beta - 1 vanishes to order two
at a/n and simply at the n - 2 other roots, so its passport is
(a b | 2 1^(n-2) | n).  Skipped when hypothesis is not installed.
"""

import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fullerene_belyi.belyi import (FactoredBelyi, IdentityFailed,  # noqa: E402
                                   Passport)
from fullerene_belyi.exact import GaussRat, UniPoly  # noqa: E402
from oracles import is_tight, reference_verify, replace_fields  # noqa: E402

# the wall-time bound of one example, in seconds
WALL_S = 2.0

MAPS = settings(derandomize=True, database=None, deadline=None)


def two_point_map(a: int, b: int) -> FactoredBelyi:
    """c*z^a*(1 - z)^b in factored form.  The one side is (z - a/n)^2
    times the cofactor that exact division leaves, which is constant for
    a = b = 1 (beta = 4z(1 - z), beta - 1 = -(2z - 1)^2)."""
    n = a + b
    k = GaussRat.of((-1) ** b * Fraction(n ** n, a ** a * b ** b))
    z, one = UniPoly.x(), UniPoly.one()
    zeros = ((z, a), (z - one, b))
    double = z - one * Fraction(a, n)
    ones = ((z ** a * (z - one) ** b).scale(k) - one).monic()
    cofactor = ones.divide_exact(double * double)
    one_factors = ((double, 2),) + (((cofactor, 1),) if cofactor.degree else ())
    return FactoredBelyi(k, zeros, one_factors, (), "pole", n)


@st.composite
def two_point_maps(draw):
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return a, b, two_point_map(a, b)


@MAPS
@given(two_point_maps())
def test_two_point_maps_verify_with_their_passport(case):
    a, b, beta = case
    start = time.perf_counter()
    passport = Passport.of([a, b], [2] + [1] * (a + b - 2), [a + b])
    assert beta.verify() == passport == reference_verify(beta)
    assert is_tight(beta)
    assert time.perf_counter() - start < WALL_S


@MAPS
@given(two_point_maps())
def test_two_point_maps_round_trip_through_text(case):
    _, _, beta = case
    parsed = FactoredBelyi.from_text(beta.to_text())
    assert parsed == beta and parsed.to_text() == beta.to_text()
    assert parsed.verify() == beta.verify()


@MAPS
@given(two_point_maps(), st.sampled_from([GaussRat.of(1), GaussRat.of(-1),
                                          GaussRat.of(0, 1), GaussRat.of(Fraction(1, 7))]))
def test_two_point_maps_with_a_perturbed_k_are_refused(case, delta):
    """k + delta is never 0 (|k| >= 4), so the perturbed document stays
    tight, and only the identity can fail."""
    _, _, beta = case
    perturbed = replace_fields(beta, k=beta.k + delta)
    assert is_tight(perturbed)
    with pytest.raises(IdentityFailed, match="^k\\*zeros - poles does not factor "
                                             "as declared: got ") as exc:
        perturbed.verify()
    with pytest.raises(IdentityFailed) as ref:
        reference_verify(perturbed)
    assert str(exc.value) == str(ref.value)
