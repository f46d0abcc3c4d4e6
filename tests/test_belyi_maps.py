"""Genuine Belyi maps beyond the presets, from a derandomized strategy.

beta = c*z^a*(1 - z)^b with c = (a + b)^(a + b)/(a^a*b^b) is a Belyi map of
degree n = a + b: its finite critical points are 0, 1 and a/n, where beta
takes the values 0, 0 and 1, and infinity is a pole of order n.  Its zero
side is z^a*(z - 1)^b with k = (-1)^b*c, and beta - 1 vanishes to order two
at a/n and simply at the n - 2 other roots, so its passport is
(a b | 2 1^(n-2) | n) (oracles.two_point_map).

z^n is the other family: its zero side is z^n, beta - 1 = z^n - 1 is
squarefree, and infinity is a pole of order n, so its passport is
(n | 1^n | n).  The presets join them, and two operations keep any of these
maps Belyi with a passport known in advance.  beta(z^m), for a map with 0
and infinity in its fibres: z -> z^m is m-to-1 away from 0 and infinity and
totally ramified at both, so each other root gives m points with its part,
and the parts at 0 and at infinity are multiplied by m.  beta(mu(z)) for a
Moebius map mu: mu is a bijection of the sphere, so the passport stays.
Skipped when hypothesis is not installed.
"""

import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from fullerene_belyi.belyi import (FactoredBelyi, IdentityFailed,  # noqa: E402
                                   Passport, fullerene_passport)
from fullerene_belyi.cli import PRESETS, load_preset  # noqa: E402
from fullerene_belyi.exact import GaussRat  # noqa: E402
from fullerene_belyi.moebius import Moebius, factored_compose_moebius  # noqa: E402
from oracles import (is_tight, power_map, reference_verify,  # noqa: E402
                     replace_fields, two_point_map)

# the wall-time bound of one example, in seconds
WALL_S = 2.0

MAPS = settings(derandomize=True, database=None, deadline=None)


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


# the presets' passports: d60 and d72 are the C20 and C24 fullerenes, d12 is
# d60 divided by z -> z^5 (the 5-fold points 0 and infinity become simple,
# the 10 other faces 2 orbits), and d6 is d12 divided by a further involution
PRESET_PASSPORTS = {"d6": Passport.of([3, 3], [2, 2, 1, 1], [5, 1]),
                    "d12": Passport.of([3] * 4, [2] * 6, [5, 5, 1, 1]),
                    "d60": fullerene_passport(0), "d72": fullerene_passport(2)}


@st.composite
def belyi_maps(draw, presets=PRESETS):
    """(beta, its passport) for beta a two-point map, z^n or one of the
    presets."""
    family = draw(st.sampled_from(("two-point", "power", "preset")))
    if family == "two-point":
        a, b, beta = draw(two_point_maps())
        return beta, Passport.of([a, b], [2] + [1] * (a + b - 2), [a + b])
    if family == "power":
        n = draw(st.integers(1, 12))
        return power_map(n), Passport.of([n], [1] * n, [n])
    name = draw(st.sampled_from(presets))
    return load_preset(name), PRESET_PASSPORTS[name]


def power_passport(beta: FactoredBelyi, m: int) -> Passport:
    """The passport of beta(z^m) (module docstring), for beta with 0 and
    infinity in its fibres."""
    fibres, at_zero = [], 0
    for side, factors in (("zero", beta.zero_factors), ("one", beta.one_factors),
                          ("pole", beta.pole_factors)):
        parts = []
        for f, e in factors:
            root_zero = f.coefficient(0).is_zero
            at_zero += root_zero
            parts += [m * e] * root_zero + [e] * (m * (f.degree - root_zero))
        if beta.infinity_side == side:
            parts.append(m * beta.infinity_order)
        fibres.append(parts)
    assert at_zero == 1 and beta.infinity_side != "none"
    return Passport.of(*fibres)


def assert_belyi(beta: FactoredBelyi, passport: Passport) -> None:
    """verify accepts beta with this passport, as the reference does, and
    beta is tight; all within the wall-time bound."""
    start = time.perf_counter()
    assert beta.verify() == passport
    assert time.perf_counter() - start < WALL_S
    assert reference_verify(beta) == passport and is_tight(beta)


@MAPS
@given(st.integers(1, 40))
def test_powers_of_z_verify_with_their_passport(n):
    assert_belyi(power_map(n), Passport.of([n], [1] * n, [n]))


@MAPS
@given(belyi_maps(), st.integers(2, 4))
def test_power_substitution_keeps_a_map_belyi(case, m):
    beta, passport = case
    assert beta.verify() == passport
    assert_belyi(beta.substitute_power(m), power_passport(beta, m))


# Gaussian integers of height at most 3: both parts in [-3, 3]
SMALL = st.builds(GaussRat.of, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def moebius_maps(draw):
    """(az + b)/(cz + d) with entries of height at most 3: affine ones
    (c = 0), ones with c != 0 and a/c in general position, and ones that
    send infinity to 0 or 1, which every map here has in a fibre (a = 0 or
    a = c), so that a declared root goes to infinity."""
    kind = draw(st.sampled_from(("affine", "general", "root to infinity")))
    c = GaussRat.of(0) if kind == "affine" else draw(SMALL.filter(bool))
    a = draw(SMALL) if kind != "root to infinity" else draw(
        st.sampled_from((GaussRat.of(0), c)))
    b, d = draw(SMALL), draw(SMALL)
    assume(not (a * d - b * c).is_zero)
    return Moebius.of(a, b, c, d)


# the reference's exact gcd over Q(i) grows fast with the degree after a
# general Moebius map (0.5-1.3 s at degree 60-72, 20 s at degree 120), so
# the drawn maps stay at degree 36 or less, and d60 and d72 are composed
# with the fixed maps below
MOEBIUS_DEGREE = 36


@MAPS
@given(belyi_maps(presets=("d6", "d12")), moebius_maps(), st.integers(1, 3))
def test_moebius_composition_keeps_the_passport(case, m, power):
    """Composing with a Moebius map, after z -> z^power, gives the passport
    that verifying first gives."""
    beta, passport = case
    if power > 1 and beta.degree * power <= MOEBIUS_DEGREE:
        beta, passport = beta.substitute_power(power), power_passport(beta, power)
    assert beta.verify() == passport
    assert_belyi(factored_compose_moebius(beta, m), passport)


@pytest.mark.parametrize("name", ["d60", "d72"])
def test_moebius_composition_keeps_the_passport_of_the_fullerenes(name):
    """(1+i)z - i over z + 3 sends infinity to 1 + i, a root of no factor,
    so infinity leaves the fibres."""
    composed = factored_compose_moebius(
        load_preset(name), Moebius.of(GaussRat.of(1, 1), GaussRat.of(0, -1), 1, 3))
    assert composed.infinity_side == "none"
    assert_belyi(composed, PRESET_PASSPORTS[name])


@pytest.mark.parametrize("beta, a", [
    (two_point_map(3, 2), 0), (two_point_map(3, 2), 1), (power_map(5), 0),
    (power_map(5), 1), *((load_preset(name), 0) for name in PRESETS)],
    ids=["two-point-0", "two-point-1", "power-0", "power-1", *PRESETS])
def test_a_root_sent_to_infinity_takes_the_infinity_tag(beta, a):
    """mu = (az + 1)/(z + 2i) sends infinity to a, a root of one factor:
    that factor loses a degree in beta(mu(z)), and infinity takes its class
    and exponent."""
    (side, e), = [(side, e) for side in ("zero", "one", "pole")
                  for f, e in getattr(beta, f"{side}_factors")
                  if f.evaluate(a).is_zero]
    composed = factored_compose_moebius(
        beta, Moebius.of(a, 1, 1, GaussRat.of(0, 2)))
    assert (composed.infinity_side, composed.infinity_order) == (side, e)
    assert_belyi(composed, beta.verify())
