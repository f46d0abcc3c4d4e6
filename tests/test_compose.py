"""Moebius maps and the composition pipeline for the 12/60/72-edge presets."""

from fractions import Fraction

import pytest

from fullerene_belyi import belyi, cli, exact, geometry, moebius
from fullerene_belyi.belyi import (BelyiVerificationError, FactoredBelyi,
                                   Passport)
from fullerene_belyi.derive import d6_solve
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly
from fullerene_belyi.moebius import (INFINITY, Moebius, beta12_ratmap,
                                     beta60_ratmap, beta72_ratmap,
                                     build_beta12, build_beta60, build_beta72,
                                     factored_compose_moebius,
                                     moebius_from_three_points, mu1, mu2,
                                     ratmap_compose_moebius, schwarz_check,
                                     schwarz_forms)
from oracles import ratmap_substitute_power, replace_fields


def rand_moebius(rng):
    while True:
        entries = [GaussRat.of(rng.randint(-5, 5), rng.randint(-5, 5))
                   for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if not det.is_zero:
            return Moebius.of(*entries)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


def test_mu1_matches_printed_formula():
    printed = Moebius.of(GaussRat.of(0, -125), GaussRat.of(0, 125),
                         GaussRat.of(2, 11), GaussRat.of(2, -11))
    assert mu1() == printed
    assert mu1().apply(GaussRat.of(0)) == GaussRat.of(-11, 2)
    assert mu1().apply(GaussRat.of(1)) == GaussRat.of(0)
    assert mu1().apply(INFINITY) == GaussRat.of(-11, -2)


def test_mu2_matches_printed_formula():
    printed = Moebius.of(GaussRat.of(0, 1), GaussRat.of(-1),
                         GaussRat.of(0, 1), GaussRat.of(1))
    assert mu2() == printed
    assert mu2().apply(GaussRat.of(0)) == GaussRat.of(-1)
    assert mu2().apply(INFINITY) == GaussRat.of(1)
    assert mu2().apply(GaussRat.of(0, 1)) is INFINITY


def test_three_point_identity():
    m = moebius_from_three_points((0, 1, INFINITY), (0, 1, INFINITY))
    assert m == Moebius.identity()


def test_three_point_rejects_coincident():
    with pytest.raises(ValueError):
        moebius_from_three_points((0, 0, 1), (0, 1, INFINITY))


def test_three_point_random_correspondence(rng):
    for _ in range(40):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randint(-9, 9), rng.randint(-9, 9)))
        pts = [GaussRat.of(a, b) for a, b in pts]
        src, dst = pts[:3], pts[3:]
        m = moebius_from_three_points(src, dst)
        for s, d in zip(src, dst):
            assert m.apply(s) == d


def test_moebius_composition_is_matrix_product(rng):
    for _ in range(60):
        m1_, m2_ = rand_moebius(rng), rand_moebius(rng)
        composed = m1_.compose(m2_)
        for x in (GaussRat.of(2), GaussRat.of(0, 1), GaussRat.of(-3, 7)):
            inner = m2_.apply(x)
            assert composed.apply(x) == (m1_.apply(inner))
    a, b, c = rand_moebius(rng), rand_moebius(rng), rand_moebius(rng)
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_moebius_inverse():
    m = mu1()
    assert m.compose(m.inverse()) == Moebius.identity()


# ---------------------------------------------------------------------------
# rational-map composition
# ---------------------------------------------------------------------------


def test_compose_with_identity_is_identity():
    f = d6_solve().belyi.to_ratmap()
    assert ratmap_compose_moebius(f, Moebius.identity()) == f


def test_compose_with_inverse_cancels(rng):
    f = d6_solve().belyi.to_ratmap()
    m = rand_moebius(rng)
    g = ratmap_compose_moebius(ratmap_compose_moebius(f, m), m.inverse())
    assert g == f


# ---------------------------------------------------------------------------
# the presets, coefficient-exactly
# ---------------------------------------------------------------------------


QUARTIC = UniPoly.from_terms({4: 1, 3: 228, 2: 494, 1: -228, 0: 1})
PENTAGON12 = UniPoly.from_terms({2: 1, 1: -11, 0: -1})


def test_beta12_pipeline_exact():
    f = beta12_ratmap()
    assert f.k == GaussRat.of(Fraction(1, 1728))
    assert f.num == QUARTIC ** 3
    assert f.den == UniPoly.x() * PENTAGON12 ** 5
    one = f.one_numerator().scale(GaussRat.of(1728))
    expected = (UniPoly.from_terms({2: 1, 0: 1}) ** 2
                * UniPoly.from_terms({4: 1, 3: -522, 2: -10006, 1: 522, 0: 1}) ** 2)
    assert one == expected


def test_beta12_one_side_factors():
    beta = build_beta12()
    (factor, exponent), = beta.one_factors
    assert exponent == 2
    assert factor == (UniPoly.from_terms({2: 1, 0: 1})
                      * UniPoly.from_terms({4: 1, 3: -522, 2: -10006, 1: 522, 0: 1}))


def test_beta60_exact(icosahedral_data):
    P, V, M, k = icosahedral_data
    f = beta60_ratmap()
    assert f.k == GaussRat.of(Fraction(1, 1728))
    assert f.num == V ** 3
    assert f.den == UniPoly.from_terms({5: 1}) * UniPoly.from_terms(
        {10: 1, 5: -11, 0: -1}) ** 5
    assert f.den == P ** 5


def test_beta72_exact():
    f = beta72_ratmap()
    V72 = UniPoly.from_terms({24: 1, 18: 228, 12: 494, 6: -228, 0: 1})
    P72 = UniPoly.from_terms({12: 1, 6: -11, 0: -1})
    assert f.num == V72 ** 3
    assert f.den == UniPoly.from_terms({6: 1}) * P72 ** 5


def test_substitution_matches_composition_coefficientwise():
    base = beta12_ratmap()
    for n, preset in ((5, beta60_ratmap()), (6, beta72_ratmap())):
        direct = ratmap_substitute_power(base, n)
        assert direct == preset
        assert direct.degree == base.degree * n
        assert direct.num.coeffs == preset.num.coeffs


def test_preset_passports():
    assert str(build_beta12().verify()) == "(3^4 | 2^6 | 5^2 1^2)"
    assert str(build_beta60().verify()) == "(3^20 | 2^30 | 5^12)"
    assert str(build_beta72().verify()) == "(3^24 | 2^36 | 5^12 6^2)"


def test_beta12_substitute_power_example():
    # the degree-12 map with z -> z^5 is the degree-60 preset
    assert ratmap_substitute_power(beta12_ratmap(), 5) == beta60_ratmap()


def test_passport_lift_relation_for_presets():
    # z -> z^n repeats every finite part away from 0 n times; the parts
    # sitting at 0 and at infinity are multiplied by n in place
    base = build_beta12().verify()
    for n, lifted_beta in ((5, build_beta60()), (6, build_beta72())):
        lifted = lifted_beta.verify()
        assert lifted.black == tuple(sorted(
            list(base.black) * n, reverse=True))
        assert lifted.white == tuple(sorted(
            list(base.white) * n, reverse=True))
        # faces of the base: two ring parts of 5 away from 0, the simple
        # pole at 0, and the simple pole at infinity
        expected_faces = sorted([5] * (2 * n) + [n, n], reverse=True)
        assert lifted.faces == tuple(expected_faces)


# ---------------------------------------------------------------------------
# the factored builders against the multiply-out-and-split reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build, ratmap", [
    (build_beta12, beta12_ratmap), (build_beta60, beta60_ratmap),
    (build_beta72, beta72_ratmap)])
def test_factored_builders_match_from_ratmap(build, ratmap):
    reference = FactoredBelyi.from_ratmap(ratmap())
    assert build().to_text() == reference.to_text()
    assert build() == reference


def test_beta12_built_factored_matches_projective_pipeline():
    # the old chain: multiply out, compose on projective pairs, split by Yun
    f = ratmap_compose_moebius(d6_solve().belyi.to_ratmap(), mu1())
    f = ratmap_compose_moebius(ratmap_substitute_power(f, 2), mu2())
    assert build_beta12() == FactoredBelyi.from_ratmap(f)


@pytest.mark.parametrize("base, n", [("d6", 2), ("d6", 5), ("d12", 3),
                                     ("d60", 2)])
def test_substitute_power_matches_from_ratmap(base, n):
    # d60's pole side is z * (z^10 - 11 z^5 - 1) merged at exponent 5;
    # lifting by 2 must split it into z^10 and the rest at exponent 5
    beta = cli.load_preset(base)
    reference = FactoredBelyi.from_ratmap(
        ratmap_substitute_power(beta.to_ratmap(), n))
    assert beta.substitute_power(n).to_text() == reference.to_text()


def test_substitute_power_mutations_fail_verify():
    base = build_beta12()
    z = UniPoly.x()
    for n in (5, 6):
        good = base.substitute_power(n)
        good.verify()
        unscaled = replace_fields(good, infinity_order=base.infinity_order)
        with pytest.raises(BelyiVerificationError):
            unscaled.verify()
        # z keeping its exponent instead of taking n times it
        poles = tuple((z, e) if f == z else (f.substitute_power(n), e)
                      for f, e in base.pole_factors)
        with pytest.raises(BelyiVerificationError):
            replace_fields(good, pole_factors=poles).verify()


def cube() -> FactoredBelyi:
    """z^3: the only finite zero is 0, so sending infinity there moves
    infinity onto the zero side."""
    return FactoredBelyi.from_ratmap(RationalMap(1, UniPoly.monomial(3),
                                                 UniPoly.one()))


def moebius_cases(rng, targets):
    """Random maps, affine maps (c = 0), and maps sending infinity onto
    each Gaussian-rational critical point in targets."""
    cases = [rand_moebius(rng) for _ in range(4)]
    while len(cases) < 7:
        a, b = (GaussRat.of(rng.randint(-5, 5), rng.randint(-5, 5))
                for _ in range(2))
        if not a.is_zero:
            cases.append(Moebius.of(a, b, 0, 1))
    for t in targets:
        # z -> t + 1/(z - w): infinity goes to t, w to infinity
        w = GaussRat.of(rng.randint(-5, 5), rng.randint(-5, 5))
        cases.append(Moebius.of(t, 1 - t * w, 1, -w))
    return cases


@pytest.mark.parametrize("base, targets", [
    ("d6", [GaussRat.of(0), GaussRat.of(-11, 2)]),
    ("d12", [GaussRat.of(0), GaussRat.of(0, 1), GaussRat.of(0, -1)]),
    ("cube", [GaussRat.of(0), GaussRat.of(1)])])
def test_factored_moebius_keeps_passport_and_matches_reference(rng, base,
                                                               targets):
    start = cube() if base == "cube" else cli.load_preset(base)
    passport = start.verify()
    for first in moebius_cases(rng, targets):
        beta = start
        # a second, random map covers every infinity tag the first leaves
        for m in (first, rand_moebius(rng)):
            got = factored_compose_moebius(beta, m)
            reference = FactoredBelyi.from_ratmap(
                ratmap_compose_moebius(beta.to_ratmap(), m))
            assert got.to_text() == reference.to_text()
            assert got.verify() == passport
            beta = got


def test_factored_moebius_moves_infinity_tags():
    d12 = build_beta12()
    # infinity onto the simple pole at 0, the double one-point at i, and a
    # regular point
    to_zero = factored_compose_moebius(d12, Moebius.of(0, 1, 1, 0))
    assert (to_zero.infinity_side, to_zero.infinity_order) == ("pole", 1)
    to_i = factored_compose_moebius(d12, mu2().inverse())
    assert (to_i.infinity_side, to_i.infinity_order) == ("one", 2)
    regular = factored_compose_moebius(d12, Moebius.of(1, 0, 1, 7))
    assert (regular.infinity_side, regular.infinity_order) == ("none", 0)
    # z -> -z keeps the tag, and k picks up (-1)^(-1) from the pole
    flipped = factored_compose_moebius(d12, Moebius.of(-1, 0, 0, 1))
    assert (flipped.infinity_side, flipped.infinity_order) == ("pole", 1)
    assert flipped.k == GaussRat.of(Fraction(-1, 1728))


@pytest.fixture
def yun_degrees(monkeypatch):
    """Degrees of every polynomial split by squarefree_decomposition, with
    the preset caches emptied so each command builds from d6 again."""
    degrees = []

    def spy(p):
        degrees.append(p.degree)
        return exact.squarefree_decomposition(p)

    monkeypatch.setattr(belyi, "squarefree_decomposition", spy)
    caches = (moebius.build_beta12, moebius.build_beta60, moebius.build_beta72,
              moebius.beta12_ratmap, moebius.beta60_ratmap,
              moebius.beta72_ratmap, geometry.barrel_vertex_polynomial,
              geometry.barrel_vertices, d6_solve)
    for fn in caches:
        fn.cache_clear()
    return degrees


def test_commands_split_nothing_above_degree_six(yun_degrees, capsys):
    for argv in (["compose", "d12"], ["compose", "d60"], ["compose", "d72"],
                 ["compose", "schwarz"], ["geometry", "barrel"],
                 ["verify", "d72"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert yun_degrees  # d6 itself is still split by Yun
    assert max(yun_degrees) <= 6


def test_schwarz_check_compares_factored_forms():
    phi12, phi20, phi30 = schwarz_forms()
    flipped = factored_compose_moebius(build_beta60(), Moebius.of(-1, 0, 0, 1))
    # phi12 leads with -1, so its monic fifth power carries the sign into k
    assert flipped.k == GaussRat.of(Fraction(-1, 1728))
    assert flipped.zero_factors == ((phi20, 3),)
    assert flipped.one_factors == ((phi30, 2),)
    assert flipped.pole_factors == ((phi12.monic(), 5),)
    assert flipped.verify() == Passport.of([3] * 20, [2] * 30, [5] * 12)


# ---------------------------------------------------------------------------
# Schwarz forms
# ---------------------------------------------------------------------------


def test_schwarz_identity_and_preset_match():
    assert schwarz_check()


def test_schwarz_forms_shape():
    phi12, phi20, phi30 = schwarz_forms()
    assert phi12 == UniPoly.from_terms({1: 1, 6: -11, 11: -1})
    assert phi20 ** 3 - phi30 ** 2 == (phi12 ** 5).scale(1728)


def test_schwarz_misprint_regression():
    # 1005 in place of 10005 (a known book misprint) must break the identity
    bad = UniPoly.from_terms(
        {0: 1, 5: -522, 10: -1005, 20: -1005, 25: 522, 30: 1})
    assert not schwarz_check(phi30_override=bad)
    bad_one = UniPoly.from_terms(
        {0: 1, 5: -522, 10: -1005, 20: -10005, 25: 522, 30: 1})
    assert not schwarz_check(phi30_override=bad_one)
