"""Moebius maps and the composition pipeline for the 12/60/72-edge presets."""

from fractions import Fraction

import pytest

from fullerene_belyi import belyi, cli, derive, exact, geometry, moebius
from fullerene_belyi.belyi import (BelyiVerificationError, FactoredBelyi,
                                   Passport)
from fullerene_belyi.derive import d6_solve
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly
from fullerene_belyi.moebius import (INFINITY, Moebius, beta12_ratmap,
                                     beta60_ratmap, beta72_ratmap,
                                     build_beta12, build_beta60, build_beta72,
                                     factored_compose_moebius,
                                     moebius_from_three_points, mu1, mu2,
                                     schwarz_check, schwarz_forms)
from oracles import (ratmap_compose_moebius, ratmap_substitute_power,
                     replace_fields)


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


# three distinct finite points, and a fourth to repeat
THREE = (GaussRat.of(5), GaussRat.of(-3, 1), GaussRat.of(0, 7))


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
@pytest.mark.parametrize("repeated, other", [
    (GaussRat.of(2, -1), None), (GaussRat.of(2, -1), INFINITY),
    (INFINITY, None)])
def test_three_point_rejects_each_coincident_pair(pair, repeated, other):
    """Each pair of positions, repeating a finite point or infinity; a
    finite repeat is also tried with infinity in the third position."""
    pts = list(THREE)
    for i in range(3):
        if i in pair:
            pts[i] = repeated
        elif other is not None:
            pts[i] = other
    for sources, targets in ((pts, (0, 1, INFINITY)), ((0, 1, INFINITY), pts)):
        with pytest.raises(ValueError, match="pairwise distinct"):
            moebius_from_three_points(sources, targets)


@pytest.mark.parametrize("source_inf", [None, 0, 1, 2])
@pytest.mark.parametrize("target_inf", [None, 0, 1, 2])
def test_three_point_sends_each_point_home(source_inf, target_inf):
    """The one cross-ratio formula, with infinity in any position on
    either side or on neither."""
    sources, targets = list(THREE), [GaussRat.of(1, 1), GaussRat.of(-2), GaussRat.of(4, -3)]
    if source_inf is not None:
        sources[source_inf] = INFINITY
    if target_inf is not None:
        targets[target_inf] = INFINITY
    m = moebius_from_three_points(sources, targets)
    for point, image in zip(sources, targets):
        assert m.apply(point) == image


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


@pytest.mark.parametrize("what, ratmap", [
    ("d12", beta12_ratmap), ("d60", beta60_ratmap), ("d72", beta72_ratmap)])
def test_compose_prints_the_pinned_ratmap(what, ratmap, monkeypatch):
    """compose prints k, num, den and the degree from the verified factored
    form, and they are the RationalMap the beta*_ratmap wrappers build;
    compose itself builds no RationalMap."""
    f = ratmap()

    def refuse(*args, **kwargs):
        raise AssertionError("compose built a RationalMap")

    for name in ("beta12_ratmap", "beta60_ratmap", "beta72_ratmap"):
        monkeypatch.setattr(moebius, name, refuse)
    for module in (exact, belyi, moebius):
        monkeypatch.setattr(module, "RationalMap", refuse)
    monkeypatch.setattr(FactoredBelyi, "to_ratmap", refuse)
    doc, lines = cli.cmd_compose(what)
    assert (doc["k"], doc["numerator"], doc["denominator"], doc["degree"]) == (
        f.k.to_token(), f.num.to_tokens(), f.den.to_tokens(), f.degree)
    assert lines[:4] == [f"{what}: degree {f.degree}", f"k   = {f.k}",
                         f"num = {f.num}", f"den = {f.den}"]


@pytest.mark.parametrize("what", ["d6", "d24", "Schwarz", ""])
def test_compose_refuses_other_targets(what):
    with pytest.raises(KeyError):
        cli.cmd_compose(what)


def test_beta12_built_factored_matches_projective_pipeline():
    # the old chain: multiply out, compose on projective pairs, split by Yun
    f = ratmap_compose_moebius(d6_solve().belyi.to_ratmap(), mu1())
    f = ratmap_compose_moebius(ratmap_substitute_power(f, 2), mu2())
    assert build_beta12() == FactoredBelyi.from_ratmap(f)


def cube() -> FactoredBelyi:
    """z^3: the only finite zero is 0, so sending infinity there moves
    infinity onto the zero side."""
    return FactoredBelyi.from_ratmap(RationalMap(1, UniPoly.monomial(3),
                                                 UniPoly.one()))


# bases whose infinity carries each tag, by the map sending infinity to
# the double one-point i of d12, to the triple zero of z^3 and to a
# regular point of d12
TAGGED_BASES = {
    "d12-one": ("one", lambda: factored_compose_moebius(build_beta12(),
                                                        mu2().inverse())),
    "cube-zero": ("zero", lambda: factored_compose_moebius(
        cube(), Moebius.of(0, 1, 1, 0))),
    "d12-none": ("none", lambda: factored_compose_moebius(
        build_beta12(), Moebius.of(1, 0, 1, 7))),
}


@pytest.mark.parametrize("base, n", [
    ("d6", 2), ("d6", 5), ("d12", 3), ("d60", 2),
    *((name, n) for name in TAGGED_BASES for n in (2, 3))])
def test_substitute_power_matches_from_ratmap(base, n):
    # d60's pole side is z * (z^10 - 11 z^5 - 1) merged at exponent 5;
    # lifting by 2 must split it into z^10 and the rest at exponent 5.
    # The tagged bases put the form y on the one and zero sides, and none
    # at all; a lift of the untagged one is not Belyi, so only the text is
    # compared
    if base in TAGGED_BASES:
        tag, build = TAGGED_BASES[base]
        beta = build()
        assert beta.infinity_side == tag
    else:
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


@pytest.mark.parametrize("base, order_at_zero", [("d60", 5), ("d72", 6)])
def test_factored_moebius_keeps_passport_of_the_lifted_presets(rng, base,
                                                               order_at_zero):
    # no Yun reference at degree 60-72: verify certifies every result, and
    # 0, a pole of both, is the target whose tag the first map is checked for
    start = cli.load_preset(base)
    passport = start.verify()
    tags_at_zero = set()
    for first in moebius_cases(rng, [GaussRat.of(0)]):
        beta = factored_compose_moebius(start, first)
        if first.apply(INFINITY) == GaussRat.of(0):
            tags_at_zero.add((beta.infinity_side, beta.infinity_order))
        assert beta.verify() == passport
        assert factored_compose_moebius(beta, rand_moebius(rng)).verify() == passport
    assert tags_at_zero == {("pole", order_at_zero)}


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


def test_pull_back_places_infinity_by_side_degrees():
    # d6 with its pole tag dropped does not balance: its pole side sums to
    # 1.  A pull-back places infinity by the side sums, as from_ratmap
    # does, so the side that falls short takes it and the result is Belyi
    untagged = replace_fields(cli.load_preset("d6"), infinity_side="none",
                              infinity_order=0)
    lifted = untagged.substitute_power(2)
    assert (lifted.infinity_side, lifted.infinity_order) == ("pole", 10)
    assert str(lifted.verify()) == "(3^4 | 2^4 1^4 | 10^1 2^1)"
    shifted = factored_compose_moebius(untagged, Moebius.of(1, 1, 0, 1))
    assert (shifted.infinity_side, shifted.infinity_order) == ("pole", 5)
    assert str(shifted.verify()) == "(3^2 | 2^2 1^2 | 5^1 1^1)"


@pytest.fixture
def cold_calls(monkeypatch):
    """Runs a command as a fresh process would, every cache of the package
    but d6_solve's emptied first, and returns the degrees its calls of
    Yun's split, the exact gcd and polynomial division took (-1 for zero),
    by name.
    d6_solve runs once, cold, up front; its own calls are under "d6"."""
    calls = {}

    def counted(name, fn):
        def spy(p, *args):
            calls.setdefault(name, []).append(len(p.coeffs) - 1)
            return fn(p, *args)
        return spy

    modules = (exact, belyi, derive, moebius, geometry, cli)
    for name in ("squarefree_decomposition", "poly_gcd"):
        original = getattr(exact, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(UniPoly, "__divmod__",
                        counted("divmod", UniPoly.__divmod__))
    caches = [fn for module in modules for fn in vars(module).values()
              if hasattr(fn, "cache_clear") and fn is not d6_solve]
    d6_solve.cache_clear()
    d6_solve()

    def run(*argv):
        for fn in caches:
            fn.cache_clear()
        calls.clear()
        assert cli.main(list(argv)) == 0
        return dict(calls)

    run.d6 = dict(calls)
    return run


def test_commands_split_nothing_above_degree_six(cold_calls, tmp_path, capsys):
    # d6 is the multiplied-out A^3/(k*z) split by Yun; the other presets come
    # from its factors, so past d6_solve no command splits by Yun, takes a
    # gcd or divides polynomials
    assert cold_calls.d6["squarefree_decomposition"]
    assert max(max(degrees) for degrees in cold_calls.d6.values()) <= 6
    d72, svg = str(tmp_path / "d72.belyi"), str(tmp_path / "face.svg")
    commands = {
        "passport 0": ("passport", "0"),
        "derive 5": ("derive", "5"),
        "derive 6": ("derive", "6"),
        "verify d6": ("verify", "d6"),
        "compose d12": ("compose", "d12"),
        "compose d60": ("compose", "d60"),
        "compose d72": ("compose", "d72", "--write", d72),
        "verify file": ("verify", d72),
        "verify d72": ("verify", "d72"),
        "compose schwarz": ("compose", "schwarz"),
        "geometry barrel": ("geometry", "barrel", "--svg", svg),
    }
    calls = {name: cold_calls(*argv) for name, argv in commands.items()}
    capsys.readouterr()
    for name, degrees in calls.items():
        assert degrees == {}, name


def test_schwarz_check_compares_factored_forms():
    phi12, phi20, phi30 = schwarz_forms()
    flipped = factored_compose_moebius(build_beta60(), Moebius.of(-1, 0, 0, 1))
    # phi12 leads with -1, so its monic fifth power carries the sign into k
    assert flipped.k == GaussRat.of(Fraction(-1, 1728))
    assert flipped.zero_factors == ((phi20, 3),)
    assert flipped.one_factors == ((phi30, 2),)
    assert flipped.pole_factors == ((phi12.monic(), 5),)
    assert flipped.verify() == Passport.of([3] * 20, [2] * 30, [5] * 12)
    # schwarz_check flips at degree 12 and lifts: the same factored form
    flipped12 = factored_compose_moebius(build_beta12(), Moebius.of(-1, 0, 0, 1))
    assert flipped12.substitute_power(5) == flipped


def test_schwarz_check_certifies_by_verify_without_powers(monkeypatch):
    build_beta12()  # d6_solve's ansatz raises A to the third power
    verified = []
    verify = FactoredBelyi.verify

    def counted(self):
        verified.append(self.degree)
        return verify(self)

    def no_power(self, n):
        raise AssertionError("UniPoly.__pow__ called")

    monkeypatch.setattr(FactoredBelyi, "verify", counted)
    monkeypatch.setattr(UniPoly, "__pow__", no_power)
    assert schwarz_check()
    assert verified == [60]


# ---------------------------------------------------------------------------
# Schwarz forms
# ---------------------------------------------------------------------------


def test_schwarz_identity_and_preset_match():
    assert schwarz_check()


def test_schwarz_forms_shape():
    phi12, phi20, phi30 = schwarz_forms()
    assert phi12 == UniPoly.from_terms({1: 1, 6: -11, 11: -1})
    assert phi20 ** 3 - phi30 ** 2 == (phi12 ** 5).scale(1728)


def test_schwarz_misprint_regression(monkeypatch, capsys):
    # 1005 in place of 10005 (a known book misprint) must break the
    # identity, in both places and in one
    phi12, phi20, _ = schwarz_forms()
    for z20 in (-1005, -10005):
        bad = UniPoly.from_terms(
            {0: 1, 5: -522, 10: -1005, 20: z20, 25: 522, 30: 1})
        monkeypatch.setattr(moebius, "schwarz_forms", lambda: (phi12, phi20, bad))
        with pytest.raises(BelyiVerificationError):
            schwarz_check()
        assert cli.main(["compose", "schwarz"]) == 1
        assert capsys.readouterr().err.startswith("error: IdentityFailed: ")
        misprinted = FactoredBelyi(
            GaussRat.of(Fraction(-1, 1728)), ((phi20, 3),), ((bad, 2),),
            ((phi12.monic(), 5),), "pole", 5)
        with pytest.raises(BelyiVerificationError):
            misprinted.verify()
