"""Passports, the factored-form identity, and fullerene bookkeeping."""

import tracemalloc
from fractions import Fraction

import pytest

from fullerene_belyi import belyi, exact
from fullerene_belyi.belyi import (BelyiVerificationError, DegreeImbalance,
                                   FactoredBelyi, FactorsShareRoot,
                                   FactorNotSquarefree, IdentityFailed,
                                   Passport, counting, face_vector,
                                   fullerene_passport, main_equation_residual)
from fullerene_belyi.cli import PRESETS, load_preset
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly
from oracles import (eval_pairs, gadd, gmul, gneg, poly_pairs,
                     ratmap_substitute_power, reference_verify,
                     replace_fields)


# ---------------------------------------------------------------------------
# face vectors and counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p6,f0,f1,f2", [(0, 20, 30, 12), (2, 24, 36, 14)])
def test_face_vector_examples(p6, f0, f1, f2):
    params = face_vector(p6)
    assert (params.f0, params.f1, params.f2) == (f0, f1, f2)
    assert params.realizable


def test_face_vector_flags_single_hexagon():
    params = face_vector(1)
    assert (params.f0, params.f1, params.f2) == (22, 33, 13)
    assert not params.realizable


def test_face_vector_identities_through_100():
    for p6 in range(101):
        params = face_vector(p6)
        assert params.f0 - params.f1 + params.f2 == 2          # Euler
        assert 3 * params.f0 == 2 * params.f1                  # trivalent
        assert params.f2 == 12 + p6                            # 12 pentagons
        assert 3 * params.f0 == 5 * 12 + 6 * p6                # face degrees
        assert params.n_dessin_edges == 2 * params.f1


def test_fullerene_passports():
    assert str(fullerene_passport(0)) == "(3^20 | 2^30 | 5^12)"
    assert str(fullerene_passport(2)) == "(3^24 | 2^36 | 5^12 6^2)"
    for p6 in (0, 1, 2, 7):
        pp = fullerene_passport(p6)
        assert pp.is_balanced and pp.degree == 60 + 6 * p6


def test_counting():
    assert counting(0) == (64, 61, 3)
    assert counting(2) == (76, 73, 3)
    assert all(counting(p6)[2] == 3 for p6 in range(40))


# ---------------------------------------------------------------------------
# main equation residual
# ---------------------------------------------------------------------------


def barrel_data():
    """(V, P, H, M) of the degree-72 function, written out explicitly."""
    V = UniPoly.from_terms({24: 1, 18: 228, 12: 494, 6: -228, 0: 1})
    P = UniPoly.from_terms({12: 1, 6: -11, 0: -1})
    H = UniPoly.x()
    M = (UniPoly.from_terms({12: 1, 0: 1})
         * UniPoly.from_terms({24: 1, 18: -522, 12: -10006, 6: 522, 0: 1}))
    return V, P, H, M


def test_main_equation_dodecahedron(icosahedral_data):
    P, V, M, k = icosahedral_data
    res = main_equation_residual(Fraction(1, k), V, P, UniPoly.one(), M)
    assert res.is_zero


def test_main_equation_barrel_exact_and_pointwise():
    V, P, H, M = barrel_data()
    res = main_equation_residual(Fraction(1, 1728), V, P, H, M)
    assert res.is_zero
    # independent pointwise check of the identity V^3 - M^2 = 1728 z^6 P^5
    for x in (Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
        pt = (x, Fraction(0))
        v = eval_pairs(poly_pairs(V), pt)
        m = eval_pairs(poly_pairs(M), pt)
        p = eval_pairs(poly_pairs(P), pt)
        h = eval_pairs(poly_pairs(H), pt)
        lhs = gadd(gmul(gmul(v, v), v), gneg(gmul(m, m)))
        rhs = gmul((Fraction(1728), Fraction(0)),
                   gmul(gmul(gmul(gmul(p, p), gmul(p, p)), p),
                        gmul(gmul(gmul(h, h), gmul(h, h)), gmul(h, h))))
        assert lhs == rhs


def test_main_equation_perturbation_is_nonzero(icosahedral_data):
    P, V, M, k = icosahedral_data
    M_bad = M + UniPoly.one()
    res = main_equation_residual(Fraction(1, k), V, P, UniPoly.one(), M_bad)
    assert not res.is_zero


# ---------------------------------------------------------------------------
# factored functions, verification, passports
# ---------------------------------------------------------------------------


def quotient6_by_hand() -> FactoredBelyi:
    """The 6-edge function assembled from its printed factors."""
    return FactoredBelyi(
        k=GaussRat.of(Fraction(1, 1728)),
        zero_factors=((UniPoly.from_terms({2: 1, 1: 10, 0: 5}), 3),),
        one_factors=((UniPoly.from_terms({2: 1, 1: 4, 0: -1}), 2),
                     (UniPoly.from_terms({2: 1, 1: 22, 0: 125}), 1)),
        pole_factors=((UniPoly.x(), 1),),
        infinity_side="pole",
        infinity_order=5)


def test_verify_quotient6():
    assert str(quotient6_by_hand().verify()) == "(3^2 | 2^2 1^2 | 5^1 1^1)"


def test_verify_identity_failure_names_factor():
    beta = quotient6_by_hand()
    broken = FactoredBelyi(
        k=beta.k,
        zero_factors=((UniPoly.from_terms({2: 1, 1: 10, 0: 7}), 3),),
        one_factors=beta.one_factors,
        pole_factors=beta.pole_factors,
        infinity_side="pole", infinity_order=5)
    with pytest.raises(IdentityFailed):
        broken.verify()


def test_verify_rejects_nonsquarefree_factor():
    beta = quotient6_by_hand()
    bad = FactoredBelyi(
        k=beta.k,
        zero_factors=((UniPoly.from_terms({2: 1, 1: -2, 0: 1}), 3),),
        one_factors=beta.one_factors,
        pole_factors=beta.pole_factors,
        infinity_side="pole", infinity_order=5)
    with pytest.raises(FactorNotSquarefree):
        bad.verify()


def test_verify_rejects_shared_root():
    z = UniPoly.x()
    one = UniPoly.one()
    beta = FactoredBelyi(
        k=GaussRat.of(1),
        zero_factors=((z - one, 2),),
        one_factors=((z * z - one, 1),),
        pole_factors=((z, 2),),
        infinity_side="none", infinity_order=0)
    with pytest.raises(FactorsShareRoot):
        beta.verify()


def test_verify_rejects_wrong_infinity_order():
    beta = quotient6_by_hand()
    lopsided = FactoredBelyi(
        k=beta.k, zero_factors=beta.zero_factors,
        one_factors=beta.one_factors, pole_factors=beta.pole_factors,
        infinity_side="pole", infinity_order=3)
    with pytest.raises(DegreeImbalance):
        lopsided.verify()


def test_from_ratmap_splits_multiplicities():
    num = UniPoly.from_terms({2: 1, 1: 10, 0: 5}) ** 3
    den = UniPoly.x().scale(1728)
    beta = FactoredBelyi.from_ratmap(RationalMap(1, num, den))
    assert beta.k == GaussRat.of(Fraction(1, 1728))
    assert beta.zero_factors == ((UniPoly.from_terms({2: 1, 1: 10, 0: 5}), 3),)
    assert dict((e, str(f)) for f, e in beta.one_factors) == {
        2: "z^2 + 4*z - 1", 1: "z^2 + 22*z + 125"}
    assert beta.infinity_side == "pole" and beta.infinity_order == 5


def test_passport_repetition_under_power_substitution():
    """Substituting z -> z^n multiplies every finite part away from the
    fixed points by n; parts at 0 and infinity scale in place."""
    base = quotient6_by_hand().to_ratmap()
    for n in (5, 6):
        lifted = FactoredBelyi.from_ratmap(ratmap_substitute_power(base, n))
        pp = lifted.verify()
        base_pp = quotient6_by_hand().verify()
        # black side of the base: two roots of part 3, no fixed points
        assert pp.black == tuple([3] * (2 * n))
        # white side: parts 2, 2, 1, 1 all away from 0/infinity
        assert pp.white == tuple(sorted([2] * (2 * n) + [1] * (2 * n),
                                        reverse=True))
        # faces: finite pole at 0 (fixed, part 1 -> n) and infinity
        # (part 5 -> 5n)
        assert pp.faces == tuple(sorted([5 * n, n] + [1] * 0, reverse=True))
        assert pp.degree == base_pp.degree * n


def test_residual_and_verify_agree(icosahedral_data):
    """main_equation_residual vanishes exactly when the equivalent factored
    function verifies (dodecahedral and barrel data)."""
    P, V, M, k = icosahedral_data
    num = UniPoly.from_terms({2: 1, 1: 10, 0: 5}) ** 3
    ok = FactoredBelyi.from_ratmap(
        RationalMap(1, num, UniPoly.x().scale(1728)))
    ok.verify()
    # same data with a perturbed scalar: identity check must fail, and the
    # residual of the corresponding (V, P, H, M) is nonzero
    with pytest.raises(IdentityFailed):
        FactoredBelyi(
            k=GaussRat.of(Fraction(1, 1729)), zero_factors=ok.zero_factors,
            one_factors=ok.one_factors, pole_factors=ok.pole_factors,
            infinity_side="pole", infinity_order=5).verify()
    assert not main_equation_residual(
        Fraction(1, 1729), V, P, UniPoly.one(), M).is_zero


def test_every_preset_verifies_with_balanced_passport():
    from fullerene_belyi.cli import PRESETS, load_preset

    for name in PRESETS:
        beta = load_preset(name)
        pp = beta.verify()
        assert pp.is_balanced
        assert pp.degree == beta.degree


def test_barrel_residual_and_verify_cross_validation():
    V, P, H, M = barrel_data()
    num = V ** 3
    den = (H ** 6 * P ** 5).scale(1728)
    beta = FactoredBelyi.from_ratmap(RationalMap(1, num, den))
    assert str(beta.verify()) == "(3^24 | 2^36 | 5^12 6^2)"
    assert main_equation_residual(Fraction(1, 1728), V, P, H, M).is_zero
    # same factored data with a perturbed scalar fails both certifications
    with pytest.raises(IdentityFailed):
        FactoredBelyi(
            k=GaussRat.of(Fraction(1, 1727)), zero_factors=beta.zero_factors,
            one_factors=beta.one_factors, pole_factors=beta.pole_factors,
            infinity_side=beta.infinity_side,
            infinity_order=beta.infinity_order).verify()
    assert not main_equation_residual(Fraction(1, 1727), V, P, H, M).is_zero


def test_factored_text_roundtrip():
    beta = quotient6_by_hand()
    text = beta.to_text()
    again = FactoredBelyi.from_text(text)
    assert again == beta
    assert str(again.verify()) == str(beta.verify())


@pytest.mark.parametrize("field", ["1_0", "\u0663", "+3", "-3", "1e1", "3.0"])
@pytest.mark.parametrize("line", ["infinity pole {}", "zero {} 5 10 1"])
def test_exponent_and_infinity_order_are_ascii_digits(line, field):
    text = quotient6_by_hand().to_text()
    good = line.format(5 if line.startswith("infinity") else 3)
    assert good in text
    with pytest.raises(belyi.BelyiFormatError):
        FactoredBelyi.from_text(text.replace(good, line.format(field), 1))


def test_passport_display_and_sums():
    pp = Passport.of([3, 3], [2, 1, 2, 1], [5, 1])
    assert str(pp) == "(3^2 | 2^2 1^2 | 5^1 1^1)"
    assert pp.degree == 6 and pp.is_balanced


# ---------------------------------------------------------------------------
# the integer certificate against the multiplied-out reference
# ---------------------------------------------------------------------------


def outcome(check, beta):
    """The passport, or the class and message of the error `check` raises."""
    try:
        return check(beta)
    except BelyiVerificationError as exc:
        return type(exc).__name__, str(exc)


def assert_agrees(beta):
    got = outcome(FactoredBelyi.verify, beta)
    assert got == outcome(reference_verify, beta)
    return got


def conjugate(beta: FactoredBelyi, a: GaussRat, b: GaussRat) -> FactoredBelyi:
    """beta(a*z + b) with monic factors: f(a*z + b) = a^deg(f) * (monic), so
    only k picks up a power of a, a^(deg Z - deg Q)."""
    inner = UniPoly((b, a))

    def side(factors):
        return tuple((f.compose(inner).monic(), e) for f, e in factors)

    shift = (sum(f.degree * e for f, e in beta.zero_factors)
             - sum(f.degree * e for f, e in beta.pole_factors))
    k = beta.k * exact.binary_power(a, shift, 1) if shift >= 0 else (
        beta.k / exact.binary_power(a, -shift, 1))
    return replace_fields(beta, k=k, zero_factors=side(beta.zero_factors),
                          one_factors=side(beta.one_factors),
                          pole_factors=side(beta.pole_factors))


# a and b of height h, both parts +-h, signs varying with h
HEIGHTS = {1: (GaussRat.of(1, 1), GaussRat.of(-1, 1)),
           3: (GaussRat.of(3, -3), GaussRat.of(3, 3)),
           9: (GaussRat.of(-9, 9), GaussRat.of(9, -9))}


def agreement_cases():
    cases = {}
    for name in PRESETS:
        beta = load_preset(name)
        cases[name] = beta
        for h, (a, b) in HEIGHTS.items():
            cases[f"{name}/h{h}"] = conjugate(beta, a, b)
    for name in ("d6", "d12/h3", "d72/h1"):
        for delta in (1, -1):
            cases[f"{name}/k{delta:+d}"] = replace_fields(
                cases[name], k=cases[name].k + delta)
    # a repeated factor also unbalances the sides; the factor checks come
    # first, so these fail with FactorsShareRoot
    for name, side in (("d12/h9", "one_factors"), ("d72/h1", "pole_factors")):
        beta = cases[name]
        cases[f"{name}/repeated-{side}"] = replace_fields(
            beta, **{side: getattr(beta, side) + ((beta.zero_factors[0][0], 1),)})
    # no factor at all and k = 1: k*Z - Q = 1 - 1 collapses to zero
    cases["collapsed"] = FactoredBelyi(GaussRat.of(1), (), (), (), "none", 0)
    # denominators divisible by the certificate prime: the exact fallback
    for name in ("d6", "d12"):
        cases[f"{name}/shift-1/p"] = conjugate(
            load_preset(name), GaussRat.of(1), GaussRat.of(Fraction(1, exact._P)))
    # k*Z - Q = z^2 + z against the declared O = z: the digits of O match
    # the low digits of W, only deg W = deg O tells them apart
    z = UniPoly.x()
    zero = UniPoly((2, 1))
    cases["deg-W-above-O"] = FactoredBelyi(
        GaussRat.of(1), ((zero, 3),), ((z, 1),),
        ((zero ** 3 - z * z - z, 1),), "one", 2)
    return cases


CASES = agreement_cases()


@pytest.mark.parametrize("name", list(CASES))
def test_verify_agrees_with_reference(name):
    got = assert_agrees(CASES[name])
    expect = {"/k": "IdentityFailed", "repeated": "FactorsShareRoot",
              "collapsed": "IdentityFailed", "deg-W-above-O": "IdentityFailed"}
    tag = next((t for t in expect if t in name), None)
    if tag is None:
        assert isinstance(got, Passport) and got.is_balanced
    else:
        assert got[0] == expect[tag]


def test_agreement_cases_cover_real_gaussian_and_fallback():
    def gaussian(beta):
        return any(c.im for f, _ in beta.zero_factors + beta.one_factors
                   + beta.pole_factors for c in f.coeffs)

    assert not gaussian(CASES["d6"]) and gaussian(CASES["d6/h1"])
    assert exact._reduce_mod_p(CASES["d6/shift-1/p"].zero_factors[0][0]) is None


def power_family(c: GaussRat, e: int, flipped: bool) -> FactoredBelyi:
    """beta = k*(z + c)^e / Q with Q = ((z + c)^e - z^e) / (e*c), so that
    beta - 1 = z^e / (e*c*Q); flipped, 1 - beta, with (z + c)^e on the one
    side.  The digits of (z + c)^e come close to the product-of-powers
    bound on them."""
    z = UniPoly.x()
    zc = UniPoly((c, 1))
    q = ((zc ** e) - z ** e).monic()
    k = GaussRat.of(1) / (c * e)
    if flipped:
        return FactoredBelyi(-k, ((z, e),), ((zc, e),), ((q, 1),), "pole", 1)
    return FactoredBelyi(k, ((zc, e),), ((z, e),), ((q, 1),), "pole", 1)


@pytest.mark.parametrize("e", [2, 3, 5, 8, 13])
def test_verify_at_the_digit_bound(e):
    cs = ([GaussRat.of(1), GaussRat.of(1, 1), GaussRat.of(-2, 3)]
          + [GaussRat.of((1 << j) + 1) for j in range(16, 40, 3)]
          + [GaussRat.of((1 << j) - 1, -(1 << j) + 3) for j in range(16, 40, 3)])
    for c in cs:
        for flipped in (False, True):
            beta = power_family(c, e, flipped)
            assert assert_agrees(beta).degree == e
            for delta in (1, GaussRat.of(0, -1)):
                assert assert_agrees(
                    replace_fields(beta, k=beta.k + delta))[0] == "IdentityFailed"
        # a false pole side: W stays small, and the width must still hold
        # the digits of the declared (z + c)^e
        pole = UniPoly.monomial(e - 1) + UniPoly.one()
        assert_agrees(replace_fields(power_family(c, e, True),
                                     pole_factors=((pole, 1),)))


def test_verify_checks_side_sums_before_the_identity():
    """A document that fails both the identity and the side sums now
    reports DegreeImbalance; the multiplied-out reference checked the
    identity first."""
    beta = replace_fields(quotient6_by_hand(), k=GaussRat.of(2), infinity_order=4)
    assert outcome(reference_verify, beta)[0] == "IdentityFailed"
    assert outcome(FactoredBelyi.verify, beta) == (
        "DegreeImbalance", "pole side sums to 5, zero side to 6")


def test_exponent_bomb_is_rejected_before_any_product():
    text = ("belyi v1\nk 1\ninfinity pole 1000000000\n"
            "zero 1000000000 0 1\none 1 1 1\n")
    beta = FactoredBelyi.from_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(DegreeImbalance,
                           match="^one side sums to 1, zero side to 1000000000$"):
            beta.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_reduces_each_factor_once(monkeypatch):
    calls = []
    reduce = exact._reduce_mod_p

    def counted(f):
        calls.append(f)
        return reduce(f)

    monkeypatch.setattr(exact, "_reduce_mod_p", counted)
    monkeypatch.setattr(belyi, "_reduce_mod_p", counted)
    for name in ("d72", "d72/h9", "d60/h3"):
        calls.clear()
        beta = CASES[name]
        beta.verify()
        factors = beta.zero_factors + beta.one_factors + beta.pole_factors
        assert len(factors) >= 3 and len(calls) == len(factors)


def test_verify_builds_no_fraction_polynomial_on_accept(monkeypatch):
    built = []
    for cls in (UniPoly, GaussRat):
        init = cls.__init__

        def counted(self, *args, _init=init, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for name in ("d6", "d12/h1", "d60/h9", "d72/h3"):
        assert isinstance(CASES[name].verify(), Passport)
    assert built == []
