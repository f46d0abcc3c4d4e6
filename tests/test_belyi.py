"""Passports, the factored-form identity, and fullerene bookkeeping."""

import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from fullerene_belyi import belyi, exact
from fullerene_belyi.belyi import (BelyiFormatError, BelyiVerificationError,
                                   DegreeImbalance,
                                   FactoredBelyi, FactorsShareRoot,
                                   FactorNotSquarefree, IdentityFailed,
                                   Passport, counting, face_vector,
                                   fullerene_passport)
from fullerene_belyi.cli import PRESETS, load_preset
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly
from fullerene_belyi.moebius import schwarz_forms
from oracles import (compose, declared_points, dense_document, eval_pairs,
                     gadd, gmul, gneg, is_tight, main_equation_residual,
                     packed_width_bits, poly_pairs, ratmap_substitute_power,
                     reference_verify, replace_fields)


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


@pytest.mark.parametrize("count", [face_vector, fullerene_passport, counting])
def test_negative_hexagon_count_is_refused(count):
    with pytest.raises(ValueError, match="^hexagon count must be nonnegative$"):
        count(-1)


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


# beta = -z(z - 3)/2: the identity holds with squarefree, coprime factors,
# but its critical point 3/2 has the value 9/8
NOT_BELYI = ("belyi v1\nk -1/2\ninfinity pole 2\nzero 1 0 1\nzero 1 -3 1\n"
             "one 1 2 -3 1\n")
# beta = z^2 with its zero side declared as the one factor z^2: the identity
# z^2 - 1 = (z - 1)(z + 1) holds on 5 points, where a degree-2 map has 4
SQUARED_ZERO = "belyi v1\nk 1\ninfinity pole 2\nzero 1 0 0 1\none 1 -1 0 1\n"
# beta = z^2(z + 1) with its zero side declared as z(z + 1) and z: the
# identity holds on 7 points, and the two zero factors share the root 0
SHARED_ZERO = ("belyi v1\nk 1\ninfinity pole 3\nzero 1 0 1 1\nzero 1 0 1\n"
               "one 1 -1 0 1 1\n")


def test_verify_rejects_nonsquarefree_factor():
    """The squarefree certificate runs only once the identity holds, and it
    names the factor before the point count would.  The same factor in a
    document whose identity fails is named by the identity."""
    with pytest.raises(FactorNotSquarefree, match=r"^factor z\^2 has a repeated root$"):
        FactoredBelyi.from_text(SQUARED_ZERO).verify()
    bad = replace_fields(quotient6_by_hand(),
                         zero_factors=((UniPoly.from_terms({2: 1, 1: -2, 0: 1}), 3),))
    with pytest.raises(IdentityFailed, match="does not factor as declared"):
        bad.verify()


def test_verify_rejects_shared_root():
    """Two different factors with a common root are named by the pair
    certificates, which run once the identity holds.  Two equal factors
    are named before anything else, even on an unbalanced document."""
    with pytest.raises(FactorsShareRoot,
                       match=r"^factors z\^2 \+ z and z share a root$"):
        FactoredBelyi.from_text(SHARED_ZERO).verify()
    z, one = UniPoly.x(), UniPoly.one()
    repeated = FactoredBelyi(
        k=GaussRat.of(1), zero_factors=((z - one, 2),), one_factors=((z - one, 1),),
        pole_factors=((z, 1),), infinity_side="none", infinity_order=0)
    assert assert_agrees(repeated) == (
        "FactorsShareRoot", "factors z - 1 and z - 1 share a root")


@pytest.mark.parametrize("body, shown", [
    ("infinity pole 1\nzero 1 0 2\none 1 -1 2\n", "2*z"),
    ("infinity pole 1\nzero 1 0 0,1\none 1 -1 1\n", "1i*z"),
    ("zero 1 0 1\none 1 -1 1\npole 1 1 1/2\n", "1/2*z + 1"),
], ids=["real", "gaussian", "pole-side"])
def test_a_non_monic_factor_is_a_format_error(body, shown):
    """A non-monic factor is refused as the document is parsed, not by
    verify: 2*z is squarefree, so FactorNotSquarefree would misname it."""
    with pytest.raises(BelyiFormatError) as exc:
        FactoredBelyi.from_text(f"belyi v1\nk 1\n{body}")
    assert str(exc.value) == f"factor {shown} is not monic"


@pytest.mark.parametrize("side", ["zero_factors", "one_factors", "pole_factors"])
@pytest.mark.parametrize("lead, shown", [(GaussRat.of(2), "2*z - 1"),
                                         (GaussRat.of(0, 1), "1i*z - 1")],
                         ids=["real", "gaussian"])
def test_a_factor_built_in_memory_must_be_monic(side, lead, shown):
    fields = {"k": GaussRat.of(1), "zero_factors": (), "one_factors": (),
              "pole_factors": (), "infinity_side": "none", "infinity_order": 0,
              side: ((UniPoly([-1, lead]), 1),)}
    with pytest.raises(ValueError) as exc:
        FactoredBelyi(**fields)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"factor {shown} is not monic"


def test_messages_show_short_polynomials_and_size_long_ones():
    short = UniPoly.from_terms({2: 1, 1: -2, 0: GaussRat.of(Fraction(1, 3), 1)})
    assert belyi._show(short) == str(short) == "z^2 - 2*z + (1/3+1i)"
    long_coefficient = UniPoly.from_terms({2: 1, 0: 7 ** 5000})
    long_degree = UniPoly.from_terms({e: 1 for e in range(100)})
    assert belyi._show(long_coefficient) == (
        "<degree 2 polynomial, coefficients up to 14037 bits>")
    assert belyi._show(long_degree) == "<degree 99 polynomial, coefficients up to 1 bits>"
    # sparse and unit coefficients count as printed, not as dense entries
    for sparse in (UniPoly.from_terms({50: 1}), UniPoly.from_terms({60: 1, 0: 1}),
                   UniPoly.from_terms({200: GaussRat.of(0, -1), 3: 2})):
        assert belyi._show(sparse) == str(sparse)
    assert belyi._show_int(10 ** 9) == "1000000000"
    assert belyi._show_int(3 ** 1000) == "<1585-bit integer>"


def test_messages_show_a_polynomial_exactly_when_its_text_is_short(rng):
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            parts = [Fraction(rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 2, 40, 300))),
                              1 + rng.getrandbits(rng.choice((0, 0, 8, 200))))
                     for _ in range(2)]
            terms[rng.choice((0, 1, 7, 50, 1000))] = GaussRat.of(*parts)
        f = UniPoly.from_terms(terms)
        if f.is_zero:
            continue
        text = str(f)
        assert (belyi._show(f) == text) == (len(text) <= exact._SHOWN_CHARS), text


def test_verify_messages_of_long_factors_are_bounded():
    z, one = UniPoly.x(), UniPoly.one()
    huge = UniPoly.from_terms({0: 10 ** 3000})
    # beta = (z + huge)^2 and beta = (z - huge)^2 (z + 1), each declared
    # with a true identity and more than n + 2 points, so that the
    # squarefree and pair certificates are reached
    square = (z + huge) * (z + huge)
    repeated = FactoredBelyi(k=GaussRat.of(1), zero_factors=((square, 1),),
                             one_factors=((z + huge - one, 1), (z + huge + one, 1)),
                             pole_factors=(), infinity_side="pole", infinity_order=2)
    zeros = (z - huge) * (z - huge) * (z + one)
    shared = FactoredBelyi(k=GaussRat.of(1),
                           zero_factors=(((z - huge) * (z + one), 1), (z - huge, 1)),
                           one_factors=((zeros - one, 1),), pole_factors=(),
                           infinity_side="pole", infinity_order=3)
    cases = [(repeated, FactorNotSquarefree), (shared, FactorsShareRoot)]
    for beta, error in cases:
        with pytest.raises(error) as exc:
            beta.verify()
        assert len(str(exc.value)) <= 480
        assert "polynomial, coefficients up to " in str(exc.value)
        assert outcome(reference_verify, beta) == outcome(FactoredBelyi.verify, beta)
    # a 3001-digit exponent: the side sums are named by their bit length
    lopsided = FactoredBelyi(k=GaussRat.of(1), zero_factors=((z, 10 ** 3000),),
                             one_factors=((z + one, 1),), pole_factors=((z - one, 1),),
                             infinity_side="none", infinity_order=0)
    with pytest.raises(DegreeImbalance, match="^one side sums to 1, zero side to "
                                              "<9966-bit integer>$"):
        lopsided.verify()


def test_format_errors_quote_a_bounded_prefix():
    lines = [f"zero 1 0 {'x' * 100000}", f"k {'9' * 5000}/7",
             f"zero {'1' * 4301} 0 1"]
    for line in lines:
        with pytest.raises(BelyiFormatError) as exc:
            FactoredBelyi.from_text(f"belyi v1\n{line}\n")
        message = str(exc.value)
        assert len(message) <= 400, message
        assert message.startswith(f"bad belyi line {line[:60]!r}... ({len(line)} characters): ")
    with pytest.raises(BelyiFormatError, match="^unknown infinity tag 'p+'... "
                                               r"\(40000 characters\)$"):
        FactoredBelyi.from_text("belyi v1\nk 1\ninfinity " + "p" * 40000 + " 1\n")


@pytest.mark.parametrize("header", ["belyi  v1", "belyi\tv1", "  belyi v1 \t",
                                    "\tbelyi \t v1  "],
                         ids=["two-spaces", "tab", "surrounding-blanks", "mixed"])
def test_header_is_split_like_every_other_line(header):
    text = load_preset("d72").to_text()
    assert FactoredBelyi.from_text(text.replace("belyi v1", header, 1)) == (
        FactoredBelyi.from_text(text))


@pytest.mark.parametrize("header", ["belyi", "belyi v2", "belyiv1", "belyi v1 v1",
                                    "v1 belyi", "k 1"])
def test_other_headers_are_refused(header):
    with pytest.raises(BelyiFormatError, match="^not a belyi v1 document$"):
        FactoredBelyi.from_text(f"{header}\nk 1\n")


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
    """verify and the reference give the same outcome, and verify accepts
    only a tight document."""
    got = outcome(FactoredBelyi.verify, beta)
    assert got == outcome(reference_verify, beta)
    assert not isinstance(got, Passport) or is_tight(beta)
    return got


def conjugate(beta: FactoredBelyi, a: GaussRat, b: GaussRat) -> FactoredBelyi:
    """beta(a*z + b) with monic factors: f(a*z + b) = a^deg(f) * (monic), so
    only k picks up a power of a, a^(deg Z - deg Q)."""
    inner = UniPoly((b, a))

    def side(factors):
        return tuple((compose(f, inner).monic(), e) for f, e in factors)

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
    # a repeated factor also unbalances the sides; equal factors are
    # checked first, so these fail with FactorsShareRoot
    for name, side in (("d12/h9", "one_factors"), ("d72/h1", "pole_factors")):
        beta = cases[name]
        cases[f"{name}/repeated-{side}"] = replace_fields(
            beta, **{side: getattr(beta, side) + ((beta.zero_factors[0][0], 1),)})
    # no factor at all and k = 1: k*Z - Q = 1 - 1 collapses to zero
    cases["collapsed"] = FactoredBelyi(GaussRat.of(1), (), (), (), "none", 0)
    # no factor and k != 1: the identity holds (c = k - 1), but a constant
    # is no Belyi map
    for k in (2, 0):
        cases[f"constant/k{k}"] = FactoredBelyi.from_text(f"belyi v1\nk {k}\n")
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
    # balanced sums on 3 points at degree 40, where a map has at least 42
    # (Riemann-Hurwitz): the exponent bomb's shape, small enough to expand
    cases["few-points/e40"] = FactoredBelyi.from_text(
        "belyi v1\nk 1\nzero 40 0 1\npole 40 1 1\none 40 2 1\n")
    # true identities on more than n + 2 points: every certificate runs
    cases["not-belyi"] = FactoredBelyi.from_text(NOT_BELYI)
    cases["squared-zero"] = FactoredBelyi.from_text(SQUARED_ZERO)
    cases["shared-zero"] = FactoredBelyi.from_text(SHARED_ZERO)
    return cases


CASES = agreement_cases()


@pytest.mark.parametrize("name", list(CASES))
def test_verify_agrees_with_reference(name):
    got = assert_agrees(CASES[name])
    expect = {"constant": "DegreeImbalance", "/k": "IdentityFailed",
              "repeated": "FactorsShareRoot",
              "collapsed": "IdentityFailed", "deg-W-above-O": "IdentityFailed",
              "few-points": "IdentityFailed", "not-belyi": "IdentityFailed",
              "squared-zero": "FactorNotSquarefree",
              "shared-zero": "FactorsShareRoot"}
    tag = next((t for t in expect if t in name), None)
    if tag is None:
        assert isinstance(got, Passport) and got.is_balanced
    else:
        assert got[0] == expect[tag]
    if tag == "deg-W-above-O":
        # 6 points at degree 3, but the identity fails first
        assert got[1] == ("k*zeros - poles does not factor as declared: "
                          "got z^2 + z, declared z")
    if tag == "few-points":
        # the point count refuses before any product
        assert got[1].startswith("k*zeros - poles cannot factor as declared")


def test_agreement_cases_cover_real_gaussian_and_fallback():
    def gaussian(beta):
        return any(c.im for f, _ in beta.zero_factors + beta.one_factors
                   + beta.pole_factors for c in f.coeffs)

    assert not gaussian(CASES["d6"]) and gaussian(CASES["d6/h1"])
    # p divides the cleared form's d, so the monic factor's leading
    # coefficient d vanishes mod p and its certificates fall back to the gcd
    f = CASES["d6/shift-1/p"].zero_factors[0][0]
    cleared = exact._cleared(f.coeffs)
    assert cleared[0] % exact._P == 0
    assert len(exact._reduce_mod_p(cleared)) < len(f.coeffs)


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
    """A document that fails both the identity and the side sums reports
    DegreeImbalance, the check that takes no product; the reference keeps
    the same order."""
    beta = replace_fields(quotient6_by_hand(), k=GaussRat.of(2), infinity_order=4)
    assert assert_agrees(beta) == (
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


PARSED_ACCEPTS = ("d6", "d72", "d72/h9", "d60/h3", "d12/h1")


@pytest.mark.parametrize("name", [*PARSED_ACCEPTS, "d6/shift-1/p"])
def test_verify_of_a_parsed_document_clears_no_factor(monkeypatch, name):
    """from_text parses each factor straight to its cleared form, and the
    certificates and the identity read those forms: verify clears only k,
    also where the certificates fall back to the exact gcd."""
    passport = CASES[name].verify()
    calls = []
    cleared = exact._cleared

    def counted(coeffs):
        calls.append(coeffs)
        return cleared(coeffs)

    monkeypatch.setattr(exact, "_cleared", counted)
    beta = FactoredBelyi.from_text(CASES[name].to_text())
    assert beta.verify() == passport
    assert calls == [(beta.k,)]


NAMED_BEFORE_THE_CERTIFICATES = ("d12/h3/k+1", "d12/h9/repeated-one_factors")


@pytest.mark.parametrize("name", [*PARSED_ACCEPTS, "d12", "d60/h9", "d6/shift-1/p",
                                  "not-belyi", "squared-zero", "shared-zero",
                                  *NAMED_BEFORE_THE_CERTIFICATES])
def test_verify_reduces_each_factor_at_most_once(monkeypatch, name):
    """The certificates reduce the cleared forms modulo J when they read
    them, each factor at most once per certificate: is_squarefree reduces
    its factor once and differentiates that reduction, and coprime reduces
    each of its two.  Only the forms the parsed factors hold are reduced,
    never a form cleared again, and a fault named by equal factors or by
    the identity reduces nothing."""
    beta = FactoredBelyi.from_text(CASES[name].to_text())
    forms = [f._form for f, _ in beta.zero_factors + beta.one_factors
             + beta.pole_factors]
    reduced = []
    reduce_mod_p = exact._reduce_mod_p
    monkeypatch.setattr(exact, "_reduce_mod_p",
                        lambda form: reduced.append(form) or reduce_mod_p(form))
    spy = CertificateSpy(monkeypatch)
    assert outcome(FactoredBelyi.verify, beta) == outcome(reference_verify, beta)
    assert bool(reduced) == (name not in NAMED_BEFORE_THE_CERTIFICATES)
    assert all(any(form is f for f in forms) for form in reduced)
    assert len(reduced) <= len(spy.squarefree) + 2 * len(spy.coprime)


@pytest.mark.parametrize("name", ["d12/h3/k+1", "d72/h1/k-1"])
def test_the_fault_path_builds_no_factor_coefficient(name):
    """is_squarefree and coprime read a parsed factor's degree and
    reduction off its cleared form, so a document that fails only its
    identity builds no factor's coefficients: the message builds the two
    sides it names."""
    beta = FactoredBelyi.from_text(CASES[name].to_text())
    with pytest.raises(IdentityFailed, match="does not factor as declared"):
        beta.verify()
    for f, _ in beta.zero_factors + beta.one_factors + beta.pole_factors:
        with pytest.raises(AttributeError):
            UniPoly.coeffs.__get__(f, UniPoly)  # the slot, unset


@pytest.mark.parametrize("name", PARSED_ACCEPTS)
def test_a_parsed_document_is_accepted_building_no_coefficient(monkeypatch, name):
    """from_text and verify construct one GaussRat, k, on the accept
    path: no factor's coefficients are built and no polynomial is made.
    (Where a certificate is inconclusive, as on d6/shift-1/p, the exact gcd
    that decides it reads the coefficients.)  A GaussRat is made by its
    constructor or, from a canonical integer triple, by
    exact._canonical_gauss; both are counted."""
    text = CASES[name].to_text()
    built = []
    for cls in (UniPoly, GaussRat):
        init = cls.__init__

        def counted(self, *args, _init=init, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    canonical = exact._canonical_gauss

    def counted_triple(*triple):
        built.append("GaussRat")
        return canonical(*triple)

    monkeypatch.setattr(exact, "_canonical_gauss", counted_triple)
    beta = FactoredBelyi.from_text(text)
    passport = beta.verify()
    assert built == ["GaussRat"]
    monkeypatch.undo()
    assert passport == CASES[name].verify() and beta == CASES[name]


@pytest.fixture
def packed_terms(monkeypatch):
    """(terms, width, value) of each exact._packed_value call."""
    seen = []
    packed_value = exact._packed_value

    def spy(terms, width):
        value = packed_value(terms, width)
        seen.append((terms, width, value))
        return value

    monkeypatch.setattr(exact, "_packed_value", spy)
    return seen


def unreduced_w_scalars(beta):
    """The term scalars kappa*D_Q and -d_k*D_Z of
    W = kappa*G_Z*D_Q - d_k*D_Z*G_Q, before any common factor is taken out."""
    dk, (kr,), (ki,) = exact._cleared((beta.k,))

    def denominator(factors):
        return math.prod(exact._cleared(f.coeffs)[0] ** e for f, e in factors)

    dz, dq = denominator(beta.zero_factors), denominator(beta.pole_factors)
    return [(kr * dq, ki * dq), (-dk * dz, 0)]


@pytest.mark.parametrize("name", ["d60/h3", "d60/h9", "d72/h3", "d72/h9"])
def test_identity_packs_w_with_coprime_scalars(packed_terms, name):
    """verify packs W' = W/g: both scalars of W divided by their gcd g,
    which on these conjugates has over 100 bits."""
    beta = CASES[name]
    beta.verify()
    w = packed_terms[0][0]  # the identity is the first product verify takes
    scalars = [c for c, _ in w]
    assert len(w) == 2 and math.gcd(*(x for c in scalars for x in c)) == 1
    unreduced = unreduced_w_scalars(beta)
    g = math.gcd(*(x for c in unreduced for x in c))
    assert g.bit_length() > 100
    assert scalars == [(x // g, y // g) for x, y in unreduced]


def test_identity_unpacks_w_at_the_reduced_width(packed_terms, widths):
    """On the d72 h9 conjugate W' and G_O are packed at one width, the one
    m*bound_W + ||n||_1 * bound_O proves with m = 1, at least 100 bits
    narrower than the bound on W; W'(2^B) = n*G_O(2^B) accepts it, so
    nothing is unpacked."""
    CASES["d72/h9"].verify()
    (w, width, w_value), (o, o_width, o_value) = packed_terms
    d, (cr,), (ci,) = exact._cleared((GaussRat.of(*w_value) / GaussRat.of(*o_value),))
    assert d == 1 and o == [((1, 0), o[0][1])] and widths == []
    assert 8 * width == 8 * o_width == packed_width_bits(w + [((cr, ci), o[0][1])])
    unreduced = [(c, factors) for c, (_, factors)
                 in zip(unreduced_w_scalars(CASES["d72/h9"]), w)]
    assert packed_width_bits(unreduced) - 8 * width >= 100


# true identities whose scalar n/m is not L itself, each decided by the one
# packed comparison: the tops of k*Z and Q cancel (k = 1, deg Z = deg Q,
# infinity on the one side), so L = 0 and n/m is read from W''s z^deg O
# digit; or m = 2, because the one factor's cleared form 2z + 1 + i is not
# primitive over Z[i]
HARD_SCALARS = {
    # (z - 1 - i)^2 / (z - 1 + i)^2 - 1 = -4i(z - 1) / (z - 1 + i)^2
    "tops-cancel": ("belyi v1\nk 1\ninfinity one 1\nzero 2 -1,-1 1\n"
                    "pole 2 -1,1 1\none 1 -1 1\n", "(2^1 | 1^2 | 2^1)"),
    # (-1 + i)z - 1 = (-1 + i)(z + (1 + i)/2), and the same at z^3
    "c-outside-z[i]": ("belyi v1\nk -1,1\ninfinity pole 1\nzero 1 0 1\n"
                       "one 1 1/2,1/2 1\n", "(1^1 | 1^1 | 1^1)"),
    "c-outside-z[i]/z^3": ("belyi v1\nk -1,1\ninfinity pole 3\nzero 3 0 1\n"
                           "one 1 1/2,1/2 0 0 1\n", "(3^1 | 1^3 | 3^1)"),
}


@pytest.mark.parametrize("name", list(HARD_SCALARS))
def test_the_comparison_decides_hard_scalars(packed_terms, widths, name):
    """A scalar outside Z[i] is accepted with no digit unpacked; cancelled
    tops unpack W' once, its real and imaginary parts at W''s own width,
    to read n/m."""
    text, passport = HARD_SCALARS[name]
    beta = FactoredBelyi.from_text(text)
    assert str(beta.verify()) == passport
    if name == "tops-cancel":
        w, width, _ = packed_terms[0]
        assert widths == [8 * width] * 2 and 8 * width == packed_width_bits(w)
    else:
        assert widths == []
    assert assert_agrees(beta) == beta.verify()


# false documents and collapses, each of which a weaker packed comparison
# would get wrong: z - 1 against z - 1 + i agrees on the real parts at 2^B;
# against z + 10^40, with n/m = 1 and with m = 2, the width must hold
# G_O's digits too, not only W''s; z^2 - 1 = (z - 1)(z + 1) makes W' zero,
# L = 0, with no two factors equal.  The one-tagged documents have k = 1
# and deg Z = deg Q, so L = 0 and n/m comes from W''s z^deg O digit: that
# digit is not lead(W') when deg W' > deg O, and it is 0 when
# deg W' < deg O, or when W' collapses
FALSE_IDENTITIES = {
    "imaginary-part": ("belyi v1\nk 1\ninfinity pole 1\nzero 1 0 1\none 1 -1,1 1\n",
                       "does not factor as declared: got z - 1, declared z + (-1+1i)"),
    "wide-one-side": (f"belyi v1\nk 1\ninfinity pole 1\nzero 1 0 1\none 1 {10 ** 40} 1\n",
                      f"does not factor as declared: got z - 1, declared z + {10 ** 40}"),
    "wide-one-side/half": (
        f"belyi v1\nk 1\ninfinity pole 1\nzero 1 0 1\none 1 {2 * 10 ** 40 + 1}/2 1\n",
        f"does not factor as declared: got z - 1, declared z + {2 * 10 ** 40 + 1}/2"),
    "collapsed-distinct": ("belyi v1\nk 1\nzero 1 -1 0 1\npole 1 -1 1\npole 1 1 1\n"
                           "one 1 5 1\none 1 7 1\n", "collapsed to zero"),
    # z(z - 1)(z - 2) - (z + 1)^3 = -6z^2 - z - 1
    "tops-cancel/deg-W-above-O": (
        "belyi v1\nk 1\ninfinity one 2\nzero 1 0 1\nzero 1 -1 1\nzero 1 -2 1\n"
        "pole 3 1 1\none 1 -5 1\n",
        "does not factor as declared: got z^2 + 1/6*z + 1/6, declared z - 5"),
    # z(z - 1)(z - 2) - (z^3 - 3z^2 + 5z - 7) = -3z + 7
    "tops-cancel/deg-W-below-O": (
        "belyi v1\nk 1\ninfinity one 1\nzero 1 0 1\nzero 1 -1 1\nzero 1 -2 1\n"
        "pole 1 -7 5 -3 1\none 1 1 0 1\n",
        "does not factor as declared: got z - 7/3, declared z^2 + 1"),
    "tops-cancel/collapsed": ("belyi v1\nk 1\ninfinity one 1\nzero 1 -1 0 1\n"
                              "pole 1 -1 1\npole 1 1 1\none 1 5 1\n", "collapsed to zero"),
}


@pytest.mark.parametrize("name", list(FALSE_IDENTITIES))
def test_the_packed_comparison_accepts_only_what_it_proves(name):
    text, message = FALSE_IDENTITIES[name]
    assert assert_agrees(FactoredBelyi.from_text(text)) == (
        "IdentityFailed", f"k*zeros - poles {message}")


def test_only_documents_the_comparison_refuses_are_unpacked(widths):
    """Every accepted preset and seed-1 corpus document is accepted by the
    one packed comparison; each IdentityFailed document is unpacked to
    name its sides."""
    from verdict_hash import preset_texts  # puts perfbench/ on sys.path

    import corpus

    docs = [(name, "accept", load_preset(name).to_text()) for name in PRESETS]
    docs += [(doc.name, doc.expect, doc.text) for doc in corpus.generate(1, preset_texts())]
    seen = Counter(expect for _, expect, _ in docs)
    for name, expect, text in docs:
        beta = FactoredBelyi.from_text(text)
        widths.clear()
        if expect == "accept":
            beta.verify()
            assert widths == [], name
        elif expect == "IdentityFailed":
            with pytest.raises(IdentityFailed):
                beta.verify()
            assert widths, name
    assert seen["accept"] == len(PRESETS) + 34 and seen["IdentityFailed"] == 4


@pytest.mark.parametrize("text, name, tight", [
    # z^2 with a shared root lifted: the identity holds, Z and Q share z
    ("k 1\ninfinity pole 2\nzero 4 0 1\none 1 -1 0 1\none 2 0 1\n"
     "pole 2 0 1\n", "FactorsShareRoot", True),
    # k = 0: -Q = -O holds, and Z is empty
    ("k 0\ninfinity zero 1\none 1 0 1\npole 1 0 1\n", "FactorsShareRoot", True),
    # z^2 with its zero side declared as one factor z^2: 5 points, not 4
    ("k 1\ninfinity pole 2\nzero 1 0 0 1\none 1 -1 0 1\n",
     "FactorNotSquarefree", False),
    # k = 0 with no two factors equal: -Q = -O = -z^2
    ("k 0\ninfinity zero 2\none 1 0 0 1\npole 2 0 1\n",
     "FactorNotSquarefree", True),
    # z^3/(3z^2 - 3z + 1) with (z + 1)^3 put into Z and into Q
    ("k 1/3\ninfinity pole 1\nzero 3 0 1 1\none 3 -1 0 1\n"
     "pole 1 1/3 -1 1\npole 3 1 1\n", "FactorsShareRoot", True),
], ids=["shared-root", "k-zero", "repeated-root", "k-zero-distinct",
        "shared-root-distinct"])
def test_a_true_identity_on_n_plus_2_points_needs_every_guard(text, name, tight):
    """Each document satisfies k*Z - Q = c*O; the point count proves the
    factor checks only with k != 0, Z and Q coprime and exactly n + 2
    points, and each of these breaks one of the three.  shared-root and
    k-zero repeat a factor verbatim, so verify names them at (i), before
    the accept; k-zero-distinct and shared-root-distinct hold no two
    equal factors and reach the accept, which refuses them only by its
    k != 0 guard and by its zero-pole pairs respectively."""
    beta = FactoredBelyi.from_text("belyi v1\n" + text)
    assert (declared_points(beta) == beta.degree + 2) == tight
    assert assert_agrees(beta)[0] == name


class CertificateSpy:
    """Records the calls verify makes to its squarefree, coprimality and
    identity certificates, and passes each through."""

    def __init__(self, monkeypatch):
        self.squarefree, self.coprime, self.identity = [], [], []
        for name, calls in (("is_squarefree", self.squarefree),
                            ("coprime", self.coprime),
                            ("_cleared_identity", self.identity)):
            def spy(*args, _calls=calls, _real=getattr(belyi, name)):
                _calls.append(args)
                return _real(*args)

            monkeypatch.setattr(belyi, name, spy)

    def clear(self):
        for calls in (self.squarefree, self.coprime, self.identity):
            calls.clear()


def schwarz_form() -> FactoredBelyi:
    """phi20^3 / (1728*phi12^5), as schwarz_check builds it."""
    phi12, phi20, phi30 = schwarz_forms()
    k = 1 / (1728 * exact.binary_power(phi12.leading(), 5, exact.ONE))
    return FactoredBelyi(k, ((phi20, 3),), ((phi30, 2),),
                         ((phi12.monic(), 5),), "pole", 5)


def test_tight_documents_skip_the_squarefree_and_same_side_certificates(monkeypatch):
    """On n + 2 points the identity and the zero-pole pairs prove the
    rest: no squarefree certificate runs, and coprimality only on each
    zero factor against each pole factor, once."""
    names = [*PRESETS, *(f"{p}/h{h}" for p in PRESETS for h in HEIGHTS),
             "d6/shift-1/p", "d12/shift-1/p"]
    betas = {name: CASES[name] for name in names}
    betas["schwarz"] = schwarz_form()
    spy = CertificateSpy(monkeypatch)
    for name, beta in betas.items():
        spy.clear()
        assert declared_points(beta) == beta.degree + 2, name
        assert beta.verify() == reference_verify(beta)
        pairs = [(a, b) for a, _ in beta.zero_factors for b, _ in beta.pole_factors]
        assert spy.squarefree == [] and len(spy.identity) == 1
        assert spy.coprime == pairs


@pytest.mark.parametrize("name", ["d6/k+1", "d6/k-1", "d12/h3/k+1", "d72/h1/k-1"])
def test_a_tight_document_failing_the_identity_runs_it_once(monkeypatch, name):
    """verify computes the identity once, at (iv), and raises what the
    reference raises, before the accept and before any squarefree or pair
    certificate runs."""
    beta = CASES[name]
    assert declared_points(beta) == beta.degree + 2
    spy = CertificateSpy(monkeypatch)
    assert assert_agrees(beta)[0] == "IdentityFailed"
    assert len(spy.identity) == 1
    assert spy.squarefree == [] and spy.coprime == []


def test_too_few_points_are_refused_before_any_product(monkeypatch):
    """Degree 2 on 3 points over 0, 1 and infinity: Riemann-Hurwitz asks
    for 4, so verify refuses before the packed values of the identity."""
    def no_product(*args):
        raise AssertionError("the identity's packed value was reached")

    monkeypatch.setattr(exact, "_packed_value", no_product)
    beta = FactoredBelyi.from_text(
        "belyi v1\nk 1\nzero 2 0 1\npole 2 1 1\none 2 2 1\n")
    with pytest.raises(IdentityFailed, match=(
            "^k\\*zeros - poles cannot factor as declared: 3 points over 0, 1 "
            "and infinity, a degree-2 map has at least 4 \\(Riemann-Hurwitz\\)$")):
        beta.verify()


def test_verify_refuses_more_than_n_plus_2_points():
    """beta = -z(z - 3)/2 satisfies the identity with squarefree, coprime
    factors, but its critical point 3/2 has the value 9/8: 5 points over
    0, 1 and infinity, where a degree-2 Belyi map has 4."""
    beta = FactoredBelyi.from_text(NOT_BELYI)
    f = beta.to_ratmap()
    assert f.num.derivative().evaluate(Fraction(3, 2)).is_zero
    assert f.k * f.num.evaluate(Fraction(3, 2)) == GaussRat.of(Fraction(9, 8))
    assert declared_points(beta) == beta.degree + 3
    assert assert_agrees(beta) == (
        "IdentityFailed", "not a Belyi map: 5 points over 0, 1 and infinity, a "
        "degree-2 Belyi map has exactly 4, so beta would have a critical value "
        "outside 0, 1 and infinity (Riemann-Hurwitz)")


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


# one document per step of verify's fault path, in its order
FAULT_STEPS = {
    "1-equal-factors": ("belyi v1\nk 1\nzero 2 0 1\none 1 0 1\npole 1 1 1\n",
                        "FactorsShareRoot", "factors z and z share a root"),
    "2-side-sums": ("belyi v1\nk 1\nzero 2 0 1\none 1 1 1\npole 1 2 1\n",
                    "DegreeImbalance", "one side sums to 1, zero side to 2"),
    "3-too-few-points": ("belyi v1\nk 1\nzero 2 0 1\none 2 1 1\npole 2 2 1\n",
                         "IdentityFailed", "k*zeros - poles cannot factor"),
    "4-identity": ("belyi v1\nk 2\ninfinity pole 2\nzero 2 0 1\none 1 -1 1\n"
                   "one 1 1 1\n", "IdentityFailed",
                   "k*zeros - poles does not factor as declared"),
    "5-squarefree": (SQUARED_ZERO, "FactorNotSquarefree", "factor z^2 has"),
    "5-pairs": (SHARED_ZERO, "FactorsShareRoot", "factors z^2 + z and z share"),
    # the fault on the last factor: the loops of (v) must reach it
    "5-squarefree-last": ("belyi v1\nk 0\ninfinity zero 2\none 2 0 1\n"
                          "pole 1 0 0 1\n", "FactorNotSquarefree",
                          "factor z^2 has a repeated root"),
    # beta = 4z^3 - 3z, with beta - 1 = 4(z - 1)(z + 1/2)^2 declared as two
    # one-side factors sharing -1/2
    "5-pairs-last": ("belyi v1\nk 4\ninfinity pole 3\nzero 1 0 1\n"
                     "zero 1 -3/4 0 1\none 1 1/2 1\none 1 -1/2 -1/2 1\n",
                     "FactorsShareRoot",
                     "factors z + 1/2 and z^2 - 1/2*z - 1/2 share a root"),
    "6-too-many-points": (NOT_BELYI, "IdentityFailed", "not a Belyi map"),
    "7-degree-0": ("belyi v1\nk 2\n", "DegreeImbalance", "every side sums to 0"),
}


@pytest.mark.parametrize("step", list(FAULT_STEPS))
def test_each_fault_step_names_its_class(step):
    """Each step of the fault path stays reachable: a document that passes
    every earlier step gets the step's class and message."""
    text, name, message = FAULT_STEPS[step]
    got = assert_agrees(FactoredBelyi.from_text(text))
    assert got[0] == name and got[1].startswith(message)


@pytest.mark.parametrize("tagged, name", [(True, "IdentityFailed"),
                                          (False, "DegreeImbalance")],
                         ids=["balanced", "unbalanced"])
def test_a_large_fault_is_named_before_any_euclid(monkeypatch, tagged, name):
    """A dense degree-2,000 document whose identity fails, or whose sides
    do not balance, is refused without the quadratic F_p Euclid of the
    squarefree and pair certificates."""
    euclids = []
    constant_gcd = exact._constant_gcd_mod_p
    monkeypatch.setattr(exact, "_constant_gcd_mod_p",
                        lambda a, b: euclids.append(1) or constant_gcd(a, b))
    text = dense_document(2000, tagged)
    start = time.perf_counter()
    got = outcome(FactoredBelyi.verify, FactoredBelyi.from_text(text))
    elapsed = time.perf_counter() - start
    assert got[0] == name and euclids == []
    assert elapsed < 0.5
