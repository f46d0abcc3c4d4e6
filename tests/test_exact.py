"""Exact arithmetic layer: Gaussian rationals, polynomials, rational maps."""

import random
from fractions import Fraction

import pytest

from fullerene_belyi.exact import (GaussRat, RationalMap, UniPoly,
                                   is_squarefree, poly_gcd,
                                   squarefree_decomposition)
from fullerene_belyi.multipoly import MultiPoly
from oracles import (derivative_pairs, euclid_gcd_pairs, mul_pointwise_equal,
                     poly_pairs)


def rand_gauss(rng, span=9):
    return GaussRat.of(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)))


def rand_poly(rng, max_deg, span=9, gaussian=True):
    deg = rng.randint(0, max_deg)
    coeffs = []
    for _ in range(deg + 1):
        if gaussian:
            coeffs.append(rand_gauss(rng, span))
        else:
            coeffs.append(GaussRat.of(Fraction(rng.randint(-span, span))))
    return UniPoly(coeffs)


# ---------------------------------------------------------------------------
# GaussRat
# ---------------------------------------------------------------------------


def test_gaussrat_basic():
    i = GaussRat.of(0, 1)
    assert i * i == GaussRat.of(-1)
    assert (GaussRat.of(2, 11) * GaussRat.of(2, -11)) == GaussRat.of(125)
    assert GaussRat.of(1, 1) / GaussRat.of(1, 1) == GaussRat.of(1)
    assert str(GaussRat.of(Fraction(-11), Fraction(2))) == "-11+2i"


def test_gaussrat_field_axioms_randomized(rng):
    for _ in range(400):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero:
            assert a * a.inverse() == GaussRat.of(1)
            assert (b / a) * a == b


def test_gaussrat_token_roundtrip(rng):
    for _ in range(50):
        g = rand_gauss(rng)
        assert GaussRat.from_token(g.to_token()) == g
    assert GaussRat.from_token("3/4").re == Fraction(3, 4)
    assert GaussRat.from_token("3/4,-1/2") == GaussRat.of(
        Fraction(3, 4), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# UniPoly ring arithmetic
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    p = UniPoly((1, 1)) * UniPoly((-1, 1))
    assert p == UniPoly((-1, 0, 1))


def test_multiplication_by_zero_gives_zero_marker():
    p = UniPoly.from_terms({2: 1, 1: 10, 0: 5})
    assert (p * UniPoly.zero()).is_zero
    with pytest.raises(ValueError):
        _ = (p * UniPoly.zero()).degree


def test_cube_expansion_matches_cleared_quotient_numerator():
    # (z^2+10z+5)^3 fully expanded, then cross-checked two ways: against the
    # frozen expansion and against (z^2+4z-1)^2 (z^2+22z+125) + 1728 z by the
    # evaluation oracle
    cube = UniPoly.from_terms({2: 1, 1: 10, 0: 5}) ** 3
    assert cube == UniPoly((125, 750, 1575, 1300, 315, 30, 1))
    rhs = (UniPoly.from_terms({2: 1, 1: 4, 0: -1}) ** 2
           * UniPoly.from_terms({2: 1, 1: 22, 0: 125})
           + UniPoly.from_terms({1: 1728}))
    assert cube == rhs
    assert mul_pointwise_equal(
        UniPoly.from_terms({2: 1, 1: 4, 0: -1}) ** 2,
        UniPoly.from_terms({2: 1, 1: 22, 0: 125}),
        cube - UniPoly.from_terms({1: 1728}))


def test_ring_axioms_randomized(rng):
    for trial in range(400):
        max_deg = 30 if trial % 10 == 0 else 8
        p, q, r = (rand_poly(rng, max_deg, span=5) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert mul_pointwise_equal(p, q, p * q)


def test_degree_bookkeeping(rng):
    for _ in range(100):
        p, q = rand_poly(rng, 10), rand_poly(rng, 10)
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree == p.degree + q.degree


def test_power_zero_is_one_of_the_polynomial_ring():
    p = UniPoly.from_terms({2: 1, 1: 10, 0: 5})
    assert p ** 0 == UniPoly.one()
    assert (p ** 0).coefficient(0) == GaussRat.of(1)
    names = ("a1", "a0")
    q = UniPoly.from_terms({2: MultiPoly.const(names, 1),
                            0: MultiPoly.var(names, "a0")})
    one = q ** 0
    assert one.degree == 0
    assert one.coefficient(0) == MultiPoly.const(names, 1)
    assert one.coefficient(1) == MultiPoly.zero(names)
    assert one * q == q


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------


def test_derivative_examples():
    assert (UniPoly.from_terms({2: 1, 1: 10, 0: 5}).derivative()
            == UniPoly((10, 2)))
    assert UniPoly.constant(7).derivative().is_zero
    p = UniPoly.from_terms({11: 1, 6: -11, 1: -1})
    expected = UniPoly.from_terms({10: 11, 5: -66, 0: -1})
    assert p.derivative() == expected
    assert poly_pairs(p.derivative()) == derivative_pairs(poly_pairs(p))


def test_derivative_product_rule_randomized(rng):
    for _ in range(300):
        p, q = rand_poly(rng, 10, span=5), rand_poly(rng, 10, span=5)
        assert ((p * q).derivative()
                == p.derivative() * q + p * q.derivative())


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_examples():
    assert (UniPoly.from_terms({2: 1, 0: 1}).compose(UniPoly.from_terms({3: 1}))
            == UniPoly.from_terms({6: 1, 0: 1}))
    p = UniPoly.from_terms({4: 1, 3: 228, 2: 494, 1: -228, 0: 1})
    assert p.compose(UniPoly.x()) == p
    expected = UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1})
    assert p.compose(UniPoly.from_terms({5: 1})) == expected
    assert p.substitute_power(5) == expected


def test_compose_associative_randomized(rng):
    for _ in range(120):
        p, q, r = (rand_poly(rng, 4, span=4) for _ in range(3))
        assert p.compose(q).compose(r) == p.compose(q.compose(r))


# ---------------------------------------------------------------------------
# gcd and squarefreeness
# ---------------------------------------------------------------------------


def test_gcd_examples():
    z = UniPoly.x()
    assert poly_gcd(z * z - UniPoly.one(), z - UniPoly.one()) == z - UniPoly.one()
    v20 = UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1})
    p11 = UniPoly.from_terms({11: 1, 6: -11, 1: -1})
    assert poly_gcd(v20, p11) == UniPoly.one()
    # cross-check coprimality with the textbook oracle
    assert len(euclid_gcd_pairs(poly_pairs(v20), poly_pairs(p11))) == 1
    p = UniPoly((GaussRat.of(2), GaussRat.of(0, 4)))
    assert poly_gcd(p, p) == p.monic()


def test_gcd_divides_both_randomized(rng):
    count = 0
    while count < 200:
        p, q = rand_poly(rng, 9, span=4), rand_poly(rng, 9, span=4)
        if p.is_zero or q.is_zero:
            continue
        count += 1
        g = poly_gcd(p, q)
        assert (p % g).is_zero and (q % g).is_zero
        assert g == UniPoly.from_tokens(
            # oracle gcd, rebuilt through the serialization path
            [GaussRat(re, im).to_token()
             for re, im in euclid_gcd_pairs(poly_pairs(p), poly_pairs(q))])


def test_squarefree_examples():
    assert not is_squarefree(UniPoly.from_terms({2: 1, 1: -2, 0: 1}))
    assert is_squarefree(UniPoly.from_terms({10: 1, 5: -11, 0: -1}))
    assert is_squarefree(
        UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1}))


def test_squarefree_decomposition():
    z = UniPoly.x()
    one = UniPoly.one()
    p = (z - one) ** 2 * (z + UniPoly.constant(2))
    assert squarefree_decomposition(p) == [
        (z + UniPoly.constant(2), 1), (z - one, 2)]
    cube = UniPoly.from_terms({2: 1, 1: 10, 0: 5}) ** 3
    assert squarefree_decomposition(cube) == [
        (UniPoly.from_terms({2: 1, 1: 10, 0: 5}), 3)]


# ---------------------------------------------------------------------------
# rational maps
# ---------------------------------------------------------------------------


def test_ratmap_canonicalization():
    z = UniPoly.x()
    one = UniPoly.one()
    f = RationalMap(2, (z + one) * (z - one), (z - one) * z)
    assert f.num == z + one and f.den == z and f.k == GaussRat.of(2)
    with pytest.raises(ValueError):
        RationalMap(1, UniPoly.zero(), z)


def test_ratmap_substitute_power_simple():
    z = UniPoly.x()
    f = RationalMap(1, z, z + UniPoly.one())
    g = f.substitute_power(2)
    assert g.num == UniPoly.from_terms({2: 1})
    assert g.den == UniPoly.from_terms({2: 1, 0: 1})


def test_ratmap_substitute_power_degree_scales(rng):
    for n in (2, 3, 5):
        f = RationalMap(1, UniPoly.from_terms({3: 1, 0: 2}),
                        UniPoly.from_terms({2: 1, 1: 1}))
        assert f.substitute_power(n).degree == 3 * n


def test_token_roundtrip_poly(rng):
    for _ in range(30):
        p = rand_poly(rng, 8)
        assert UniPoly.from_tokens(p.to_tokens()) == p
