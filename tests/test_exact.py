"""Exact arithmetic layer: Gaussian rationals, polynomials, rational maps."""

import random
import sys
import time
from fractions import Fraction

import pytest

from fullerene_belyi import exact
from fullerene_belyi.exact import (GaussRat, RationalMap, UniPoly, coprime,
                                   is_squarefree, poly_gcd,
                                   squarefree_decomposition)
from fullerene_belyi.multipoly import MultiPoly
from oracles import (compose, derivative_pairs, euclid_gcd_pairs,
                     gaussrat_disagreements, mul_pairs, mul_pointwise_equal,
                     poly_pairs, ratmap_substitute_power)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests need hypothesis
    st = None


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


INT_STRING_LIMIT = exact._int_string_limit()


@pytest.mark.parametrize("token", [
    "1e5", "1.5", "1_000", " 7 ", "\u0663", "1e9999999", "+1", "1/-2", "-",
    "1/", "/2", "1,2,3", "1,", "0x10", "", "1/0", "-0/00", "2,3/0", "--1",
    # int() reads each of these parts in from_tokens' one pass, or would
    # without its checks; the grammar must still name the fault
    "5/-3", "1-2", "-/5", "1,-", "0/0,1", "\ud800",
    pytest.param(f"2/3,-{'9' * (INT_STRING_LIMIT + 1)}", id="past-the-int-string-limit",
                 marks=pytest.mark.skipif(not INT_STRING_LIMIT, reason="no int-string limit"))])
def test_gaussrat_rejects_tokens_outside_the_grammar_at_once(token):
    start = time.perf_counter()
    with pytest.raises(ValueError) as want:
        GaussRat.from_token(token)
    # from_tokens reads the same grammar and refuses with the same message,
    # also inside a long line
    for tokens in (["1", token, "0"], ["-3/4,5"] * 40 + [token] + ["7/8"] * 40):
        with pytest.raises(ValueError) as got:
            UniPoly.from_tokens(tokens)
        assert str(got.value) == str(want.value)
    assert time.perf_counter() - start < 1


def test_from_tokens_refuses_exactly_what_the_grammar_refuses():
    """from_tokens' one pass accepts a token iff GaussRat.from_token does,
    with the same value, and refuses it with the grammar's message: tokens
    drawn from the grammar's characters and near misses that int() or
    str.isdigit() would read."""
    if st is None:
        pytest.skip("hypothesis is not installed")
    digits = st.sampled_from(["0", "7", "12", "00"])
    part = st.builds(lambda sign, n, den: sign + n + ("" if den is None else "/" + den),
                     st.sampled_from(["", "-"]), digits, st.none() | digits)
    grammatical = part | st.builds(lambda a, b: f"{a},{b}", part, part)
    pieces = st.sampled_from(["-", "/", ",", "+", "_", " ", "\t", ".", "e", "\u0663"])
    # a grammatical token with one near miss put in, or any text of the characters
    near_miss = st.builds(lambda t, i, c: t[:i] + c + t[i:], grammatical,
                          st.integers(0, 9), pieces)
    tokens = (grammatical | near_miss
              | st.text("0123456789-/,+_ \t.e\u0663", max_size=10))

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(tokens)
    def check(token):
        try:
            want = GaussRat.from_token(token)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                UniPoly.from_tokens(["1", token])
            assert str(got.value) == str(exc)
        else:
            assert UniPoly.from_tokens(["1", token]) == UniPoly((1, want))

    check()


def test_token_parts_past_the_int_string_limit_name_their_digits():
    limit = exact._int_string_limit()
    if not limit:
        pytest.skip("this Python parses ints from strings without a digit limit")
    assert exact._natural("9" * limit) == 10 ** limit - 1
    assert GaussRat.from_token(f"-1/{'7' * limit}").re.denominator == int("7" * limit)
    message = (f"^a number of {limit + 1} digits exceeds Python's int-string "
               f"limit of {limit} digits$")
    for token in ("9" * (limit + 1), f"1/{'7' * (limit + 1)}", f"1,-{'3' * (limit + 1)}"):
        with pytest.raises(ValueError, match=message):
            GaussRat.from_token(token)
        with pytest.raises(ValueError, match=message):
            UniPoly.from_tokens(["1", token])


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


# ---------------------------------------------------------------------------
# the Kronecker kernel against the schoolbook oracle
# ---------------------------------------------------------------------------


def assert_matches_schoolbook(p, q):
    assert poly_pairs(p * q) == mul_pairs(poly_pairs(p), poly_pairs(q))


def rand_kernel_poly(rng, deg, kind, bits=20):
    """deg + 1 coefficients of `kind` (real, imaginary, gaussian, or mixed:
    gaussian with unrelated denominators), numerators up to `bits` bits."""
    def part():
        return rng.randint(-(1 << bits), 1 << bits)

    coeffs = []
    for _ in range(deg + 1):
        if kind == "real":
            c = GaussRat.of(part())
        elif kind == "imaginary":
            c = GaussRat.of(0, part())
        elif kind == "mixed":
            c = GaussRat.of(Fraction(part(), rng.randint(1, 10 ** 6)),
                            Fraction(part(), rng.randint(1, 10 ** 6)))
        else:
            c = GaussRat.of(part(), part())
        coeffs.append(c)
    if coeffs[-1].is_zero:
        coeffs[-1] = GaussRat.of(1)
    return UniPoly(coeffs)


@pytest.mark.parametrize("kind", ["real", "imaginary", "gaussian", "mixed"])
def test_kronecker_matches_schoolbook_degrees_0_to_80(rng, kind):
    for deg in range(0, 81, 8):
        p = rand_kernel_poly(rng, deg, kind)
        q = rand_kernel_poly(rng, rng.randint(0, 80), kind)
        assert_matches_schoolbook(p, q)
        assert_matches_schoolbook(q, p)


def test_kronecker_real_times_imaginary(rng):
    for deg in (0, 1, 7, 40):
        p = rand_kernel_poly(rng, deg, "real")
        q = rand_kernel_poly(rng, deg + 3, "imaginary")
        assert_matches_schoolbook(p, q)
        assert_matches_schoolbook(q, q)


@pytest.mark.parametrize("bits", [256, 300, 1024])
def test_kronecker_big_coefficients(rng, bits):
    for deg in (0, 3, 24, 72):
        p = rand_kernel_poly(rng, deg, "gaussian", bits)
        q = rand_kernel_poly(rng, 80 - deg, "real", bits)
        assert_matches_schoolbook(p, q)
        assert_matches_schoolbook(p, p)


def test_kronecker_constant_times_polynomial(rng):
    p = rand_kernel_poly(rng, 60, "mixed")
    for c in (GaussRat.of(3), GaussRat.of(0, Fraction(-2, 7)),
              GaussRat.of(Fraction(1, 3), 5)):
        assert p * UniPoly.constant(c) == p.scale(c)
        assert UniPoly.constant(c) * p == p.scale(c)
        assert_matches_schoolbook(UniPoly.constant(c), p)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("unit", [(1, 0), (0, 1), (1, 1)], ids=str)
@pytest.mark.parametrize("x, y, bits", [
    # x*y = 2^(bits-1) - 1: the largest digit `bits` bits hold
    (7 * 31, 151, 16), (7, ((1 << 255) - 1) // 7, 256),
    # x*y = 2^15 and 2^255: one more, so the width grows by a byte
    (1 << 7, 1 << 8, 24), (1 << 126, 1 << 129, 264)])
def test_kronecker_digits_at_the_borrow_boundary(widths, sign, unit, x, y, bits):
    # monomials: the one coefficient of the product is unit^2 * x*y, for
    # the units 1 and i exactly the bound ||p||_1 * ||q||_1 the width is
    # proven from, for 1 + i half of it
    u = GaussRat.of(*unit)
    p = UniPoly.monomial(5, u * x)
    q = UniPoly.monomial(3, u * (sign * y))
    assert p * q == UniPoly.monomial(8, u * u * (sign * x * y))
    if sum(unit) == 1:
        assert widths == [bits]
    assert_matches_schoolbook(p, q)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("c, f, e, digits, bits", [
    # c * 7^2 = 2^63 - 1: the largest digit 64 bits hold
    (((1 << 63) - 1) // 49, [0, 7], 2, [0, 0, (1 << 63) - 1], 64),
    # c * 2^2 = 2^63: one more, so the width grows by a byte
    (1 << 61, [0, 2], 2, [0, 0, 1 << 63], 72),
    # c * (1 + z)^3: the digit 3c = 3 * 2^62 needs the 1-norm 8c of the
    # bound, not c times the largest digit of 1 + z
    (1 << 62, [1, 1], 3, [1 << 62, 3 << 62, 3 << 62, 1 << 62], 72)])
def test_packed_sum_powers_at_the_borrow_boundary(widths, sign, c, f, e, digits, bits):
    got = exact._packed_sum([((sign * c, 0), [((f, []), e)])], len(digits))
    assert got == [(sign * d, 0) for d in digits]
    assert widths == [bits]


_H = 1 << 200
# real parts: zero, units, small fractions, denominators divisible by the
# certificate prime (and its square), and heights up to 2^200
_PARTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-22, 3),
          Fraction(1, exact._P), Fraction(-5, 3 * exact._P), Fraction(exact._P, 2),
          Fraction(7, exact._P ** 2), Fraction(_H - 1, _H + 1), Fraction(-_H, 3),
          Fraction(1, _H + 3), Fraction(_H + 1))
# imaginary parts: with re = 0 these give zero and pure imaginary values
_IMAGINARY = (Fraction(0), Fraction(1), Fraction(-2, 5), Fraction(1, exact._P),
              Fraction(_H, 7))
GAUSS_GRID = [(re, im) for re in _PARTS for im in _IMAGINARY]


def test_gaussrat_agrees_with_the_fraction_pair_reference():
    """GaussRat, an integer triple, against Gaussian rationals as Fraction
    pairs (oracles.gaussrat_disagreements) on every pair of a fixed grid:
    + - * / and inverse, == and hash, str, tokens and their round trip,
    and the cleared form."""
    failures = [(x, y, bad) for x in GAUSS_GRID for y in GAUSS_GRID
                if (bad := gaussrat_disagreements(x, y))]
    assert not failures, failures[:3]


def test_gaussrat_reference_property():
    if st is None:
        pytest.skip("hypothesis is not installed")
    part = st.builds(Fraction, st.integers(-_H, _H), st.integers(1, _H)) | st.sampled_from(
        [Fraction(0), Fraction(1, exact._P), Fraction(exact._P + 2, 3 * exact._P)])
    gauss = st.tuples(part, part)

    @settings(max_examples=300, deadline=None)
    @given(gauss, gauss)
    def check(x, y):
        assert not gaussrat_disagreements(x, y)

    check()


def test_kronecker_kernel_property():
    if st is None:
        pytest.skip("hypothesis is not installed")
    part = st.fractions(max_denominator=1 << 40) | st.integers(
        -(1 << 300), 1 << 300).map(Fraction)
    gauss = st.builds(GaussRat, part, part)
    poly = st.lists(gauss, max_size=30).map(UniPoly)

    @settings(max_examples=150, deadline=None)
    @given(poly, poly)
    def check(p, q):
        assert_matches_schoolbook(p, q)

    check()


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
    assert (compose(UniPoly.from_terms({2: 1, 0: 1}), UniPoly.from_terms({3: 1}))
            == UniPoly.from_terms({6: 1, 0: 1}))
    p = UniPoly.from_terms({4: 1, 3: 228, 2: 494, 1: -228, 0: 1})
    assert compose(p, UniPoly.x()) == p
    expected = UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1})
    assert compose(p, UniPoly.from_terms({5: 1})) == expected
    assert p.substitute_power(5) == expected


def test_compose_associative_randomized(rng):
    for _ in range(120):
        p, q, r = (rand_poly(rng, 4, span=4) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


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
        assert divmod(p, g)[1].is_zero and divmod(q, g)[1].is_zero
        assert g == UniPoly.from_tokens(
            # oracle gcd, rebuilt through the serialization path
            [GaussRat(re, im).to_token()
             for re, im in euclid_gcd_pairs(poly_pairs(p), poly_pairs(q))])


def test_squarefree_examples():
    assert not is_squarefree(UniPoly.from_terms({2: 1, 1: -2, 0: 1}))
    assert is_squarefree(UniPoly.from_terms({10: 1, 5: -11, 0: -1}))
    assert is_squarefree(
        UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1}))


# ---------------------------------------------------------------------------
# the mod-p coprimality certificate
# ---------------------------------------------------------------------------


@pytest.fixture
def gcd_calls(monkeypatch):
    """Records every fallback to the exact poly_gcd."""
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(exact, "poly_gcd", spy)
    return calls


def test_certificate_prime_and_root_of_minus_one():
    p, r = exact._P, exact._R
    assert p % 4 == 1 and r * r % p == p - 1
    # deterministic Miller-Rabin: these bases decide every n < 3.3 * 10^24
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            pytest.fail(f"{p} is composite (witness {a})")


def test_coprime_certifies_without_gcd(gcd_calls, icosahedral_data):
    P, V, M, _ = icosahedral_data
    assert coprime(V, P) and coprime(M, V) and coprime(P, M)
    assert is_squarefree(P) and is_squarefree(V) and is_squarefree(M)
    assert gcd_calls == []


def test_coprime_unlucky_prime_falls_back(gcd_calls):
    # z and z - p are coprime over Q(i) but both reduce to z mod (p, i - r)
    z = UniPoly.x()
    shifted = z - UniPoly.constant(exact._P)
    assert coprime(z, shifted)
    assert coprime(shifted, z)
    assert len(gcd_calls) == 2


def test_coprime_prime_in_a_denominator_falls_back(gcd_calls):
    z = UniPoly.x()
    root = UniPoly.constant(Fraction(1, exact._P))
    a = z - root
    assert coprime(a, z + UniPoly.one())
    assert len(gcd_calls) == 1
    # a's cleared form p*z - 1 reduces to the constant -1, and z + 1 leads
    # with a unit: certified without the gcd
    assert coprime(z + UniPoly.one(), a)
    assert len(gcd_calls) == 1
    assert not coprime(a, a * (z + UniPoly.one()))
    assert not coprime((z + UniPoly.one()) * a, a)
    gauss = UniPoly((GaussRat.of(1, Fraction(2, exact._P)), 1))
    assert not coprime(gauss * z, gauss)
    assert len(gcd_calls) == 4


def test_coprime_leading_coefficient_divisible_by_prime(gcd_calls):
    # a reduces to -(z - 2) and b to -1, yet a and b share the root 1/p
    z, one = UniPoly.x(), UniPoly.one()
    b = z.scale(exact._P) - one
    assert not coprime(b * (z - one * 2), b)
    assert len(gcd_calls) == 1


def test_coprime_shared_root_is_false(gcd_calls):
    z, one, i = UniPoly.x(), UniPoly.one(), UniPoly.constant(GaussRat.of(0, 1))
    assert not coprime((z - i) * (z + one), (z - i) * (z - one * 3))
    assert coprime((z - i) * (z + one), (z + i) * (z - one * 3))
    assert not coprime(z * z + one, z - i)
    assert coprime(z * z - one, z - i)
    assert len(gcd_calls) == 2


def test_coprime_agrees_with_gcd_randomized(rng):
    count = 0
    while count < 150:
        p, q, g = (rand_poly(rng, 6, span=4) for _ in range(3))
        if p.is_zero or q.is_zero or g.is_zero:
            continue
        count += 1
        if count % 2:
            p, q = p * g, q * g
        assert coprime(p, q) == (poly_gcd(p, q).degree == 0)
    # the prime in a denominator: 1/p or i/p added to a random coefficient
    # of p, q or g (a coefficient stays nonzero, its other parts integers)
    count = 0
    while count < 60:
        polys = [rand_poly(rng, 4, span=4) for _ in range(3)]
        if any(f.is_zero for f in polys):
            continue
        count += 1
        which = rng.randrange(3)
        cs = list(polys[which].coeffs)
        j = rng.randrange(len(cs))
        cs[j] = cs[j] + rng.choice((exact.ONE, exact.I)) * Fraction(1, exact._P)
        polys[which] = UniPoly(cs)
        p, q, g = polys
        if count % 2:
            p, q = p * g, q * g
        assert coprime(p, q) == (poly_gcd(p, q).degree == 0)
        assert coprime(q, p) == coprime(p, q)


def test_is_squarefree_non_monic(gcd_calls):
    z, one = UniPoly.x(), UniPoly.one()
    assert is_squarefree((z * z - one).scale(3))
    assert is_squarefree((z * z + one).scale(GaussRat.of(2, -5)))
    assert not is_squarefree(((z - one) ** 2 * (z + one)).scale(Fraction(-7, 2)))
    assert gcd_calls != []  # the False answer came from poly_gcd
    del gcd_calls[:]
    # a leading coefficient divisible by p: no unit to certify with
    assert is_squarefree(UniPoly((-1, 0, exact._P)))
    assert len(gcd_calls) == 1


def test_is_squarefree_needs_the_leading_coefficient(gcd_calls):
    """(z -+ 1/p)^2 clears to p^2 z^2 -+ 2p z + 1, which reduces to the
    constant 1, whose derivative is zero: a constant gcd mod J that proves
    nothing, since the leading coefficient vanished.  Only that check
    sends the square to poly_gcd."""
    z = UniPoly.x()
    for root in (Fraction(1, exact._P), Fraction(-1, exact._P)):
        square = (z - UniPoly.constant(root)) ** 2
        assert exact._reduce_mod_p(exact._form_of(square)) == [1]
        assert not is_squarefree(square)
    assert len(gcd_calls) == 2


def test_is_squarefree_differentiates_the_reduction(gcd_calls, monkeypatch, rng):
    """The certificate reduces p once and differentiates in F_p: the
    reduction is a ring map that commutes with d/dz."""
    count = 0
    while count < 60:
        p = rand_poly(rng, 8, span=5)
        if p.is_zero or p.degree < 2:
            continue
        count += 1
        d, re, im = exact._cleared(p.coeffs)
        # the reduction of d*p', which is cleared already
        scaled = exact._cleared(p.derivative().scale(d).coeffs)
        assert scaled[0] == 1
        assert exact._derivative_mod_p(exact._reduce_mod_p((d, re, im))) == (
            exact._reduce_mod_p(scaled))
        assert is_squarefree(p) == (poly_gcd(p, p.derivative()).degree == 0)
    del gcd_calls[:]
    monkeypatch.setattr(UniPoly, "derivative", None)  # never built on this path
    z, one = UniPoly.x(), UniPoly.one()
    assert is_squarefree((z * z + one) * (z - one * 3))
    assert gcd_calls == []


def test_cleared_identity_names_the_monic_sides_only_on_failure():
    """None when k*Z - Q = c*O, (None, None) when k*Z - Q collapses, and
    (W/lead(W), O) when the monic sides differ."""
    z, one = UniPoly.x(), UniPoly.one()
    h = GaussRat.of(Fraction(1, 2), Fraction(1, 3))
    k = GaussRat.of(Fraction(-2, 5), 7)
    zero_side = (z - one.scale(h)) ** 2
    one_side = (z - one * 3) * (z + one.scale(h))
    pole_side = zero_side.scale(k) - one_side.scale(k - 1)  # monic
    zeros, poles = ((zero_side, 1),), ((pole_side, 1),)
    ones = ((z - one * 3, 1), (z + one.scale(h), 1))

    identity = exact._cleared_identity
    assert identity(k, zeros, ones, poles) is None
    assert identity(GaussRat.of(1), zeros, ones, zeros) == (None, None)
    wrong = ((z - one * 3, 1), (z + one * 2, 1))
    sides = identity(k, zeros, wrong, poles)
    assert sides == (one_side, (z - one * 3) * (z + one * 2))
    # each side holds the canonical cleared form of its coefficients
    for side in sides:
        assert exact._form_of(side) == exact._cleared(side.coeffs)
    # the tops of k*Z and Q cancel (L = 0): n/m is read from W''s z^deg O
    # digit, and only when deg O <= max(deg Z, deg Q), for W' has no digit
    # above that
    zeros, poles = ((z, 1),), ((z + one, 1),)  # W' = z - (z + 1) = -1
    assert identity(GaussRat.of(1), zeros, (), poles) is None
    assert identity(GaussRat.of(1), zeros, ((z * z + one, 1),), poles) == (
        one, z * z + one)


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


def test_ratmap_of_each_preset_needs_no_gcd(gcd_calls):
    from fullerene_belyi.cli import PRESETS, load_preset

    presets = [load_preset(name) for name in PRESETS]
    gcd_calls.clear()
    for beta in presets:
        f = beta.to_ratmap()
        assert f.num.is_monic and f.den.is_monic and f.k == beta.k
    assert gcd_calls == []


def test_ratmap_shared_root_is_cancelled_through_gcd(gcd_calls):
    z = UniPoly.x()
    i = UniPoly.constant(GaussRat.of(0, 1))
    f = RationalMap(3, (z - i) * (z + i) * z.scale(2), (z - i) ** 2)
    assert f.num == (z + i) * z and f.den == z - i
    assert f.k == GaussRat.of(6)
    assert gcd_calls  # the certificate cannot settle a shared root


def test_ratmap_substitute_power_simple():
    z = UniPoly.x()
    f = RationalMap(1, z, z + UniPoly.one())
    g = ratmap_substitute_power(f, 2)
    assert g.num == UniPoly.from_terms({2: 1})
    assert g.den == UniPoly.from_terms({2: 1, 0: 1})


def test_ratmap_substitute_power_degree_scales(rng):
    for n in (2, 3, 5):
        f = RationalMap(1, UniPoly.from_terms({3: 1, 0: 2}),
                        UniPoly.from_terms({2: 1, 1: 1}))
        assert ratmap_substitute_power(f, n).degree == 3 * n


def test_from_tokens_matches_the_coefficient_parse():
    """from_tokens parses straight to the cleared form, over the reduced
    denominators and without trailing zeros; the polynomial it gives is
    the one GaussRat.from_token's coefficients make."""
    if st is None:
        pytest.skip("hypothesis is not installed")

    def part(sign, pad, n, den, m):
        # n*m/(den*m): unreduced whenever m > 1, and "-0" for n = 0
        return f"{sign}{pad}{n * m}" + ("" if den is None else f"/{pad}{den * m}")

    parts = st.builds(part, st.sampled_from(["", "-"]), st.sampled_from(["", "0", "00"]),
                      st.integers(0, 10 ** 30), st.none() | st.integers(1, 1 << 40),
                      st.integers(1, 12))
    token = parts | st.builds(lambda a, b: f"{a},{b}", parts, parts)
    trailing = st.lists(st.sampled_from(["0", "-0", "00/7", "0,0", "-0/2,-000"]),
                        max_size=3)
    tokens = st.builds(lambda ts, zs: ts + zs, st.lists(token, max_size=10), trailing)

    @settings(max_examples=300, deadline=None)
    @given(tokens)
    def check(tokens):
        want = UniPoly([GaussRat.from_token(t) for t in tokens])
        got = UniPoly.from_tokens(tokens)
        # the form and the length are read before any coefficient is built
        assert got._form == exact._cleared(want.coeffs)
        assert exact._length(got) == len(want.coeffs)
        assert got.coeffs == want.coeffs and got == want
        assert hash(got) == hash(want) and str(got) == str(want)
        assert got.to_tokens() == want.to_tokens()
        if want:
            assert got.degree == want.degree and got.is_monic == want.is_monic
        else:
            assert got.is_zero

    check()


def test_a_cleared_form_is_kept_once_computed(monkeypatch):
    """_form_of clears a polynomial's coefficients once; a parsed one
    holds its form from the start and builds its coefficients on first
    read."""
    calls = []
    cleared = exact._cleared
    monkeypatch.setattr(exact, "_cleared",
                        lambda coeffs: calls.append(coeffs) or cleared(coeffs))
    p = UniPoly((Fraction(1, 2), GaussRat.of(Fraction(2, 3), 1), 1))
    assert exact._form_of(p) == (6, [3, 4, 6], [0, 6, 0]) and len(calls) == 1
    assert exact._form_of(p) is exact._form_of(p) and len(calls) == 1
    parsed = UniPoly.from_tokens(["1/2", "4/6,1", "1"])
    assert exact._form_of(parsed) == exact._form_of(p) and len(calls) == 1
    assert parsed.coeffs == p.coeffs and parsed.coeffs is parsed.coeffs
    with pytest.raises(AttributeError, match="has no attribute 'other'"):
        parsed.other


def test_first_equal_pair_compares_cleared_forms():
    """Equal polynomials have equal cleared forms however they were made
    (unreduced tokens, trailing zeros, coefficients in memory), so one
    pass over the forms finds the least j with an earlier equal, and the
    least such i, without building a parsed coefficient."""
    z = UniPoly.x()
    half = UniPoly((Fraction(1, 2), GaussRat.of(Fraction(2, 3), 1), 1))
    parsed = UniPoly.from_tokens(["2/4", "08/12,3/3", "1", "-0", "0,0"])
    other = UniPoly.from_tokens(["1/2", "2/3", "1"])
    assert exact.first_equal_pair([]) is None
    assert exact.first_equal_pair([z, half, other]) is None
    # the digits alone are equal here; only d tells 1/2 + z/2 from 1 + z
    assert exact.first_equal_pair([UniPoly((Fraction(1, 2), Fraction(1, 2))),
                                   UniPoly((1, 1))]) is None
    assert exact.first_equal_pair([z, half, other, z, parsed]) == (0, 3)
    assert exact.first_equal_pair([other, half, z, parsed, half]) == (1, 3)
    for f in (parsed, other):
        with pytest.raises(AttributeError):
            UniPoly.coeffs.__get__(f, UniPoly)  # the slot, unset


def test_token_roundtrip_poly(rng):
    for _ in range(30):
        p = rand_poly(rng, 8)
        assert UniPoly.from_tokens(p.to_tokens()) == p
