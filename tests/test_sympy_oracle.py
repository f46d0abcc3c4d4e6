"""sympy as an independent oracle for the certification of the presets.

A factored Belyi function has squarefree, pairwise coprime factors exactly
when the product of its distinct factors is squarefree; sympy decides that
over QQ_I with its own arithmetic, and the answer must agree with
FactoredBelyi.verify.  sympy's own factorization of the multiplied-out
numerator, denominator and k*num - den over Q(i) must give the passport
verify returns.  And the critical points sympy finds must have their
values in 0, 1 and infinity exactly when verify accepts.  Skipped when
sympy is not installed.
"""

import pytest

from fullerene_belyi.belyi import (BelyiVerificationError, FactoredBelyi,
                                   FactorsShareRoot, Passport)
from fullerene_belyi.cli import PRESETS, load_preset

sympy = pytest.importorskip("sympy")

Z = sympy.Symbol("z")


def sympy_scalar(c):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def sympy_poly(f):
    return sympy.Poly([sympy_scalar(c) for c in reversed(f.coeffs)], Z,
                      domain="QQ_I")


def factor_product_is_squarefree(beta):
    product = sympy.Poly(1, Z, domain="QQ_I")
    for f, _ in beta.zero_factors + beta.one_factors + beta.pole_factors:
        product *= sympy_poly(f)
    return product.is_sqf


@pytest.mark.parametrize("name", PRESETS)
def test_preset_factor_product_squarefree_over_qq_i(name):
    beta = load_preset(name)
    beta.verify()
    assert factor_product_is_squarefree(beta)


def test_shared_factor_rejected_by_both():
    beta = load_preset("d12")
    tampered = FactoredBelyi(beta.k, beta.zero_factors, beta.one_factors,
                             beta.pole_factors + beta.zero_factors[:1],
                             beta.infinity_side, beta.infinity_order)
    assert not factor_product_is_squarefree(tampered)
    with pytest.raises(FactorsShareRoot):
        tampered.verify()


def sympy_product(factors):
    product = sympy.Poly(1, Z, domain="QQ_I")
    for f, e in factors:
        product *= sympy_poly(f) ** e
    return product


def parts(poly):
    """The multiplicities of poly's roots, one part per root, from sympy's
    factorization over Q(i)."""
    _, factors = sympy.factor_list(poly.as_expr(), Z, extension=sympy.I)
    return [e for f, e in factors for _ in range(sympy.degree(f, Z))]


@pytest.mark.parametrize("name", PRESETS)
def test_preset_passport_from_sympy_factorization(name):
    # num, den and k*num - den multiplied out and factored by sympy; the
    # point at infinity is read off their degrees
    beta = load_preset(name)
    k = sympy_scalar(beta.k)
    num, den = sympy_product(beta.zero_factors), sympy_product(beta.pole_factors)
    one = num * k - den
    assert sympy.resultant(num.as_expr(), den.as_expr(), Z) != 0
    sides = {"zero": parts(num), "one": parts(one), "pole": parts(den)}
    dn, dd, dw = num.degree(), den.degree(), one.degree()
    if dn != dd:
        sides["pole" if dn > dd else "zero"].append(abs(dn - dd))
    elif k == 1:
        sides["one"].append(dd - dw)
    assert Passport.of(sides["zero"], sides["one"], sides["pole"]) == beta.verify()


# beta = -z(z - 3)/2: the identity holds, but the critical point 3/2 has
# the value 9/8
NOT_BELYI = ("belyi v1\nk -1/2\ninfinity pole 2\nzero 1 0 1\nzero 1 -3 1\n"
             "one 1 2 -3 1\n")


def critical_values_in_the_fibres(beta):
    """Whether every finite critical point of beta = k*Z/Q lies over 0, 1
    or infinity.  beta' = k*W/Q^2 with W = Z'Q - ZQ', so the finite
    critical points are the roots of W (a pole of order e is a root of W
    of order e - 1), and each lies in a fibre exactly when it is a root of
    a declared factor: when the squarefree part of W divides their
    product."""
    num, den = sympy_product(beta.zero_factors), sympy_product(beta.pole_factors)
    w = num.diff(Z) * den - num * den.diff(Z)
    declared = sympy_product(
        (f, 1) for f, _ in beta.zero_factors + beta.one_factors + beta.pole_factors)
    return declared.rem(w.sqf_part()).is_zero


@pytest.mark.parametrize("name", [*PRESETS, "not-belyi"])
def test_verify_accepts_exactly_when_the_critical_values_are_0_1_infinity(name):
    """Each map satisfies its identity and tags infinity, so infinity lies
    in a fibre, and it is Belyi exactly when its finite critical values
    lie in 0, 1 and infinity."""
    beta = (FactoredBelyi.from_text(NOT_BELYI) if name == "not-belyi"
            else load_preset(name))
    assert beta.infinity_side != "none"
    try:
        beta.verify()
        accepted = True
    except BelyiVerificationError:
        accepted = False
    assert accepted == critical_values_in_the_fibres(beta) == (name != "not-belyi")
