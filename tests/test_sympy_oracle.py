"""sympy as an independent oracle for the certification of the presets.

A factored Belyi function has squarefree, pairwise coprime factors exactly
when the product of its distinct factors is squarefree; sympy decides that
over QQ_I with its own arithmetic, and the answer must agree with
FactoredBelyi.verify.  Skipped when sympy is not installed.
"""

import pytest

from fullerene_belyi.belyi import FactoredBelyi, FactorsShareRoot
from fullerene_belyi.cli import PRESETS, load_preset

sympy = pytest.importorskip("sympy")

Z = sympy.Symbol("z")


def sympy_poly(f):
    return sympy.Poly([sympy.Rational(c.re.numerator, c.re.denominator)
                       + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
                       for c in reversed(f.coeffs)], Z, domain="QQ_I")


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
