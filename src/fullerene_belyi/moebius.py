"""Moebius transformations over Q(i) and the composition pipeline that turns
the 6-edge quotient function into the 12-, 60- and 72-edge functions.

The unfolding chain is

    beta12(z) = beta6(mu1(mu2(z)^2)),   beta60 = beta12(z^5),
    beta72 = beta12(z^6),

where mu1 carries (0, 1, inf) to (-11+2i, 0, -11-2i) and mu2 carries
(0, inf, i) to (-1, 1, inf).  A map given by three points and their images
comes from one formula, the homogeneous cross-ratio, whichever of the points
is infinity.  The presets never leave factored form: each step maps the
monic squarefree factors of the previous function one by one
(factored_compose_moebius here, FactoredBelyi.substitute_power in belyi),
and the multiplied-out maps are read off the result (the compose command
multiplies the verified factors of each side; beta12/60/72_ratmap wrap the
same products in a RationalMap); no composed preset is multiplied out and
split again.  Schwarz's classical invariant triple is reproduced at the end
as an independent cross-check of the degree-60 function, its identity
certified by FactoredBelyi.verify.
"""

from __future__ import annotations

from functools import cache

from .belyi import FactoredBelyi, merge_by_exponent
from .derive import d6_solve
from .exact import (ONE, ZERO, GaussRat, RationalMap, UniPoly, Scalarish,
                    _Record, binary_power)


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

ExtendedPoint = GaussRat | _Infinity


def _pt(v) -> ExtendedPoint:
    if isinstance(v, _Infinity):
        return v
    return GaussRat.coerce(v)


class Moebius(_Record, frozen=True):
    """z -> (a*z + b)/(c*z + d) with ad - bc != 0, entries in Q(i).

    Entries are normalized so the first nonzero of (a, b, c, d) is 1, making
    equality structural.  Composition is the 2x2 matrix product.
    """

    a: GaussRat
    b: GaussRat
    c: GaussRat
    d: GaussRat

    @staticmethod
    def of(a: Scalarish, b: Scalarish, c: Scalarish, d: Scalarish) -> "Moebius":
        a, b, c, d = (GaussRat.coerce(v) for v in (a, b, c, d))
        det = a * d - b * c
        if det.is_zero:
            raise ValueError("degenerate Moebius map (zero determinant)")
        for lead in (a, b, c, d):
            if not lead.is_zero:
                inv = lead.inverse()
                return Moebius(a * inv, b * inv, c * inv, d * inv)
        raise AssertionError("unreachable")

    @staticmethod
    def identity() -> "Moebius":
        return Moebius.of(1, 0, 0, 1)

    def compose(self, other: "Moebius") -> "Moebius":
        """self after other: (self . other)(z) = self(other(z))."""
        return Moebius.of(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def inverse(self) -> "Moebius":
        return Moebius.of(self.d, -self.b, -self.c, self.a)

    def apply(self, point) -> ExtendedPoint:
        p = _pt(point)
        if isinstance(p, _Infinity):
            if self.c.is_zero:
                return INFINITY
            return self.a / self.c
        den = self.c * p + self.d
        if den.is_zero:
            return INFINITY
        return (self.a * p + self.b) / den

    def __str__(self) -> str:
        return f"(({self.a})z + ({self.b})) / (({self.c})z + ({self.d}))"


def _to_zero_one_inf(z1, z2, z3) -> Moebius:
    """The unique map sending (z1, z2, z3) to (0, 1, inf): the cross-ratio
    z -> [z, z1][z2, z3] / ([z, z3][z2, z1]) in homogeneous coordinates,
    a point (x : y) being z = (z : 1) or infinity = (1 : 0), and
    [p, q] = x_p*y_q - y_p*x_q, which is 0 exactly when p and q coincide."""
    (x1, y1), (x2, y2), (x3, y3) = (
        (ONE, ZERO) if isinstance(p, _Infinity) else (p, ONE)
        for p in map(_pt, (z1, z2, z3)))
    d23, d21, d13 = x2 * y3 - y2 * x3, x2 * y1 - y2 * x1, x1 * y3 - y1 * x3
    if d23.is_zero or d21.is_zero or d13.is_zero:
        raise ValueError("source points must be pairwise distinct")
    return Moebius.of(y1 * d23, -x1 * d23, y3 * d21, -x3 * d21)


def moebius_from_three_points(sources, targets) -> Moebius:
    """The unique Moebius map with sources[i] -> targets[i]; infinity is
    allowed on either side."""
    fwd = _to_zero_one_inf(*sources)
    back = _to_zero_one_inf(*targets)
    return back.inverse().compose(fwd)


def _homogenized_substitution(p: UniPoly, m: Moebius) -> UniPoly:
    """sum p_i * (a z + b)^i * (c z + d)^(n - i) for n = deg p: the
    numerator of p((az+b)/(cz+d)) over (cz+d)^n.  Homogeneous Horner,
    out = out * (az + b) + p_i * (cz + d)^(n - i) from i = n down, keeps one
    running power of cz + d."""
    top = UniPoly([m.b, m.a])
    bot = UniPoly([m.d, m.c])
    out, power = UniPoly.constant(p.leading()), UniPoly.one()
    for coeff in reversed(p.coeffs[:-1]):
        power = power * bot
        out = out * top
        if not coeff.is_zero:
            out = out + power.scale(coeff)
    return out


def factored_compose_moebius(beta: FactoredBelyi, m: Moebius) -> FactoredBelyi:
    """beta(m(z)) in factored form, without multiplying the factors out.

    A factor f becomes the monic numerator of f(m(z)) over
    (cz + d)^deg f; its roots are the m-preimages of f's roots, so the
    factors stay squarefree and coprime.  The one factor vanishing at
    m(inf) = a/c loses a degree, and its class and exponent pass to
    infinity (which is untagged when no factor vanishes there).  The point
    m^-1(inf) = -d/c takes infinity's old class and order.  The scalar
    picks up the leading coefficients, and the power (cz + d)^(+-o) left
    over when infinity was a zero or pole of order o.  With c = 0,
    infinity keeps its tag and that power is the constant d^(+-o).
    """
    side, order = beta.infinity_side, beta.infinity_order
    affine = m.c.is_zero
    new_side, new_order = (side, order) if affine else ("none", 0)
    k = beta.k
    sides = {}
    for name, factors in (("zero", beta.zero_factors),
                          ("one", beta.one_factors),
                          ("pole", beta.pole_factors)):
        out = []
        for f, e in factors:
            h = _homogenized_substitution(f, m)
            if h.degree < f.degree:
                new_side, new_order = name, e
            if name != "one":
                lead = binary_power(h.leading(), e, ONE)
                k = k * lead if name == "zero" else k / lead
            if h.degree > 0:
                out.append((h.monic(), e))
        sides[name] = out
    if side in ("zero", "pole"):
        u = binary_power(m.d if affine else m.c, order, ONE)
        k = k * u if side == "zero" else k / u
    if not affine and side != "none":
        sides[side].append((UniPoly([m.d / m.c, ONE]), order))
    return FactoredBelyi(k, merge_by_exponent(sides["zero"]),
                         merge_by_exponent(sides["one"]),
                         merge_by_exponent(sides["pole"]),
                         new_side, new_order)


# ---------------------------------------------------------------------------
# The preset pipeline
# ---------------------------------------------------------------------------


@cache
def mu1() -> Moebius:
    """Sends (0, 1, inf) to (-11+2i, 0, -11-2i), the roots of z^2+22z+125
    flanking the white point at 0."""
    return moebius_from_three_points(
        (0, 1, INFINITY),
        (GaussRat.of(-11, 2), 0, GaussRat.of(-11, -2)))


@cache
def mu2() -> Moebius:
    """(iz - 1)/(iz + 1): sends (0, inf, i) to (-1, 1, inf)."""
    return moebius_from_three_points((0, INFINITY, GaussRat.of(0, 1)),
                                     (-1, 1, INFINITY))


@cache
def build_beta12() -> FactoredBelyi:
    """beta6 . mu1 . (z -> z^2) . mu2, factor by factor."""
    beta = factored_compose_moebius(d6_solve().belyi, mu1())
    return factored_compose_moebius(beta.substitute_power(2), mu2())


@cache
def build_beta60() -> FactoredBelyi:
    return build_beta12().substitute_power(5)


@cache
def build_beta72() -> FactoredBelyi:
    return build_beta12().substitute_power(6)


@cache
def beta12_ratmap() -> RationalMap:
    return build_beta12().to_ratmap()


@cache
def beta60_ratmap() -> RationalMap:
    return build_beta60().to_ratmap()


@cache
def beta72_ratmap() -> RationalMap:
    return build_beta72().to_ratmap()


# ---------------------------------------------------------------------------
# Schwarz's invariant triple
# ---------------------------------------------------------------------------


@cache
def schwarz_forms() -> tuple[UniPoly, UniPoly, UniPoly]:
    """(phi12, phi20, phi30) = (s(1 - 11s^5 - s^10),
    1 + 228s^5 + 494s^10 - 228s^15 + s^20,
    1 - 522s^5 - 10005s^10 - 10005s^20 + 522s^25 + s^30)."""
    phi12 = UniPoly.from_terms({1: 1, 6: -11, 11: -1})
    phi20 = UniPoly.from_terms({0: 1, 5: 228, 10: 494, 15: -228, 20: 1})
    phi30 = UniPoly.from_terms(
        {0: 1, 5: -522, 10: -10005, 20: -10005, 25: 522, 30: 1})
    return phi12, phi20, phi30


def schwarz_check() -> bool:
    """Certify phi20^3 - phi30^2 = 1728 * phi12^5, then compare the triple
    with the degree-60 preset after z -> -z.

    The triple is the factored function beta = phi20^3/(1728*phi12^5),
    with a pole of order 5 at infinity and beta - 1 declared as a scalar
    multiple of phi30^2, and verify() certifies it: a failing identity
    raises IdentityFailed.  verify proves k*Z - Q = c*O, and the scalar is
    pinned by leading terms: deg phi12^5 = 55 < 60, so c = k, and with
    phi20 and phi30 monic (verify requires it) k*Z - Q = k*O reads
    phi20^3 - 1728*phi12^5 = phi30^2.  The flipped beta60 is
    beta12(-z) lifted by z -> z^5: the same factored form, composed at a
    fifth of the degree.  Returns whether it equals the triple."""
    phi12, phi20, phi30 = schwarz_forms()
    k = 1 / (1728 * binary_power(phi12.leading(), 5, ONE))
    schwarz = FactoredBelyi(k, ((phi20, 3),), ((phi30, 2),),
                            ((phi12.monic(), 5),), "pole", 5)
    schwarz.verify()
    flipped = factored_compose_moebius(build_beta12(), Moebius.of(-1, 0, 0, 1))
    return flipped.substitute_power(5) == schwarz
