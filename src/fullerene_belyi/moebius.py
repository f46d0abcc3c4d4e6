"""Moebius transformations over Q(i) and the composition pipeline that turns
the 6-edge quotient function into the 12-, 60- and 72-edge functions.

The unfolding chain is

    beta12(z) = beta6(mu1(mu2(z)^2)),   beta60 = beta12(z^5),
    beta72 = beta12(z^6),

where mu1 carries (0, 1, inf) to (-11+2i, 0, -11-2i) and mu2 carries
(0, inf, i) to (-1, 1, inf).  A map given by three points and their images
comes from one formula, the homogeneous cross-ratio, whichever of the points
is infinity.  The presets never leave factored form: each step pulls the
monic squarefree factors of the previous function back one by one, by a
Moebius map (factored_compose_moebius) or by z -> z^n
(FactoredBelyi.substitute_power).  Both are one call to the private
FactoredBelyi._pull_back, which owns the side loop, where infinity goes
and the merge by exponent; this module supplies only the pull-back of a
binary form by a Moebius map (_homogenized_substitution).  The
multiplied-out maps are read off the result (the compose command
multiplies the verified factors of each side; beta12/60/72_ratmap wrap the
same products in a RationalMap); no composed preset is multiplied out and
split again.  Schwarz's classical invariant triple is reproduced at the end
as an independent cross-check of the degree-60 function, its identity
certified by FactoredBelyi.verify.
"""

from __future__ import annotations

from functools import cache

from .belyi import FactoredBelyi
from .derive import d6_solve
from .exact import ONE, ZERO, GaussRat, RationalMap, UniPoly, _Record, binary_power


class _Infinity:
    """The point at infinity of the projective line; its one instance is
    INFINITY."""

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
    def of(a: int | Fraction | GaussRat, b: int | Fraction | GaussRat,
           c: int | Fraction | GaussRat, d: int | Fraction | GaussRat) -> "Moebius":
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


def _homogenized_substitution(p: tuple[GaussRat, ...], m: Moebius) -> UniPoly:
    """sum p_i * (a z + b)^i * (c z + d)^(n - i) for n = len(p) - 1: the
    pull-back by m of the binary form sum p_i x^i y^(n - i), whose top
    coefficient may be 0 (the form y is the point at infinity).  For a
    polynomial's coefficients it is the numerator of p((az+b)/(cz+d)) over
    (cz+d)^n.  Homogeneous Horner, out = out * (az + b) + p_i * (cz + d)^(n - i)
    from i = n down, keeps one running power of cz + d."""
    top = UniPoly([m.b, m.a])
    bot = UniPoly([m.d, m.c])
    out, power = UniPoly.constant(p[-1]), UniPoly.one()
    for coeff in reversed(p[:-1]):
        power = power * bot
        out = out * top
        if not coeff.is_zero:
            out = out + power.scale(coeff)
    return out


def factored_compose_moebius(beta: FactoredBelyi, m: Moebius) -> FactoredBelyi:
    """beta(m(z)) in factored form, without multiplying the factors out
    (FactoredBelyi._pull_back with the degree-1 map m).

    A form f of degree n pulls back to the numerator of f(m(z)) over
    (cz + d)^n (_homogenized_substitution); its roots are the m-preimages
    of f's roots.  The one form vanishing at m(inf) loses a degree, so its
    side and exponent pass to infinity; y pulls back to cz + d, the point
    -d/c, or to the constant d when c = 0.
    """
    return beta._pull_back(lambda f: _homogenized_substitution(f, m))


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
    phi20 and phi30 monic (FactoredBelyi refuses any other factor)
    k*Z - Q = k*O reads
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
