"""Moebius transformations over Q(i) and the composition pipeline that turns
the 6-edge quotient function into the 12-, 60- and 72-edge functions.

The unfolding chain is

    beta12(z) = beta6(mu1(mu2(z)^2)),   beta60 = beta12(z^5),
    beta72 = beta12(z^6),

where mu1 carries (0, 1, inf) to (-11+2i, 0, -11-2i) and mu2 carries
(0, inf, i) to (-1, 1, inf).  The presets never leave factored form: each
step maps the monic squarefree factors of the previous function one by one
(factored_compose_moebius here, FactoredBelyi.substitute_power in belyi),
and the multiplied-out maps are read off the result.  Composition of a
plain RationalMap (ratmap_compose_moebius) works on projective pairs
(numerator, denominator) and is kept for user maps and as the tests'
reference.  Schwarz's classical invariant triple is reproduced at the end
as an independent cross-check of the degree-60 function.
"""

from __future__ import annotations

from functools import cache

from .belyi import FactoredBelyi, merge_by_exponent
from .derive import d6_solve
from .exact import (ONE, GaussRat, RationalMap, UniPoly, Scalarish,
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

    def determinant(self) -> GaussRat:
        return self.a * self.d - self.b * self.c

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
    """The unique map sending (z1, z2, z3) to (0, 1, inf)."""
    pts = [_pt(z) for z in (z1, z2, z3)]
    inf_count = sum(isinstance(p, _Infinity) for p in pts)
    if inf_count > 1:
        raise ValueError("source points must be pairwise distinct")
    if inf_count == 0:
        a, b, c = pts
        for x, y in ((a, b), (b, c), (a, c)):
            if x == y:
                raise ValueError("source points must be pairwise distinct")
        # z -> (z - a)(b - c) / ((z - c)(b - a))
        return Moebius.of(b - c, (b - c) * (-a), b - a, (b - a) * (-c))
    if isinstance(pts[0], _Infinity):
        b, c = pts[1], pts[2]
        return Moebius.of(GaussRat.of(0), -(b - c), GaussRat.of(-1), c)
    if isinstance(pts[1], _Infinity):
        a, c = pts[0], pts[2]
        return Moebius.of(GaussRat.of(1), -a, GaussRat.of(1), -c)
    a, b = pts[0], pts[1]
    return Moebius.of(GaussRat.of(1), -a, GaussRat.of(0), b - a)


def moebius_from_three_points(sources, targets) -> Moebius:
    """The unique Moebius map with sources[i] -> targets[i]; infinity is
    allowed on either side."""
    fwd = _to_zero_one_inf(*sources)
    back = _to_zero_one_inf(*targets)
    return back.inverse().compose(fwd)


def _homogenized_substitution(p: UniPoly, m: Moebius, degree: int) -> UniPoly:
    """sum p_i * (a z + b)^i * (c z + d)^(degree - i): the numerator of
    p((az+b)/(cz+d)) over (cz+d)^degree."""
    top = UniPoly([m.b, m.a])
    bot = UniPoly([m.d, m.c])
    top_pow = [UniPoly.one()]
    bot_pow = [UniPoly.one()]
    for _ in range(degree):
        top_pow.append(top_pow[-1] * top)
        bot_pow.append(bot_pow[-1] * bot)
    out = UniPoly.zero()
    for i, coeff in enumerate(p.coeffs):
        if coeff.is_zero:
            continue
        out = out + (top_pow[i] * bot_pow[degree - i]).scale(coeff)
    return out


def ratmap_compose_moebius(f: RationalMap, m: Moebius) -> RationalMap:
    """f(m(z)), exact."""
    e = max(f.num.degree, f.den.degree)
    num = _homogenized_substitution(f.num, m, e)
    den = _homogenized_substitution(f.den, m, e)
    return RationalMap(f.k, num, den)


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
            h = _homogenized_substitution(f, m, f.degree)
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


def schwarz_check(phi30_override: UniPoly | None = None) -> bool:
    """phi20^3 - phi30^2 = 1728 * phi12^5 exactly, and the degree-60 preset
    equals phi20^3/(1728*phi12^5) after z -> -z.  The second check compares
    factored forms: by the identity, beta - 1 = phi30^2/(1728*phi12^5), and
    the degrees 60 over 55 put a pole of order 5 at infinity.  The override
    lets tests demonstrate that a perturbed phi30 breaks the identity."""
    phi12, phi20, phi30 = schwarz_forms()
    if phi30_override is not None:
        phi30 = phi30_override
    if phi20 ** 3 - phi30 ** 2 != (phi12 ** 5).scale(1728):
        return False
    flipped = factored_compose_moebius(build_beta60(), Moebius.of(-1, 0, 0, 1))
    k = (binary_power(phi20.leading(), 3, ONE)
         / binary_power(phi12.leading(), 5, ONE) / 1728)
    schwarz = FactoredBelyi(k, ((phi20.monic(), 3),), ((phi30.monic(), 2),),
                            ((phi12.monic(), 5),), "pole", 5)
    return flipped == schwarz
