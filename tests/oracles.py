"""Deliberately naive reference implementations used as independent oracles.

Everything here works on plain data (lists of Fraction pairs, Fractions,
floats), never on the package's own types, so a test comparing library
output against these functions exercises two unrelated code paths.  The
exceptions are ratmap_substitute_power, the multiplied-out reference for
FactoredBelyi.substitute_power, reference_verify, the multiplied-out
reference for FactoredBelyi.verify, and replace_fields, which builds the
altered documents the tests feed to both.
"""

import math
from fractions import Fraction

from fullerene_belyi.belyi import (DegreeImbalance, FactorNotSquarefree,
                                   FactoredBelyi, FactorsShareRoot,
                                   IdentityFailed)
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly, poly_gcd

# A Gaussian rational is an (re, im) pair of Fractions.
GZERO = (Fraction(0), Fraction(0))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gneg(a):
    return (-a[0], -a[1])


def poly_pairs(p):
    """Extract raw (re, im) coefficient pairs from a library UniPoly."""
    return [(c.re, c.im) for c in p.coeffs]


def eval_pairs(pairs, x):
    """Horner evaluation of a pair-list polynomial at a Gaussian point."""
    acc = GZERO
    for c in reversed(pairs):
        acc = gadd(gmul(acc, x), c)
    return acc


def mul_pairs(a, b):
    """Schoolbook product of two pair-list polynomials."""
    if not a or not b:
        return []
    out = [GZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = gadd(out[i + j], gmul(x, y))
    while out and out[-1] == GZERO:
        out.pop()
    return out


def mul_pointwise_equal(p, q, r):
    """True iff r == p*q, checked by evaluation at deg(p)+deg(q)+1 distinct
    rational points (enough to pin a polynomial of that degree)."""
    pp, qq, rr = poly_pairs(p), poly_pairs(q), poly_pairs(r)
    count = max(len(pp) + len(qq), len(rr)) + 1
    for i in range(count):
        x = (Fraction(i), Fraction(0))
        lhs = gmul(eval_pairs(pp, x), eval_pairs(qq, x))
        if lhs != eval_pairs(rr, x):
            return False
    return True


def derivative_pairs(pairs):
    """Term-by-term derivative on raw pairs."""
    return [(c[0] * i, c[1] * i) for i, c in enumerate(pairs)][1:]


def euclid_gcd_pairs(a, b):
    """Monic gcd on raw pair lists via textbook long division."""

    def trim(p):
        while p and p[-1] == GZERO:
            p.pop()
        return p

    def ginv(c):
        n = c[0] * c[0] + c[1] * c[1]
        return (c[0] / n, -c[1] / n)

    def mod(num, den):
        num = list(num)
        inv = ginv(den[-1])
        while trim(num) and len(num) >= len(den):
            f = gmul(num[-1], inv)
            shift = len(num) - len(den)
            for i, dc in enumerate(den):
                num[shift + i] = gadd(num[shift + i], gneg(gmul(f, dc)))
        return trim(num)

    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, mod(a, b)
    inv = ginv(a[-1])
    return [gmul(c, inv) for c in a]


def bisect_real_root(coeffs, lo, hi, iterations=200):
    """Exact bisection for a real-coefficient polynomial given as a list of
    Fractions (lowest first); lo/hi must bracket a sign change."""

    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    flo = ev(lo)
    if flo == 0:
        return lo
    if ev(hi) == 0:
        return hi
    assert (flo > 0) != (ev(hi) > 0), "interval does not bracket a root"
    for _ in range(iterations):
        mid = (lo + hi) / 2
        fm = ev(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def quartic_oracle_roots():
    """The four real roots of w^4 + 228w^3 + 494w^2 - 228w + 1 (the barrel
    vertex polynomial in w = z^6), ascending, by exact bisection."""
    coeffs = [Fraction(1), Fraction(-228), Fraction(494), Fraction(228),
              Fraction(1)]
    brackets = [(Fraction(-226), Fraction(-225)), (Fraction(-3), Fraction(-2)),
                (Fraction(0), Fraction(1, 100)), (Fraction(1, 4), Fraction(1, 2))]
    return [float(bisect_real_root(coeffs, lo, hi)) for lo, hi in brackets]


def pentagon_chord_angles(quartic_roots):
    """Chord angles (degrees) at A1, A7, A13, A8, A2 of the distinguished
    barrel pentagon, from the four quartic roots alone.

    The rings sit at radius |w|^(1/6) ordered by |w|; A1, A2 (innermost
    ring) and A7, A8 (second ring) come from the positive roots at
    arguments 0 and pi/3, A13 (third ring) from a negative root at pi/6.
    Each vertex is lifted to the unit sphere by inverse stereographic
    projection, and the angle at a vertex is the one between the chords
    to its two cycle neighbours.
    """
    w1, w2, w3, _ = sorted(quartic_roots, key=abs)
    assert w1 > 0 and w2 > 0 and w3 < 0, "unexpected root signs"
    polar = {"A1": (w1, 0.0), "A7": (w2, 0.0), "A13": (w3, math.pi / 6),
             "A8": (w2, math.pi / 3), "A2": (w1, math.pi / 3)}
    sphere = {}
    for label, (w, theta) in polar.items():
        r = abs(w) ** (1.0 / 6.0)
        x, y = r * math.cos(theta), r * math.sin(theta)
        d = x * x + y * y + 1.0
        sphere[label] = (2.0 * x / d, 2.0 * y / d, (x * x + y * y - 1.0) / d)

    def chord(a, b):
        return [q - p for p, q in zip(sphere[a], sphere[b])]

    cycle = list(polar)
    angles = {}
    for i, label in enumerate(cycle):
        u = chord(label, cycle[i - 1])
        v = chord(label, cycle[(i + 1) % 5])
        dot = sum(a * b for a, b in zip(u, v))
        cos = dot / math.sqrt(sum(a * a for a in u) * sum(b * b for b in v))
        angles[label] = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
    return angles


def ratmap_substitute_power(f, n):
    """f(z^n) for a RationalMap f, by substituting into num and den."""
    return RationalMap(f.k, f.num.substitute_power(n),
                       f.den.substitute_power(n))


def reference_verify(beta):
    """FactoredBelyi.verify as it was before the integer certificate, the
    reference for the one in the package: squarefreeness and coprimality
    by the exact Euclidean poly_gcd, the identity k*Z - Q = c*O by
    multiplying the factors out over Q(i), and the checks in their old
    order (the identity before the side sums).  Returns the passport or
    raises the error verify raises, with the same message."""
    all_factors = beta.zero_factors + beta.one_factors + beta.pole_factors
    for f, _ in all_factors:
        if not f.is_monic:
            raise FactorNotSquarefree(f"factor {f} is not monic")
        if poly_gcd(f, f.derivative()).degree:
            raise FactorNotSquarefree(f"factor {f} has a repeated root")
    for i in range(len(all_factors)):
        for j in range(i + 1, len(all_factors)):
            a, b = all_factors[i][0], all_factors[j][0]
            if poly_gcd(a, b).degree:
                raise FactorsShareRoot(f"factors {a} and {b} share a root")

    def product(factors):
        out = UniPoly.one()
        for f, e in factors:
            out = out * f ** e
        return out

    z_prod, q_prod, o_prod = (product(beta.zero_factors),
                              product(beta.pole_factors),
                              product(beta.one_factors))
    w = z_prod.scale(beta.k) - q_prod
    if w.is_zero:
        raise IdentityFailed("k*zeros - poles collapsed to zero")
    if w.monic() != o_prod:
        raise IdentityFailed(
            "k*zeros - poles does not factor as declared: "
            f"got {w.monic()}, declared {o_prod}")

    def side_sum(factors, side):
        total = sum(f.degree * e for f, e in factors)
        return total + (beta.infinity_order if beta.infinity_side == side else 0)

    n = side_sum(beta.zero_factors, "zero")
    for side, factors in (("one", beta.one_factors), ("pole", beta.pole_factors)):
        if side_sum(factors, side) != n:
            raise DegreeImbalance(f"{side} side sums to {side_sum(factors, side)}, "
                                  f"zero side to {n}")
    dn, dd = z_prod.degree, q_prod.degree
    if dn != dd:
        expected = ("pole", dn - dd) if dn > dd else ("zero", dd - dn)
    elif beta.k == GaussRat.of(1):
        expected = ("one", dd - w.degree)
    else:
        expected = ("none", 0)
    if expected != (beta.infinity_side, beta.infinity_order):
        raise DegreeImbalance(
            f"infinity tagged {beta.infinity_side}^{beta.infinity_order}, "
            f"degrees give {expected[0]}^{expected[1]}")
    return beta.passport()


def replace_fields(beta, **changes):
    """beta with the named fields changed, rebuilt through the public
    FactoredBelyi constructor, so its checks run on the new fields."""
    fields = {"k": beta.k, "zero_factors": beta.zero_factors,
              "one_factors": beta.one_factors,
              "pole_factors": beta.pole_factors,
              "infinity_side": beta.infinity_side,
              "infinity_order": beta.infinity_order}
    return FactoredBelyi(**{**fields, **changes})
