"""Deliberately naive reference implementations used as independent oracles.

Everything here works on plain data (lists of Fraction pairs, Fractions,
floats), never on the package's own types, so a test comparing library
output against these functions exercises two unrelated code paths.  The
exceptions are ratmap_substitute_power and ratmap_compose_moebius, the
multiplied-out references for FactoredBelyi.substitute_power and
moebius.factored_compose_moebius, reference_verify, the multiplied-out
reference for FactoredBelyi.verify, declared_points, side_sum and
is_tight, which restate the point count, the side sums and the one kind
of document verify accepts, replace_fields, which builds the altered
documents the tests feed to both, substitute_by_accumulation and
reference_linear_solve, the one-variable-at-a-time references for
MultiPoly.substitute_all and sequential_linear_solve, resolve_backward,
the reference for the resolved map an EliminationTrace keeps,
quotient_system, the d6 ansatz's equations built by multiplying out, and the
multiplied-out references on UniPoly that the package certifies without
expanding: compose, ode_residual, halphen_identity_failures and
main_equation_residual.  packed_width_bits restates the digit width that
exact._packed_sum proves for a list of terms.  two_point_map and power_map
build genuine Belyi maps with known passports in factored form, for the
tests that feed them to verify and to its oracles, and dense_document
writes large faulty `belyi v1` documents for the tests that time verify's
refusals.  reference_parser is cli.build_parser as it was written before
the command table, the argparse parser that cli.read_command_line and
the table-built parser are held to; reader_agrees and exit_of compare
them.
"""

import argparse
import contextlib
import io
import math
import random
from fractions import Fraction

from fullerene_belyi import cli
from fullerene_belyi.cli import (cmd_compose, cmd_derive, cmd_facevector,
                                 cmd_geometry, cmd_passport, cmd_verify)
from fullerene_belyi.belyi import (DegreeImbalance, FactorNotSquarefree,
                                   FactoredBelyi, FactorsShareRoot,
                                   IdentityFailed, _show, _show_int)
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly, poly_gcd
from fullerene_belyi.multipoly import (EliminationStep, EliminationTrace,
                                       InconsistentSystemError, MultiPoly,
                                       NonLinearStepError, _divide_assumptions,
                                       _pick_linear_unknown)

# A Gaussian rational is an (re, im) pair of Fractions.
GZERO = (Fraction(0), Fraction(0))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gneg(a):
    return (-a[0], -a[1])


def packed_width_bits(terms):
    """The digit width, in bits, of exact._packed_sum on terms
    [((cr, ci), [((re, im), e), ...]), ...]: the bit length of
    sum(||c||_1 * prod(||f||_1^e)), plus a sign bit, in whole bytes."""
    bound = sum((abs(cr) + abs(ci)) * math.prod(
        (sum(map(abs, re)) + sum(map(abs, im))) ** e for (re, im), e in factors)
        for (cr, ci), factors in terms)
    return 8 * ((bound.bit_length() + 8) // 8)


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


def ratmap_compose_moebius(f, m):
    """f(m(z)) for a RationalMap f and a Moebius m = (az + b)/(cz + d), on
    projective pairs: num and den each become sum p_i*(az + b)^i*(cz + d)^(e - i)
    with e = deg f, the numerator of p(m(z)) over (cz + d)^e."""
    top, bot = UniPoly([m.b, m.a]), UniPoly([m.d, m.c])

    def homogenized(p):
        return sum(((top ** i * bot ** (f.degree - i)).scale(c)
                    for i, c in enumerate(p.coeffs)), UniPoly.zero())

    return RationalMap(f.k, homogenized(f.num), homogenized(f.den))


def declared_points(beta):
    """Each factor's degree once, plus one for a tagged infinity."""
    return (sum(f.degree for f, _ in beta.zero_factors + beta.one_factors
                + beta.pole_factors) + (beta.infinity_side != "none"))


def side_sum(beta, factors, side):
    """The degrees of one side's factors times their exponents, plus the
    order at infinity when infinity is tagged with that side."""
    total = sum(f.degree * e for f, e in factors)
    return total + (beta.infinity_order if beta.infinity_side == side else 0)


def is_tight(beta):
    """The documents FactoredBelyi.verify can accept: sides balanced at a
    degree n >= 1, k != 0, and exactly n + 2 declared points."""
    n = side_sum(beta, beta.zero_factors, "zero")
    return (n >= 1 and not beta.k.is_zero
            and side_sum(beta, beta.one_factors, "one") == n
            and side_sum(beta, beta.pole_factors, "pole") == n
            and declared_points(beta) == n + 2)


def reference_verify(beta):
    """FactoredBelyi.verify as it was before the integer certificate, the
    reference for the one in the package: equal factors by comparing
    coefficients, squarefreeness and coprimality by the exact Euclidean
    poly_gcd, the identity k*Z - Q = c*O by multiplying the factors out
    over Q(i), and the checks in verify's order (equal factors, side sums,
    too few points, identity, squarefree, pairs, too many points, degree
    0).  Returns the passport or raises the error verify raises, with the
    same message (polynomials and integers shown as belyi's messages show
    them)."""
    all_factors = beta.zero_factors + beta.one_factors + beta.pole_factors
    for j in range(len(all_factors)):
        for i in range(j):
            a, b = all_factors[i][0], all_factors[j][0]
            if a == b:
                raise FactorsShareRoot(f"factors {_show(a)} and {_show(b)} share a root")
    n = side_sum(beta, beta.zero_factors, "zero")
    for side, factors in (("one", beta.one_factors), ("pole", beta.pole_factors)):
        if side_sum(beta, factors, side) != n:
            raise DegreeImbalance(f"{side} side sums to "
                                  f"{_show_int(side_sum(beta, factors, side))}, "
                                  f"zero side to {_show_int(n)}")
    # a degree-n map has at least n + 2 distinct points over 0, 1 and
    # infinity, and a Belyi map exactly n + 2 (Riemann-Hurwitz)
    points = declared_points(beta)
    if n >= 1 and points < n + 2:
        raise IdentityFailed(
            f"k*zeros - poles cannot factor as declared: {points} points over "
            f"0, 1 and infinity, a degree-{_show_int(n)} map has at least "
            f"{_show_int(n + 2)} (Riemann-Hurwitz)")

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
            f"got {_show(w.monic())}, declared {_show(o_prod)}")
    dn, dd = z_prod.degree, q_prod.degree
    if dn != dd:
        expected = ("pole", dn - dd) if dn > dd else ("zero", dd - dn)
    elif beta.k == GaussRat.of(1):
        expected = ("one", dd - w.degree)
    else:
        expected = ("none", 0)
    if expected != (beta.infinity_side, beta.infinity_order):
        raise DegreeImbalance(
            f"infinity tagged {beta.infinity_side}^{_show_int(beta.infinity_order)}, "
            f"degrees give {expected[0]}^{_show_int(expected[1])}")

    for f, _ in all_factors:
        if poly_gcd(f, f.derivative()).degree:
            raise FactorNotSquarefree(f"factor {_show(f)} has a repeated root")
    for i in range(len(all_factors)):
        for j in range(i + 1, len(all_factors)):
            a, b = all_factors[i][0], all_factors[j][0]
            if poly_gcd(a, b).degree:
                raise FactorsShareRoot(f"factors {_show(a)} and {_show(b)} share a root")
    # with squarefree, pairwise coprime factors the declared points are
    # distinct, and more than n + 2 leave a critical value outside {0, 1, oo}
    if n >= 1 and points > n + 2:
        raise IdentityFailed(
            f"not a Belyi map: {points} points over 0, 1 and infinity, a "
            f"degree-{_show_int(n)} Belyi map has exactly "
            f"{_show_int(n + 2)}, so beta would have a critical value "
            "outside 0, 1 and infinity (Riemann-Hurwitz)")
    if n < 1:
        raise DegreeImbalance("every side sums to 0: a Belyi map has "
                              "degree at least 1")
    return beta.passport()


def two_point_map(a, b):
    """beta = c*z^a*(1 - z)^b with c = (a + b)^(a + b)/(a^a*b^b), a Belyi
    map of degree n = a + b with passport (a b | 2 1^(n-2) | n), in
    factored form: its zero side is z^a*(z - 1)^b with k = (-1)^b*c, and
    its one side is (z - a/n)^2 times the cofactor that exact division
    leaves, which is constant for a = b = 1 (beta = 4z(1 - z),
    beta - 1 = -(2z - 1)^2)."""
    n = a + b
    k = GaussRat.of((-1) ** b * Fraction(n ** n, a ** a * b ** b))
    z, one = UniPoly.x(), UniPoly.one()
    zeros = ((z, a), (z - one, b))
    double = z - one * Fraction(a, n)
    ones = ((z ** a * (z - one) ** b).scale(k) - one).monic()
    cofactor = ones.divide_exact(double * double)
    one_factors = ((double, 2),) + (((cofactor, 1),) if cofactor.degree else ())
    return FactoredBelyi(k, zeros, one_factors, (), "pole", n)


def power_map(n):
    """z^n in factored form, passport (n | 1^n | n): beta - 1 = z^n - 1 is
    squarefree, and infinity is a pole of order n."""
    z, one = UniPoly.x(), UniPoly.one()
    return FactoredBelyi(GaussRat.of(1), ((z, n),), ((z ** n - one, 1),), (),
                         "pole", n)


def dense_document(n, tagged):
    """Three dense factors with digits in [-9, 9]: zero and one sides of
    degree n, a pole side of degree n - 1.  Tagged `infinity pole 1`, the
    sides balance on 3n points and k*Z - Q is no multiple of O; untagged,
    the pole side sums to n - 1."""
    rng = random.Random(n)

    def dense(degree):
        return " ".join(str(rng.randint(-9, 9)) for _ in range(degree)) + " 1"

    infinity = "infinity pole 1\n" if tagged else ""
    return (f"belyi v1\nk 1\n{infinity}zero 1 {dense(n)}\none 1 {dense(n)}\n"
            f"pole 1 {dense(n - 1)}\n")


def replace_fields(beta, **changes):
    """beta with the named fields changed, rebuilt through the public
    FactoredBelyi constructor, so its checks run on the new fields."""
    fields = {"k": beta.k, "zero_factors": beta.zero_factors,
              "one_factors": beta.one_factors,
              "pole_factors": beta.pole_factors,
              "infinity_side": beta.infinity_side,
              "infinity_order": beta.infinity_order}
    return FactoredBelyi(**{**fields, **changes})


def substitute_by_accumulation(p, name, replacement):
    """MultiPoly.substitute for one variable as it was first written, kept
    as the reference: one polynomial sum per term of p."""
    if isinstance(replacement, (int, Fraction)):
        replacement = MultiPoly.const(p.vars, replacement)
    i = p.vars.index(name)
    out = MultiPoly.zero(p.vars)
    for expo, c in p.terms.items():
        stripped = list(expo)
        stripped[i] = 0
        out = out + MultiPoly(p.vars, {tuple(stripped): c}) * replacement ** expo[i]
    return out


def reference_linear_solve(system, unknowns, assumptions=()):
    """sequential_linear_solve as it was before the resolved map, the
    reference for the one in the package: in one pass, every equation
    replays the solved steps on the original equation one after another,
    each by substitute_by_accumulation.  Dividing out the assumptions and
    picking the unknown are the package's own helpers, so the two differ
    only in how an equation is reduced.  Returns the trace or raises the
    error the package raises, with the same fields."""
    trace = EliminationTrace(assumptions=tuple(assumptions))
    unsolved = set(unknowns)
    for label, eq in system:
        raw = eq
        for step in trace.steps:
            raw = substitute_by_accumulation(raw, step.variable, step.substitution)
        reduced, divided = _divide_assumptions(raw, assumptions)
        if reduced.is_zero:
            continue
        if reduced.is_constant:
            raise InconsistentSystemError(label, reduced.constant_value())
        pick = _pick_linear_unknown(reduced, unknowns, unsolved)
        if pick is None:
            trace.free_vars = tuple(v for v in unknowns if v in unsolved)
            raise NonLinearStepError(trace, [label])
        name, expr = pick
        trace.steps.append(EliminationStep(
            label=label, equation=raw, divided_by=divided,
            variable=name, substitution=expr))
        unsolved.discard(name)
    trace.free_vars = tuple(v for v in unknowns if v in unsolved)
    return trace


def quotient_system(names):
    """The d6 ansatz A^3 - B^2*C - k*z = 0 over MultiPoly in names, with
    A = z^2 + a1*z + a0, B = z^2 + (a1 - t)*z + b0 and C = z^2 + c1*z + c0,
    as (z-degree, coefficient) pairs, highest degree first: b1 = a1 - t
    is written in t, the unknown d6_solve declares nonzero."""
    def var(name):
        return MultiPoly.var(names, name)

    def quad(hi, lo):
        return UniPoly.from_terms({2: MultiPoly.const(names, 1), 1: hi, 0: lo})

    S = (quad(var("a1"), var("a0")) ** 3
         - quad(var("a1") - var("t"), var("b0")) ** 2 * quad(var("c1"), var("c0"))
         - UniPoly.from_terms({1: var("k")}))
    return [(d, S.coefficient(d)) for d in range(S.degree, -1, -1)]


def resolve_backward(trace):
    """The solved variables of trace, each written in the free variables,
    in step order, rebuilt from trace.steps alone: the reference for
    trace.resolved, which the eliminator keeps as it goes.  A step's
    substitution mentions only variables unsolved at that step, and those
    solved later are resolved first, so walking the steps backwards
    resolves each by substituting the later ones one at a time."""
    out = {}
    for step in reversed(trace.steps):
        expr = step.substitution
        for name, value in out.items():
            expr = substitute_by_accumulation(expr, name, value)
        out[step.variable] = expr
    return {step.variable: out[step.variable] for step in trace.steps}


def compose(p, inner):
    """p(inner(z)) for UniPolys p and inner, by Horner over polynomials."""
    result = UniPoly((), p.ring_zero)
    for c in reversed(p.coeffs):
        result = result * inner + UniPoly((c,), p.ring_zero)
    return result


def ode_residual(p):
    """22*P*P'''' + 45*P''^2 - 66*P'*P''' multiplied out, the reference
    for derive._ode_system, which builds its coefficients in closed form."""
    d1 = p.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    d4 = d3.derivative()
    return (p * d4) * 22 + (d2 * d2) * 45 - (d1 * d3) * 66


def halphen_identity_failures(P, V, M, s):
    """Names of the intermediate identities that fail on (P, V, M, s), each
    checked multiplied out; derive certifies the first two by packed sums.

    The chain, with R := -190*P''/11:
      sM     s*M = 3*V'*P - 5*V*P'
      sV2    s*V^2 = 2*M'*P - 5*M*P'
      ODE-1  V^2*(3*V'*P - 5*V*P') = M*(2*M'*P - 5*M*P')
      ODE-2  s^2*V^2 = 6*V''*P^2 - 19*V'*P'*P - 10*V*P*P'' + 25*V*P'^2
      VR     V*R = 6*V''*P - 19*V'*P'
      PR     P*R = s^2*V + 10*P*P'' - 25*P'^2
      ODE-4  7*P'*R' - 6*P*R'' - 370*P'*P''' + 60*P*P'''' + R^2
               - 16*P''*R - 240*P''^2 = 0
    """
    failures = []
    p1 = P.derivative()
    p2 = p1.derivative()
    p3 = p2.derivative()
    p4 = p3.derivative()
    v1 = V.derivative()
    v2 = v1.derivative()
    m1 = M.derivative()
    lhs_sm = v1 * P * 3 - V * p1 * 5
    if lhs_sm != M * s:
        failures.append("sM")
    rhs_sv2 = m1 * P * 2 - M * p1 * 5
    if rhs_sv2 != V * V * s:
        failures.append("sV2")
    if V * V * lhs_sm != M * rhs_sv2:
        failures.append("ODE-1")
    if (V * V * (s * s) !=
            v2 * P * P * 6 - v1 * p1 * P * 19 - V * P * p2 * 10 + V * p1 * p1 * 25):
        failures.append("ODE-2")
    r = p2.scale(Fraction(-190, 11))
    if V * r != v2 * P * 6 - v1 * p1 * 19:
        failures.append("VR")
    if P * r != V * (s * s) + P * p2 * 10 - p1 * p1 * 25:
        failures.append("PR")
    r1 = r.derivative()
    r2 = r1.derivative()
    ode4 = (p1 * r1 * 7 - P * r2 * 6 - p1 * p3 * 370 + P * p4 * 60
            + r * r - p2 * r * 16 - p2 * p2 * 240)
    if not ode4.is_zero:
        failures.append("ODE-4")
    return failures


def main_equation_residual(k, V, P, H, M):
    """k*(V^3 - M^2) - P^5*H^6 multiplied out; identically zero exactly
    when (V, P, H, M, k) define a fullerene Belyi function
    beta = k*V^3/(P^5*H^6) with beta - 1 = k*M^2/(P^5*H^6)."""
    return (V ** 3 - M ** 2).scale(GaussRat.coerce(k)) - P ** 5 * H ** 6


def reference_parser() -> argparse.ArgumentParser:
    """cli.build_parser as it was before the command table, verbatim."""
    parser = argparse.ArgumentParser(
        prog="fullerene-belyi",
        description="Exact Belyi functions of the smallest fullerenes")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("facevector", help="face vector of the p6-hexagon fullerene")
    p.add_argument("p6", type=int)
    p.set_defaults(run=lambda a: cmd_facevector(a.p6))

    p = sub.add_parser("passport", help="branching passport of the fullerene")
    p.add_argument("p6", type=int)
    p.set_defaults(run=lambda a: cmd_passport(a.p6))

    p = sub.add_parser("verify", help="certify a factored Belyi function")
    p.add_argument("target", help="preset name (d6, d12, d60, d72) or file path")
    p.set_defaults(run=lambda a: cmd_verify(a.target))

    p = sub.add_parser("derive", help="one-big-face derivation for face degree s")
    p.add_argument("s", type=int)
    p.set_defaults(run=lambda a: cmd_derive(a.s))

    p = sub.add_parser("compose", help="build a composed preset or check Schwarz")
    p.add_argument("target", choices=("d12", "d60", "d72", "schwarz"))
    p.add_argument("--write", metavar="PATH",
                   help="also write the factored form to a belyi v1 file")
    p.set_defaults(run=lambda a: cmd_compose(a.target, a.write))

    p = sub.add_parser("geometry", help="metric report of the barrel pentagon")
    p.add_argument("target", choices=("barrel",))
    p.add_argument("--svg", metavar="PATH", help="also write the flat-face SVG")
    p.set_defaults(run=lambda a: cmd_geometry(a.svg))

    return parser


def reader_agrees(argv) -> bool:
    """Whether cli.read_command_line accepts argv; when it does, its
    attributes must be those the reference parser sets, and its run the
    table's command of the same subcommand."""
    got = cli.read_command_line(argv)
    if got is None:
        return False
    got = vars(got)
    assert got.pop("run") is cli.COMMANDS[got["subcommand"]][3], argv
    want = vars(reference_parser().parse_args(argv))
    del want["run"]
    assert got == want, argv
    return True


def exit_of(call, *args):
    """(code, stdout, stderr) when call(*args) raises SystemExit, else
    None; whatever it prints is captured either way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call(*args)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return None
