"""The one-big-face derivations and the 6-edge quotient elimination."""

import math
import random
from fractions import Fraction

import pytest

from fullerene_belyi import derive
from fullerene_belyi.belyi import FactoredBelyi
from fullerene_belyi.derive import (Verdict, case_degrees, d6_solve,
                                    derive_case, family_k, family_k_formula,
                                    ode_leading_coeff, run_ode_elimination,
                                    vm_from_p)
from fullerene_belyi.exact import GaussRat, RationalMap, UniPoly
from fullerene_belyi.multipoly import MultiPoly
from oracles import (halphen_identity_failures, main_equation_residual,
                     ode_residual, packed_width_bits, quotient_system,
                     resolve_backward)


# ---------------------------------------------------------------------------
# degrees and the ODE obstruction
# ---------------------------------------------------------------------------


def test_case_degrees():
    assert case_degrees(5) == (60, 20, 30, 11)
    assert case_degrees(6) == (66, 22, 33, 12)
    n, k, l, m = case_degrees(3)
    assert (n, k, l, m) == (48, 16, 24, 9)
    assert n == 3 * k == 2 * l == 5 * m + 3


def test_ode_leading_coeff_values():
    assert ode_leading_coeff(5) == 0
    assert ode_leading_coeff(6) == 0
    assert ode_leading_coeff(1) == (-5) * (-4) * 6 * 7 == 840


def test_ode_leading_coeff_zero_only_at_5_and_6():
    zeros = [s for s in range(1, 1001) if ode_leading_coeff(s) == 0]
    assert zeros == [5, 6]


def test_ode_residual_on_solution_and_monomial(icosahedral_data):
    P, _, _, _ = icosahedral_data
    assert ode_residual(P).is_zero
    for m in (7, 9, 14):
        res = ode_residual(UniPoly.from_terms({m: 1}))
        expected = UniPoly.from_terms(
            {2 * m - 4: m * (m - 1) * (m - 11) * (m - 12)})
        assert res == expected


def test_ode_residual_vanishes_on_family_member():
    P, _, _, _ = family_k(Fraction(3), Fraction(-2))
    assert ode_residual(P).is_zero


def test_ode_residual_vanishes_parametrically_for_family():
    p_sym, trace = run_ode_elimination(6)
    assert ode_residual(trace.apply_param(p_sym)).is_zero


@pytest.mark.parametrize("s", range(1, 13))
def test_closed_form_system_is_the_residual_coefficients(s):
    m = s + 6
    p_sym, names = derive._symbolic_p(m)
    residual = ode_residual(p_sym)
    expected = [(d, residual.coefficient(d)) for d in range(residual.degree, -1, -1)]
    got = derive._ode_system(m, names)
    assert [d for d, _ in got] == [d for d, _ in expected]
    assert got == expected
    assert all(eq.vars == tuple(names) for _, eq in got)
    # the top equation is the obstruction constant, dropped when it is 0
    lead = ode_leading_coeff(s)
    if lead:
        assert got[0] == (2 * m - 4, MultiPoly.const(names, lead))
    else:
        assert got[0][0] < 2 * m - 4 and not got[0][1].is_zero


def test_elimination_builds_no_residual(monkeypatch):
    # the eliminated system is _ode_system's closed form, which equals the
    # coefficients of the multiplied-out residual
    built = []
    closed_form = derive._ode_system

    def recorded(m, names):
        built.append(closed_form(m, names))
        return built[-1]

    monkeypatch.setattr(derive, "_ode_system", recorded)
    for s in (5, 6):
        p_sym, trace = run_ode_elimination.__wrapped__(s)
        residual = ode_residual(p_sym)
        assert built.pop() == [(d, residual.coefficient(d))
                               for d in range(residual.degree, -1, -1)]
        assert trace.steps == run_ode_elimination(s)[1].steps


# ---------------------------------------------------------------------------
# V and M from P
# ---------------------------------------------------------------------------


def test_vm_from_p_icosahedral(icosahedral_data):
    P, V, M, _ = icosahedral_data
    got_v, got_m = vm_from_p(P, 5)
    assert got_v == V
    assert got_m == M


def test_vm_from_p_parametric_leading_terms():
    p_sym, trace = run_ode_elimination(6)
    p_fam = trace.apply_param(p_sym)
    V, M = vm_from_p(p_fam, 6)
    names = p_fam.leading().vars
    a9 = MultiPoly.var(names, "a9")
    a10 = MultiPoly.var(names, "a10")
    assert V.coefficient(22).is_zero
    assert V.coefficient(21).is_zero
    assert V.coefficient(20) == a10.scale(Fraction(-50, 33))
    assert V.coefficient(19) == a9.scale(Fraction(-50, 11))
    assert M.coefficient(33).is_zero
    assert M.coefficient(30) == a9.scale(Fraction(25, 11))
    assert M.coefficient(29) == (a10 * a10).scale(Fraction(-2500, 363))


@pytest.mark.parametrize("s", [5, 6])
def test_family_vm_matches_schoolbook_reference(s):
    P, V, M, _ = derive._family(s)
    assert (V, M) == vm_from_p(P, s)


# (e9, e10) of the monomials a9^e9 * a10^e10 * z^(12 - 3*e9 - 2*e10) below z^12
WEIGHT_12 = [(e9, e10) for e9 in range(5) for e10 in range(7)
             if 0 < 3 * e9 + 2 * e10 <= 12]
# (e6,) of the monomials a6^e6 * z^(11 - 5*e6) below z^11
WEIGHT_11 = [(1,), (2,)]


def _weighted_p(names, coefficients, free=("a9", "a10"), m=12):
    """z^m + sum c * prod(a_i^e_i) * z^(m - sum (m - i)*e_i) over the free
    a_i, each of weight m - i."""
    terms = {m: {(0,) * len(names): Fraction(1)}}
    for key, c in coefficients.items():
        expo = [0] * len(names)
        for name, e in zip(free, key):
            expo[names.index(name)] = e
        weight = sum((m - int(name[1:])) * e for name, e in zip(free, key))
        terms.setdefault(m - weight, {})[tuple(expo)] = c
    return UniPoly.from_terms({e: MultiPoly(names, t) for e, t in terms.items()})


def _random_coefficients(rng, keys):
    return {key: Fraction(rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(1, 200)) or 1),
                          rng.choice((1, 1, 3, 44, 605, 2 ** 61 - 1)))
            for key in rng.sample(keys, rng.randint(1, len(keys)))}


@pytest.mark.parametrize("seed", range(12))
def test_family_vm_on_random_weighted_p(seed):
    # dense and sparse P with up to 200-bit numerators, so that the packed
    # digits of V and M come close to the 1-norm bound that sets beta
    rng = random.Random(seed)
    names = ("a10", "a9") if seed % 2 else ("a9", "x", "a10")
    P = _weighted_p(names, _random_coefficients(rng, WEIGHT_12))
    for s in (5, 6):
        assert derive._family_vm(P, s) == vm_from_p(P, s)
    # the s = 5 family's shape: weight 11, one free a6 of weight 5
    names = ("a6",) if seed % 2 else ("a9", "a6", "a1")
    P = _weighted_p(names, _random_coefficients(rng, WEIGHT_11), ("a6",), 11)
    assert derive._family_vm(P, 5) == vm_from_p(P, 5)


@pytest.mark.parametrize("keys", [[(4, 0)], [(0, 6)], [(2, 3)],
                                  [(4, 0), (2, 3), (0, 6)]])
def test_family_vm_at_the_digit_bound(keys):
    # P = z^12 + c * (sum of a9^e9 * a10^e10 with 3*e9 + 2*e10 = 12), the
    # z^0 terms.  With one term, the digit of M's combination at c^2 is
    # -36 * 1320 * c^2, the 1-norm bound but for O(c), so beta needs its
    # sign bit.  With all three, three products of c's land on
    # a9^4 * a10^6, three times what a max-norm bound would allow.
    names = ("a10", "a9")
    for c in (2 ** 200 - 1, -(2 ** 200) + 1, 3 ** 127):
        P = _weighted_p(names, dict.fromkeys(keys, Fraction(c)))
        assert derive._family_vm(P, 6) == vm_from_p(P, 6)


def test_family_vm_rejects_inhomogeneous_p():
    names = ("a10", "a9")
    P = _weighted_p(names, {(1, 0): Fraction(1)}) + UniPoly.from_terms(
        {8: MultiPoly.var(names, "a9")})
    with pytest.raises(AssertionError, match="not weighted-homogeneous"):
        derive._family_vm(P, 6)


# ---------------------------------------------------------------------------
# the intermediate identity chain
# ---------------------------------------------------------------------------


def test_halphen_identities_hold_for_icosahedral(icosahedral_data):
    P, V, M, _ = icosahedral_data
    assert not halphen_identity_failures(P, V, M, 5)


def test_halphen_degree_bound_on_R(icosahedral_data):
    P, _, _, _ = icosahedral_data
    R = P.derivative().derivative().scale(Fraction(-190, 11))
    assert R.degree == P.degree - 2


def test_half_edge_polynomial_degree_and_lead(icosahedral_data):
    # 3V'P - 5VP' has degree n/2 = 15 + 3s with leading coefficient s
    P, V, M, _ = icosahedral_data
    half = V.derivative() * P * 3 - V * P.derivative() * 5
    assert half.degree == 30
    assert half.leading() == GaussRat.of(5)
    assert half == M * 5


def test_halphen_perturbed_m_fails_first_at_sM(icosahedral_data):
    P, V, M, _ = icosahedral_data
    failures = halphen_identity_failures(P, V, M + UniPoly.one(), 5)
    assert failures and failures[0] == "sM"
    assert halphen_identity_failures(P, V, M + UniPoly.one(), 5)


# ---------------------------------------------------------------------------
# derive_case
# ---------------------------------------------------------------------------


def test_derive_case_5_reproduces_icosahedral(icosahedral_data):
    P, V, M, k = icosahedral_data
    report = derive_case(5)
    assert report.verdict is Verdict.SOLVED
    assert report.P == P and report.V == V and report.M == M
    assert report.k == GaussRat.of(k)
    a1_step = report.trace.substitution_for("a1")
    names = a1_step.vars
    a6 = MultiPoly.var(names, "a6")
    assert a1_step == (a6 * a6).scale(Fraction(-1, 121))
    solved = {s.variable for s in report.trace.steps}
    assert solved == {"a9", "a8", "a7", "a5", "a4", "a3", "a2", "a1", "a0"}
    assert report.trace.free_vars == ("a6",)


def test_derive_case_5_output_satisfies_all_certifications():
    report = derive_case(5)
    assert main_equation_residual(
        Fraction(1, 1728), report.V, report.P, UniPoly.one(), report.M).is_zero
    assert not halphen_identity_failures(report.P, report.V, report.M, 5)


PUBLISHED_FAMILY = {
    "a8": "-15/44*a10^2",
    "a7": "-6/55*a10*a9",
    "a6": "-5/242*a10^3 - 3/55*a9^2",
    "a5": "3/1210*a10^2*a9",
    "a4": "-75/21296*a10^4 - 3/605*a10*a9^2",
    "a3": "-3/2662*a10^3*a9 - 1/605*a9^3",
    "a2": "25/234256*a10^5 + 21/133100*a10^2*a9^2",
    "a1": "19/2576816*a10^4*a9 + 4/366025*a10*a9^3",
    "a0": "125/113379904*a10^6 + 14/4026275*a10^3*a9^2 + 1/366025*a9^4",
}


def _family_reference(names):
    """The nine published coefficient formulas, rebuilt term by term."""
    a9 = MultiPoly.var(names, "a9")
    a10 = MultiPoly.var(names, "a10")

    def s(m, num, den):
        return m.scale(Fraction(num, den))

    return {
        "a8": s(a10 ** 2, -15, 44),
        "a7": s(a9 * a10, -6, 55),
        "a6": s(a10 ** 3, -25, 1210) + s(a9 ** 2, -66, 1210),
        "a5": s(a9 * a10 ** 2, 3, 1210),
        "a4": s(a10 ** 4, -3 * 125, 106480) + s(a10 * a9 ** 2, -3 * 176, 106480),
        "a3": s(a10 ** 3 * a9, -15, 13310) + s(a9 ** 3, -22, 13310),
        "a2": s(a10 ** 5, 625, 5856400) + s(a10 ** 2 * a9 ** 2, 924, 5856400),
        "a1": s(a10 ** 4 * a9, 475, 64420400) + s(a10 * a9 ** 3, 704, 64420400),
        "a0": (s(a10 ** 6, 3125, 2834497600)
               + s(a9 ** 2 * a10 ** 3, 9856, 2834497600)
               + s(a9 ** 4, 7744, 2834497600)),
    }


def test_derive_case_6_family_and_degree_deficit():
    report = derive_case(6)
    assert report.verdict is Verdict.NO_SOLUTION_DEGREE_DEFICIT
    assert set(report.free_vars) == {"a9", "a10"}
    names = next(iter(report.family.values())).vars
    reference = _family_reference(names)
    assert set(report.family) == set(reference)
    for name, expr in report.family.items():
        assert expr == reference[name], name
        assert str(expr) == PUBLISHED_FAMILY[name]
    # the parameter display that the derive 6 report carries
    assert str(report.P).startswith(
        "z^12 + (a10)*z^10 + (a9)*z^9 + (-15/44*a10^2)*z^8")
    # V falls short of the required degree 22 identically
    assert report.V.coefficient(22).is_zero
    # k(a9, a10) = -5^4 (2^3 5^2 a10^3 + 3^3 11 a9^2) / (3^3 11^3)
    a9 = MultiPoly.var(names, "a9")
    a10 = MultiPoly.var(names, "a10")
    expected_k = (a10 ** 3 * (2 ** 3 * 5 ** 2) + a9 ** 2 * (3 ** 3 * 11)
                  ).scale(Fraction(-(5 ** 4), 3 ** 3 * 11 ** 3))
    assert report.k == expected_k
    assert family_k_formula() == expected_k


@pytest.mark.parametrize("s", [5, 6])
def test_family_identity_full_expansion_reference(s):
    # the term-by-term MultiPoly expansion that the certificate replaced
    P, V, M, k = derive._family(s)
    diff = V ** 3 - M ** 2
    assert (diff - P ** 5 * k).is_zero
    assert diff.coefficient(5 * P.degree) == k
    # for s = 5 the tops of V^3 and M^2 cancel above z^55
    assert diff.degree == 5 * P.degree


def _bump_term(coeff, pick):
    """coeff with one term's coefficient doubled: same weight, new value."""
    expo = pick(coeff.terms)
    return MultiPoly(coeff.vars, {**coeff.terms, expo: coeff.terms[expo] * 2})


def _with_coefficient(f, power, fn):
    coeffs = list(f.coeffs)
    coeffs[power] = fn(coeffs[power])
    return UniPoly(coeffs, f.ring_zero)


# the free variables of each family, heaviest first
FREE = {5: ("a6",), 6: ("a9", "a10")}


def _mutated_family(s, case):
    """(P, V, M) of the s family with one change, and the rejection
    message it must hit.  The parameter weight of a z^e coefficient falls
    as e rises, so the top z-degree coefficient has the lowest weight, the
    bottom the highest."""
    P, V, M, _ = derive._family(s)
    pvm = {"P": P, "V": V, "M": M}
    target, change = case.split(":")
    if target == "VM":
        # (2V, 2M) still solves the linear s*M = 3*V'*P - 5*V*P', but not
        # s*V^2 = 2*M'*P - 5*M*P'
        return P, V * 2, M * 2, r"does not satisfy s\*V\^2"
    if target == "PVM":
        # (2P, 4V, 8M) satisfies both Halphen identities and
        # V^3 = M^2 + 2k*P^5, but the z^(5 deg P) coefficient of
        # 64(V^3 - M^2) is 64k, not 2k: reading k off it needs P monic
        return P * 2, V * 4, M * 8, "P is not monic"
    f = pvm[target]
    names = P.leading().vars
    if change == "negated":
        # (-M)^2 = M^2, and -V still solves s*V^2 = 2*M'*P - 5*M*P', but
        # s*M = 3*V'*P - 5*V*P' pins both signs
        pvm[target] = -f
        message = r"does not satisfy s\*M ="
    elif change == "doubled":
        pvm[target] = f * 2
        message = "does not satisfy"
    elif change == "degree":
        # with a constant times z^22, 3 deg V = 66 != 2 deg M = 60
        pvm[target] = f + UniPoly.from_terms({22: MultiPoly.const(names, 1)})
        message = "do not share a degree"
    elif change == "homogeneous-wrong-weight":
        # V * a10 is homogeneous, of weight 24 instead of 22, and
        # w(M) = w(V) + w(P) - 1 fails; for s = 5, V * a6 weighs 25, not 20
        pvm[target] = f.map_coeffs(lambda c: c * MultiPoly.var(names, FREE[s][-1]))
        message = "do not balance"
    elif change in ("lowest-weight", "highest-weight"):
        power = (f.degree if change == "lowest-weight" else
                 min(e for e, c in enumerate(f.coeffs) if not c.is_zero))
        pvm[target] = _with_coefficient(f, power, lambda c: _bump_term(c, min))
        message = "does not satisfy"
    elif change == "wrong-weight":
        # a9 * z^0 weighs 3 and every term of V weighs 22; for s = 5,
        # a6 * z^0 weighs 5 and V weighs 20
        a = MultiPoly.var(names, FREE[s][0])
        pvm[target] = _with_coefficient(f, 0, lambda c: c + a)
        message = "not weighted-homogeneous"
    else:
        # a8 * z^18 would weigh 22 with a8 at weight 12 - 8, but neither
        # family has a8 left, so any exponent on it is rejected
        a8 = MultiPoly.var(names, "a8")
        pvm[target] = _with_coefficient(f, 18, lambda c: c + a8)
        message = "other than " + ", ".join(FREE[s])
    return pvm["P"], pvm["V"], pvm["M"], message


@pytest.mark.parametrize("case", [
    f"{target}:{change}" for target in "VMP"
    for change in ("lowest-weight", "highest-weight")
] + ["V:homogeneous-wrong-weight", "V:wrong-weight", "V:third-variable", "M:negated", "V:negated",
      "V:doubled", "V:degree", "VM:doubled", "PVM:scaled"])
@pytest.mark.parametrize("s", [5, 6])
def test_family_certificate_rejects_mutation(s, case):
    P, V, M, message = _mutated_family(s, case)
    with pytest.raises(AssertionError, match=message):
        derive._certify_family_identity(P, V, M)


@pytest.mark.parametrize("s, k", [
    (5, "-1728/11*a6"), (6, "-125000/35937*a10^3 - 625/121*a9^2")], ids=["5", "6"])
def test_family_certificate_accepts_family(s, k):
    """The certificate returns k, the k that _family reports."""
    P, V, M, family_k = derive._family(s)
    certified = derive._certify_family_identity(P, V, M)
    assert certified == family_k
    assert str(certified) == k


@pytest.mark.parametrize("s", [5, 6])
def test_halphen_sums_pack_with_coprime_scalars(monkeypatch, widths, s):
    """Each Halphen sum is packed with its cleared scalars divided by their
    gcd, at the width that proves, narrower than the unreduced one."""
    P, V, M, _ = derive._family(s)
    del widths[:]  # V and M, when _family is first called
    seen = []
    packed_sum = derive._packed_sum
    monkeypatch.setattr(derive, "_packed_sum", lambda terms, n: seen.append(
        terms) or packed_sum(terms, n))
    derive._certify_family_identity(P, V, M)
    _, indices, weights = derive._free_variables(P)
    (_, dv, _), (_, dm, _), (_, dp, _) = (
        derive._integer_form(f, indices, weights) for f in (V, M, P))
    # s*M = 3*V'*P - 5*V*P' and s*V^2 = 2*M'*P - 5*M*P', as cleared
    unreduced = [[s * dv * dp, -3 * dm, 5 * dm], [s * dm * dp, -2 * dv * dv, 5 * dv * dv]]
    assert len(seen) == len(widths) == 2
    for terms, scalars, bits in zip(seen, unreduced, widths):
        g = math.gcd(*scalars)
        assert [c for c, _ in terms] == [(c // g, 0) for c in scalars]
        assert math.gcd(*(c for (c, _), _ in terms)) == 1
        assert bits == packed_width_bits(terms) < packed_width_bits(
            [((c, 0), factors) for c, (_, factors) in zip(scalars, terms)])


def test_family_computed_once_for_report_and_k(monkeypatch):
    calls = {"_family_vm": [], "vm_from_p": []}
    for name, seen in calls.items():
        original = getattr(derive, name)
        monkeypatch.setattr(derive, name, lambda p, s, f=original, seen=seen:
                            seen.append(s) or f(p, s))
    constants = []
    identity_constant = derive._identity_constant
    monkeypatch.setattr(derive, "_identity_constant", lambda P, V, M: constants.append(
        P.degree - 6) or identity_constant(P, V, M))
    # past the (cached) elimination, derive 5 and derive 6 multiply no
    # polynomials in z: V, M and the certificate come from packed integers,
    # k from a convolution of top coefficients
    for s in (5, 6):
        run_ode_elimination(s)
    products = []
    multiply = UniPoly.__mul__
    monkeypatch.setattr(UniPoly, "__mul__", lambda f, g: products.append(
        (f, g)) or multiply(f, g))
    derive._family.cache_clear()
    report5 = derive_case(5)
    report = derive_case(6)
    assert family_k_formula() == report.k
    assert family_k(1, 1)[3] == GaussRat.of(report.k.evaluate({"a9": 1, "a10": 1}))
    assert report5.k == GaussRat.of(1728)
    assert calls == {"_family_vm": [5, 6], "vm_from_p": []}
    # k is convolved once per family, by the certificate that returns it
    assert constants == [5, 6]
    assert products == []


def test_derive_case_5_checks_its_family(monkeypatch):
    P, V, M, k = derive._family(5)
    monkeypatch.setattr(derive, "_family", lambda s: (P, V, M, k - k))
    with pytest.raises(AssertionError, match="k vanishes"):
        derive_case(5)
    monkeypatch.setattr(derive, "run_ode_elimination", lambda s: run_ode_elimination(6))
    with pytest.raises(AssertionError, match="unexpected free variables"):
        derive_case(5)


def test_derive_case_6_reports_the_solvers_resolved_map():
    """derive 6 reports the map the eliminator kept, in step order, equal to
    resolving the steps backwards, and P's coefficients are read off it."""
    report = derive_case(6)
    p_sym, trace = run_ode_elimination(6)
    assert report.trace is trace
    assert report.family == trace.resolved == resolve_backward(trace)
    assert list(report.family) == [step.variable for step in trace.steps]
    assert report.P == trace.apply_param(p_sym)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 7, 8])
def test_derive_case_obstructed(s):
    report = derive_case(s)
    assert report.verdict is Verdict.NO_SOLUTION_LEADING_COEFF
    assert report.leading_coeff == (s - 6) * (s - 5) * (s + 5) * (s + 6)


def test_derive_case_all_small_s_verdicts():
    verdicts = {s: derive_case(s).verdict for s in range(1, 13)}
    assert [s for s, v in verdicts.items() if v is Verdict.SOLVED] == [5]
    assert verdicts[6] is Verdict.NO_SOLUTION_DEGREE_DEFICIT


def test_derive_case_bound():
    with pytest.raises(ValueError):
        derive_case(13)


# ---------------------------------------------------------------------------
# the s = 6 family, concretely
# ---------------------------------------------------------------------------


def test_family_k_at_three_points():
    # interior point
    P, V, M, k = family_k(1, 1)
    assert k == GaussRat.of(Fraction(-310625, 35937))
    # endpoint a10 = 0: the degree-60 dessin with a vertex at infinity
    P0, V0, M0, k0 = family_k(1, 0)
    assert V0.degree == 19
    # endpoint a9 = 0: an edge midpoint at infinity instead
    P1, V1, M1, k1 = family_k(0, 1)
    assert M1.degree == 29
    # an uglier rational point for good measure
    P2, V2, M2, k2 = family_k(Fraction(2, 3), Fraction(-5, 7))
    # the identity the family's certificate proves holds at every point
    for P, V, M, k in ((P, V, M, k), (P0, V0, M0, k0), (P1, V1, M1, k1),
                       (P2, V2, M2, k2)):
        assert V ** 3 == M ** 2 + (P ** 5).scale(k)


def test_family_k_rejects_origin():
    with pytest.raises(ValueError):
        family_k(0, 0)


# ---------------------------------------------------------------------------
# the 6-edge quotient derivation
# ---------------------------------------------------------------------------


def test_d6_trace_matches_published_steps():
    trace = d6_solve().trace
    names = trace.steps[0].substitution.vars
    a1 = MultiPoly.var(names, "a1")
    a0 = MultiPoly.var(names, "a0")
    t = MultiPoly.var(names, "t")
    b1 = a1 - t
    b0 = MultiPoly.var(names, "b0")
    assert trace.substitution_for("c1") == a1 * 3 - b1 * 2
    assert (trace.substitution_for("c0")
            == a0 * 3 - b0 * 2 + (a1 - b1) ** 2 * 3)
    assert (trace.substitution_for("b0")
            == a0 + ((a1 - b1) * (a1 - b1 * 4)).scale(Fraction(1, 6)))
    assert (trace.substitution_for("a0")
            == (a1 * a1).scale(Fraction(1, 4)) - ((a1 - b1) ** 2).scale(Fraction(5, 9)))
    assert trace.substitution_for("t") == a1.scale(Fraction(3, 5))
    assert trace.free_vars == ("a1",)


def test_d6_solution_values():
    values = d6_solve().values
    assert values == {
        "a1": Fraction(10), "a0": Fraction(5),
        "b1": Fraction(4), "b0": Fraction(-1),
        "c1": Fraction(22), "c0": Fraction(125),
        "k": Fraction(1728)}


def test_d6_factored_function():
    beta = d6_solve().belyi
    assert beta.k == GaussRat.of(Fraction(1, 1728))
    assert beta.zero_factors == ((UniPoly.from_terms({2: 1, 1: 10, 0: 5}), 3),)
    assert str(beta.verify()) == "(3^2 | 2^2 1^2 | 5^1 1^1)"


def test_d6_split_quotient_matches_the_ansatz_factors():
    # the Yun split of A^3/(k*z) that d6_solve returns is, field for field,
    # the factored form the ansatz A^3 - B^2*C = k*z names: zeros A^3, ones
    # C*B^2, poles z and infinity of order 5
    values = d6_solve().values

    def quadratic(hi, lo):
        return UniPoly.from_terms({2: 1, 1: values[hi], 0: values[lo]})

    ansatz = FactoredBelyi(GaussRat.of(values["k"]).inverse(),
                           ((quadratic("a1", "a0"), 3),),
                           ((quadratic("c1", "c0"), 1), (quadratic("b1", "b0"), 2)),
                           ((UniPoly.x(), 1),), "pole", 5)
    beta = d6_solve().belyi
    assert repr(beta) == repr(ansatz)
    assert beta.to_text() == ansatz.to_text()
    assert beta == ansatz
    assert ansatz.verify() == beta.verify()


def test_d6_checks_its_ansatz_on_the_factors(monkeypatch):
    """d6_solve compares the split's one side with the ansatz's C*B^2
    factor by factor: it multiplies nothing out to check it, and the one
    numerator is formed once, by from_ratmap's split."""
    numerators = []
    one_numerator = RationalMap.one_numerator

    def counted(self):
        numerators.append(self)
        return one_numerator(self)

    def no_ratmap(self):
        raise AssertionError("to_ratmap called")

    monkeypatch.setattr(RationalMap, "one_numerator", counted)
    monkeypatch.setattr(FactoredBelyi, "to_ratmap", no_ratmap)
    d6_solve.cache_clear()
    try:
        d6_solve()
    finally:
        d6_solve.cache_clear()
    assert len(numerators) == 1


def test_d6_assumption_division_recorded():
    trace = d6_solve().trace
    by_label = {s.label: s for s in trace.steps}
    assert by_label[3].divided_by and by_label[3].divided_by[0][1] == 1
    assert by_label[2].divided_by[0][1] == 2
    assert by_label[0].divided_by[0][1] == 5


# ---------------------------------------------------------------------------
# trace replay on the real systems
# ---------------------------------------------------------------------------


def _replay(system, trace):
    for _, eq in system:
        assert trace.apply(eq).is_zero


def test_replay_annihilates_ode_systems():
    for s in (5, 6):
        p_sym, trace = run_ode_elimination(s)
        residual = ode_residual(p_sym)
        system = [(d, residual.coefficient(d))
                  for d in range(residual.degree, -1, -1)]
        _replay(system, trace)


def test_replay_annihilates_quotient_system():
    trace = d6_solve().trace
    _replay(quotient_system(trace.steps[0].substitution.vars), trace)


def test_quotient_solution_is_order_independent():
    """Different unknown priorities still land on the same propagated values."""
    from fullerene_belyi.multipoly import sequential_linear_solve

    trace = d6_solve().trace
    system = quotient_system(trace.steps[0].substitution.vars)
    reference = trace.evaluate({"a1": Fraction(10)})
    for order in (["c1", "c0", "t", "a0", "b0", "a1", "k"],
                  ["c0", "c1", "b0", "t", "a0", "a1", "k"],
                  ["k", "c1", "c0", "t", "b0", "a1", "a0"]):
        alt = sequential_linear_solve(system, order, assumptions=["t"])
        assert alt.free_vars == ("a1",)
        assert alt.evaluate({"a1": Fraction(10)}) == reference
