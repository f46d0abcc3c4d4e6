"""The one-big-face derivations and the 6-edge quotient elimination."""

import random
from fractions import Fraction

import pytest

from fullerene_belyi import derive
from fullerene_belyi.derive import (Verdict, case_degrees, d6_solve,
                                    derive_case, family_k, family_k_formula,
                                    halphen_identity_failures,
                                    ode_leading_coeff, ode_residual,
                                    run_ode_elimination, vm_from_p)
from fullerene_belyi.exact import GaussRat, UniPoly
from fullerene_belyi.multipoly import EliminationTrace, MultiPoly


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


def test_family_vm_matches_schoolbook_reference():
    P, V, M = derive._family()
    assert (V, M) == vm_from_p(P, 6)


# (e9, e10) of the monomials a9^e9 * a10^e10 * z^(12 - 3*e9 - 2*e10) below z^12
WEIGHT_12 = [(e9, e10) for e9 in range(5) for e10 in range(7)
             if 0 < 3 * e9 + 2 * e10 <= 12]


def _weighted_p(names, coefficients):
    """z^12 + sum c * a9^e9 * a10^e10 * z^(12 - 3*e9 - 2*e10)."""
    i9, i10 = names.index("a9"), names.index("a10")
    terms = {12: {(0,) * len(names): Fraction(1)}}
    for (e9, e10), c in coefficients.items():
        expo = [0] * len(names)
        expo[i9], expo[i10] = e9, e10
        terms.setdefault(12 - 3 * e9 - 2 * e10, {})[tuple(expo)] = c
    return UniPoly.from_terms({e: MultiPoly(names, t) for e, t in terms.items()})


@pytest.mark.parametrize("seed", range(12))
def test_family_vm_on_random_weighted_p(seed):
    # dense and sparse P with up to 200-bit numerators, so that the packed
    # digits of V and M come close to the 1-norm bound that sets beta
    rng = random.Random(seed)
    picked = rng.sample(WEIGHT_12, rng.randint(1, len(WEIGHT_12)))
    coefficients = {
        key: Fraction(rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(1, 200)) or 1),
                      rng.choice((1, 1, 3, 44, 605, 2 ** 61 - 1)))
        for key in picked}
    names = ("a10", "a9") if seed % 2 else ("a9", "x", "a10")
    P = _weighted_p(names, coefficients)
    for s in (5, 6):
        assert derive._family_vm(P, s) == vm_from_p(P, s)


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
    from fullerene_belyi.belyi import main_equation_residual
    from fullerene_belyi.exact import UniPoly as UP

    report = derive_case(5)
    assert main_equation_residual(
        Fraction(1, 1728), report.V, report.P, UP.one(), report.M).is_zero
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


def test_family_identity_full_expansion_reference():
    # the term-by-term MultiPoly expansion that the certificate replaced
    P, V, M = derive._family()
    k = family_k_formula()
    diff = V ** 3 - M ** 2
    assert (diff - P ** 5 * k).is_zero
    assert diff.coefficient(60) == k


def _bump_term(coeff, pick):
    """coeff with one term's coefficient doubled: same weight, new value."""
    expo = pick(coeff.terms)
    return MultiPoly(coeff.vars, {**coeff.terms, expo: coeff.terms[expo] * 2})


def _with_coefficient(f, power, fn):
    coeffs = list(f.coeffs)
    coeffs[power] = fn(coeffs[power])
    return UniPoly(coeffs, f.ring_zero)


def _mutated_family(case):
    """(P, V, M, k) with one change, and the rejection message it must hit.
    The parameter weight of a z^e coefficient falls as e rises, so the
    top z-degree coefficient has the lowest weight, the bottom the highest."""
    P, V, M = derive._family()
    pvmk = {"P": P, "V": V, "M": M, "k": family_k_formula()}
    target, change = case.split(":")
    if target == "VM":
        # (2V, 2M) still solves the linear s*M = 3*V'*P - 5*V*P', but not
        # s*V^2 = 2*M'*P - 5*M*P'
        return P, V * 2, M * 2, pvmk["k"], r"does not satisfy s\*V\^2"
    f = pvmk[target]
    names = pvmk["k"].vars
    if change == "negated":
        # (-M)^2 = M^2, and -V still solves s*V^2 = 2*M'*P - 5*M*P', but
        # s*M = 3*V'*P - 5*V*P' pins both signs
        pvmk[target] = -f
        message = r"does not satisfy s\*M ="
    elif change == "doubled":
        pvmk[target] = f * 2
        message = "does not satisfy"
    elif change == "degree":
        # a constant times z^22 weighs 22 like every term of V, but
        # 3 * 22 != 5 * deg P = 60
        pvmk[target] = f + UniPoly.from_terms({22: MultiPoly.const(names, 1)})
        message = "do not share a degree"
    elif change == "homogeneous-wrong-weight":
        # k * a10 is homogeneous of weight 8, but 3 w(V) = 5 w(P) + 6
        pvmk[target] = f * MultiPoly.var(names, "a10")
        message = "do not balance"
    elif target == "k":
        pvmk["k"] = _bump_term(f, {"first": min, "last": max}[change])
        message = "does not satisfy"
    elif change in ("lowest-weight", "highest-weight"):
        power = (f.degree if change == "lowest-weight" else
                 min(e for e, c in enumerate(f.coeffs) if not c.is_zero))
        pvmk[target] = _with_coefficient(f, power, lambda c: _bump_term(c, min))
        message = "does not satisfy"
    elif change == "wrong-weight":
        # a9 * z^0 weighs 3; every term of V weighs 22
        a9 = MultiPoly.var(names, "a9")
        pvmk[target] = _with_coefficient(f, 0, lambda c: c + a9)
        message = "not weighted-homogeneous"
    else:
        # a8 * z^18 would weigh 22 with a8 at weight 12 - 8, but the family
        # has no a8 left, so any exponent on it is rejected
        a8 = MultiPoly.var(names, "a8")
        pvmk[target] = _with_coefficient(f, 18, lambda c: c + a8)
        message = "other than a9, a10"
    return pvmk["P"], pvmk["V"], pvmk["M"], pvmk["k"], message


@pytest.mark.parametrize("case", [
    f"{target}:{change}" for target in "VMP"
    for change in ("lowest-weight", "highest-weight")
] + ["k:first", "k:last", "k:homogeneous-wrong-weight", "V:wrong-weight",
      "V:third-variable", "M:negated", "V:negated", "V:doubled", "V:degree",
      "VM:doubled"])
def test_family_certificate_rejects_mutation(case):
    P, V, M, k, message = _mutated_family(case)
    with pytest.raises(AssertionError, match=message):
        derive._certify_family_identity(P, V, M, k)


def test_family_certificate_accepts_family():
    P, V, M = derive._family()
    derive._certify_family_identity(P, V, M, family_k_formula())


def test_family_computed_once_for_report_and_k(monkeypatch):
    calls = {"_family_vm": [], "vm_from_p": []}
    for name, seen in calls.items():
        original = getattr(derive, name)
        monkeypatch.setattr(derive, name, lambda p, s, f=original, seen=seen:
                            seen.append(s) or f(p, s))
    # past the (cached) elimination, derive 6 multiplies no polynomials in
    # z: V, M and the certificate come from packed integers
    run_ode_elimination(6)
    products = []
    multiply = UniPoly.__mul__
    monkeypatch.setattr(UniPoly, "__mul__", lambda f, g: products.append(
        (f, g)) or multiply(f, g))
    derive._family.cache_clear()
    family_k_formula.cache_clear()
    report = derive_case(6)
    assert family_k_formula() == report.k
    assert calls == {"_family_vm": [6], "vm_from_p": []}
    assert products == []


def test_derive_case_6_resolves_the_substitutions_once(monkeypatch):
    """derive 6 reports the family and reads P's coefficients off one
    resolved_substitutions() call."""
    calls = []
    resolve = EliminationTrace.resolved_substitutions
    monkeypatch.setattr(EliminationTrace, "resolved_substitutions",
                        lambda trace: calls.append(trace) or resolve(trace))
    for cached in (run_ode_elimination, derive._family_substitutions,
                   derive._family, family_k_formula):
        cached.cache_clear()
    report = derive_case(6)
    assert len(calls) == 1
    assert report.family == resolve(report.trace)
    p_sym, trace = run_ode_elimination(6)
    assert report.P == trace.apply_param(p_sym, report.family)


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
    family_k(Fraction(2, 3), Fraction(-5, 7))


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
    b1 = MultiPoly.var(names, "b1")
    b0 = MultiPoly.var(names, "b0")
    assert trace.substitution_for("c1") == a1 * 3 - b1 * 2
    assert (trace.substitution_for("c0")
            == a0 * 3 - b0 * 2 + (a1 - b1) ** 2 * 3)
    assert (trace.substitution_for("b0")
            == a0 + ((a1 - b1) * (a1 - b1 * 4)).scale(Fraction(1, 6)))
    assert (trace.substitution_for("a0")
            == (a1 * a1).scale(Fraction(1, 4)) - ((a1 - b1) ** 2).scale(Fraction(5, 9)))
    assert trace.substitution_for("b1") == a1.scale(Fraction(2, 5))
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
    names = trace.steps[0].substitution.vars

    def quad(hi, lo):
        return UniPoly.from_terms({
            2: MultiPoly.const(names, 1),
            1: MultiPoly.var(names, hi),
            0: MultiPoly.var(names, lo)})

    S = (quad("a1", "a0") ** 3 - quad("b1", "b0") ** 2 * quad("c1", "c0")
         - UniPoly.from_terms({1: MultiPoly.var(names, "k")}))
    system = [(d, S.coefficient(d)) for d in range(S.degree, -1, -1)]
    _replay(system, trace)


def test_quotient_solution_is_order_independent():
    """Different unknown priorities still land on the same propagated values."""
    from fullerene_belyi.multipoly import sequential_linear_solve

    trace = d6_solve().trace
    names = trace.steps[0].substitution.vars

    def quad(hi, lo):
        return UniPoly.from_terms({
            2: MultiPoly.const(names, 1),
            1: MultiPoly.var(names, hi),
            0: MultiPoly.var(names, lo)})

    S = (quad("a1", "a0") ** 3 - quad("b1", "b0") ** 2 * quad("c1", "c0")
         - UniPoly.from_terms({1: MultiPoly.var(names, "k")}))
    system = [(d, S.coefficient(d)) for d in range(S.degree, -1, -1)]
    assumption = MultiPoly.var(names, "a1") - MultiPoly.var(names, "b1")
    reference = d6_solve().values
    for order in (["c1", "c0", "b1", "a0", "b0", "a1", "k"],
                  ["c0", "c1", "b0", "b1", "a0", "a1", "k"],
                  ["k", "c1", "c0", "b1", "b0", "a1", "a0"]):
        alt = sequential_linear_solve(system, order, assumptions=[assumption])
        assert alt.free_vars == ("a1",)
        assert alt.evaluate({"a1": Fraction(10)}) == reference
