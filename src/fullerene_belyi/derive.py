"""Executable derivations for the one-big-face passports (3^k | 2^l | 5^m s^1)
and for the 6-edge quotient function of the dodecahedron.

The differential trick turns the factored-form identity V^3 = M^2 + k*P^5
into a fourth-order ODE on the degree-m polynomial P:

    22*P*P'''' + 45*P''^2 - 66*P'*P''' = 0

whose top coefficient for monic P is the constant (s-6)(s-5)(s+5)(s+6), with
m = s + 6.  For s not in {5, 6} that constant is nonzero and no monic P
exists.  For s = 5 sequential linear elimination of the indeterminate
coefficients leaves a one-parameter family that normalizes to
P = z^11 - 11z^6 - z, giving the icosahedral V, M and k = 1728.  For s = 6
the elimination leaves the two-parameter family below, but V's z^22
coefficient vanishes identically, so its degree falls short of the required
10 + 2s and no dessin exists; the 22-atom fullerene is ruled out with it.
The family still satisfies V^3 = M^2 + k*P^5 for a k(a9, a10) read off the
top coefficients.  That identity is certified by the differential argument,
without expanding V^3, M^2 or P^5.  The two Halphen identities
    s*M = 3*V'*P - 5*V*P'    and    s*V^2 = 2*M'*P - 5*M*P'
give, for D = V^3 - M^2,
    D'*P - 5*P'*D = V^2*(3*V'*P - 5*V*P') - M*(2*M'*P - 5*M*P')
                  = V^2*(s*M) - M*(s*V^2) = 0,
so (D/P^5)' = 0 and D/P^5 is a constant of Q(a9, a10).  Since
3 deg V = 2 deg M = 5 deg P, that constant is
(lead V^3 - lead M^2)/lead P^5, which is k.

The family is weighted-homogeneous (z, a10, a9 weigh 1, 2, 3), so each of
P, V, M and the Halphen identities is fixed by its value at z = 1.  V and M
are computed, and each Halphen identity is certified, by one packed sum of
exact (Kronecker substitution) over that value laid out with a9^e9 * a10^e10
as digit e9 + span*e10.  The digit width is proven from the coefficients'
1-norms ("Packed sums" in the exact module docstring), so every monomial
owns one signed digit: the evaluation is exact and injective.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache
from math import lcm

from .belyi import FactoredBelyi
from .exact import GaussRat, RationalMap, UniPoly, _packed_sum, _Record
from .multipoly import EliminationTrace, MultiPoly, sequential_linear_solve


class Verdict(Enum):
    SOLVED = "Solved"
    NO_SOLUTION_LEADING_COEFF = "NoSolutionLeadingCoeff"
    NO_SOLUTION_DEGREE_DEFICIT = "NoSolutionDegreeDeficit"
    FAMILY = "Family"


def case_degrees(s: int) -> tuple[int, int, int, int]:
    """(n, deg V, deg M, deg P) = (30+6s, 10+2s, 15+3s, 6+s)."""
    if s < 1:
        raise ValueError("s must be positive")
    return 30 + 6 * s, 10 + 2 * s, 15 + 3 * s, 6 + s


def ode_leading_coeff(s: int) -> int:
    """(s-6)(s-5)(s+5)(s+6): the z^(8+2s) coefficient of the ODE residual
    for monic P.  Cross-checked against the m-form with m = s+6."""
    if s < 1:
        raise ValueError("s must be positive")
    value = (s - 6) * (s - 5) * (s + 5) * (s + 6)
    m = s + 6
    alt = m * (m - 1) * (m - 11) * (m - 12)
    assert value == alt, "degree bookkeeping broke"
    return value


def ode_residual(p: UniPoly) -> UniPoly:
    """22*P*P'''' + 45*P''^2 - 66*P'*P'''."""
    d1 = p.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    d4 = d3.derivative()
    return (p * d4) * 22 + (d2 * d2) * 45 - (d1 * d3) * 66


def vm_from_p(p: UniPoly, s: int) -> tuple[UniPoly, UniPoly]:
    """V = (25/(11 s^2)) * (-12*P*P'' + 11*P'^2) and
    M = (25/(11 s^3)) * (90*P*P'*P'' - 36*P^2*P''' - 55*P'^3)."""
    d1 = p.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    v = ((p * d2) * (-12) + (d1 * d1) * 11).scale(Fraction(25, 11 * s * s))
    m = ((p * d1 * d2) * 90 - (p * p * d3) * 36 - (d1 * d1 * d1) * 55
         ).scale(Fraction(25, 11 * s ** 3))
    return v, m


# ---------------------------------------------------------------------------
# Halphen-style intermediate identities
# ---------------------------------------------------------------------------


def halphen_identity_failures(P: UniPoly, V: UniPoly, M: UniPoly,
                              s: int) -> list[str]:
    """Names of the intermediate identities that fail on (P, V, M, s).

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


# ---------------------------------------------------------------------------
# The ODE elimination for one big face of degree s
# ---------------------------------------------------------------------------


def _symbolic_p(m: int) -> tuple[UniPoly, list[str]]:
    """Monic z^m + a_{m-2} z^{m-2} + ... + a_0 (the z^{m-1} term is removed
    by an affine shift).  Unknowns returned highest index first."""
    names = [f"a{i}" for i in range(m - 2, -1, -1)]
    terms = {m: MultiPoly.const(names, 1)}
    for i in range(m - 1):
        terms[i] = MultiPoly.var(names, f"a{i}")
    return UniPoly.from_terms(terms), names


@cache
def run_ode_elimination(s: int) -> tuple[UniPoly, EliminationTrace]:
    """Plug the indeterminate monic P into the ODE and solve the coefficient
    system linearly, highest z-degree first."""
    _, _, _, m = case_degrees(s)
    p_sym, names = _symbolic_p(m)
    residual = ode_residual(p_sym)
    system = [(d, residual.coefficient(d))
              for d in range(residual.degree, -1, -1)]
    trace = sequential_linear_solve(system, names)
    return p_sym, trace


def _at_point(p_sym: UniPoly, values: dict[str, Fraction]) -> UniPoly:
    """The symbolic P with every coefficient evaluated: a UniPoly over Q(i)."""
    return p_sym.map_coeffs(lambda c: GaussRat.of(c.evaluate(values)))


# the largest big-face degree derive_case takes
MAX_S = 12


class CaseReport(_Record):
    """Outcome of the one-big-face derivation for a given s."""

    s: int
    n: int
    vertex_degree: int      # required deg V = 10 + 2s
    midpoint_degree: int    # required deg M = 15 + 3s
    face_degree: int        # deg P = 6 + s
    verdict: Verdict
    leading_coeff: int
    trace: EliminationTrace | None = None
    P: UniPoly | None = None  # over GaussRat when solved, MultiPoly for a family
    V: UniPoly | None = None
    M: UniPoly | None = None
    k: GaussRat | MultiPoly | None = None
    family: dict[str, MultiPoly] = dict
    free_vars: tuple[str, ...] = ()
    normalization: dict[str, Fraction] = dict
    notes: list[str] = list

    def to_report(self) -> dict:
        doc = {
            "s": self.s,
            "edges": self.n,
            "degrees": {"V": self.vertex_degree, "M": self.midpoint_degree,
                        "P": self.face_degree},
            "verdict": self.verdict.value,
            "ode_leading_coeff": self.leading_coeff,
            "notes": list(self.notes),
        }
        if self.P is not None:
            doc["P"] = str(self.P)
        if self.V is not None:
            doc["V"] = str(self.V)
        if self.M is not None:
            doc["M"] = str(self.M)
        if self.k is not None:
            doc["k"] = str(self.k)
        if self.family:
            doc["family"] = {name: str(expr) for name, expr in self.family.items()}
        if self.free_vars:
            doc["free_variables"] = list(self.free_vars)
        if self.normalization:
            doc["normalization"] = {k: str(v) for k, v in self.normalization.items()}
        if self.trace is not None:
            doc["trace"] = self.trace.to_report()
        return doc


def derive_case(s: int) -> CaseReport:
    """Decide whether a genus-zero dessin with passport
    (3^(10+2s) | 2^(15+3s) | 5^(6+s) s^1) exists, constructively.

    s = 5 solves to the icosahedral data; s = 6 leaves a family whose V
    degree falls short; anything else dies on the ODE's leading coefficient.
    """
    n, kdeg, ldeg, m = case_degrees(s)
    if s > MAX_S:
        raise ValueError(f"s = {s} exceeds the bound {MAX_S}")
    lead = ode_leading_coeff(s)
    report = CaseReport(s=s, n=n, vertex_degree=kdeg, midpoint_degree=ldeg,
                        face_degree=m, verdict=Verdict.NO_SOLUTION_LEADING_COEFF,
                        leading_coeff=lead)
    if lead != 0:
        report.notes.append(
            f"ODE residual has constant top coefficient {lead} != 0 for any "
            f"monic P of degree {m}; no solution exists")
        return report

    p_sym, trace = run_ode_elimination(s)
    report.trace = trace
    report.free_vars = trace.free_vars

    if s == 5:
        # one free parameter; a6 = -11 lands on the printed normalization
        # P = z^11 - 11 z^6 - z (a6 = +11 is the same dessin under z -> -z)
        if trace.free_vars != ("a6",):
            raise AssertionError(f"unexpected free variables {trace.free_vars}")
        assignment = {"a6": Fraction(-11)}
        report.normalization = {"a6": Fraction(-11)}
        values = trace.evaluate(assignment)
        P = _at_point(p_sym, values)
        V, M = vm_from_p(P, s)
        k = (V ** 3 - M ** 2).divide_exact(P ** 5)
        if k.is_zero or k.degree != 0:
            raise AssertionError("V^3 - M^2 is not a constant multiple of P^5")
        report.P, report.V, report.M, report.k = P, V, M, k.coefficient(0)
        report.verdict = Verdict.SOLVED
        report.notes.append(
            "the elimination pins every coefficient up to rescaling, so this "
            "is the only dessin with its passport")
        return report

    # s == 6: substitute the solved coefficients, keep a9/a10 free
    p_fam, V, M = _family()
    report.P, report.V, report.M = p_fam, V, M
    report.family = dict(_family_substitutions())
    v_top = V.coefficient(kdeg)
    m_top = M.coefficient(ldeg)
    if not v_top.is_zero:
        raise AssertionError("expected the top vertex coefficient to vanish")
    report.verdict = Verdict.NO_SOLUTION_DEGREE_DEFICIT
    report.notes.append(
        f"V must have degree {kdeg} but its z^{kdeg} coefficient is "
        "identically zero, so the family never satisfies the degree "
        "requirements and no dessin exists; this rules out the 22-atom "
        "fullerene with a single hexagon")
    if m_top.is_zero:
        report.notes.append(
            f"M shows the same deficit: its z^{ldeg} coefficient vanishes")
    # the family still solves V^3 = M^2 + k*P^5 for a parameter-dependent k
    k_formula = family_k_formula()
    report.k = k_formula
    return report


@cache
def _family_substitutions() -> dict[str, MultiPoly]:
    """Every solved coefficient of the s = 6 P in the free a9 and a10."""
    return run_ode_elimination(6)[1].resolved_substitutions()


@cache
def _family() -> tuple[UniPoly, UniPoly, UniPoly]:
    """(P, V, M) of the s = 6 family over MultiPoly, with a9 and a10 free."""
    p_sym, trace = run_ode_elimination(6)
    p_fam = trace.apply_param(p_sym, _family_substitutions())
    V, M = _family_vm(p_fam, 6)
    return p_fam, V, M


# the integer form of a family polynomial at z = 1: {(e9, e10): integer}
Form = dict[tuple[int, int], int]


def _integer_form(f: UniPoly, i9: int, i10: int) -> tuple[int, int, Form]:
    """(weight, d, {(e9, e10): integer}) for d*f at z = 1, where d is the lcm
    of f's coefficient denominators and i9, i10 index a9, a10.

    z^e * a9^e9 * a10^e10 weighs e + 3*e9 + 2*e10 (a_i weighs 12 - i, which
    makes the ODE and so the family weighted-homogeneous).  Raises
    AssertionError unless f is nonzero, every term has the same weight and
    no other variable appears; then the weight fixes e, so setting z = 1
    merges no two terms.
    """
    weights = set()
    terms: dict[tuple[int, int], Fraction] = {}
    for e, coeff in enumerate(f.coeffs):
        for expo, c in coeff.terms.items():
            e9, e10 = expo[i9], expo[i10]
            if sum(expo) != e9 + e10:
                raise AssertionError(f"term {expo} uses a variable other than a9, a10")
            weights.add(e + 3 * e9 + 2 * e10)
            terms[e9, e10] = c
    if len(weights) != 1:
        raise AssertionError(f"not weighted-homogeneous: term weights {sorted(weights)}")
    d = lcm(*(c.denominator for c in terms.values()))
    return weights.pop(), d, {key: c.numerator * (d // c.denominator)
                              for key, c in terms.items()}


def _derivative_form(w: int, f: Form) -> Form:
    """The integer form of the z-derivative, at weight w - 1, from the
    integer form f of weight w: a9^e9 * a10^e10 sits on z^(w - 3*e9 - 2*e10)
    and is multiplied by that exponent."""
    return {(e9, e10): c * e for (e9, e10), c in f.items()
            if (e := w - 3 * e9 - 2 * e10)}


def _form_sum(terms: list[tuple[int, list[tuple[Form, int]]]], w: int) -> Form:
    """The integer form of sum(c * prod(f^e)) over terms, a combination of
    integer forms of total weight w, from one exact._packed_sum.

    Every form is laid out as a digit vector, a9^e9 * a10^e10 at position
    e9 + span*e10: its value at a9 = x, a10 = x^span.  The weight caps the
    a9-exponent of every monomial of every product at w // 3 < span, so the
    layout is injective on them and each digit of the packed sum is the
    combination's coefficient of the one monomial at its position.
    """
    span = w // 3 + 1

    def digits(f: Form) -> tuple[list[int], tuple[()]]:
        out = [0] * (max(e9 + span * e10 for e9, e10 in f) + 1)
        for (e9, e10), c in f.items():
            out[e9 + span * e10] = c
        return out, ()

    packed = _packed_sum([((c, 0), [(digits(f), e) for f, e in fs]) for c, fs in terms],
                         span * (w // 2 + 1))
    return {(k % span, k // span): c for k, (c, _) in enumerate(packed) if c}


def _family_poly(f: Form, w: int, scale: Fraction, names: tuple[str, ...],
                 i9: int, i10: int) -> UniPoly:
    """scale times the weight-w polynomial with integer form f: the
    coefficient of a9^e9 * a10^e10 sits on z^(w - 3*e9 - 2*e10)."""
    coeffs: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for (e9, e10), c in f.items():
        expo = [0] * len(names)
        expo[i9], expo[i10] = e9, e10
        coeffs.setdefault(w - 3 * e9 - 2 * e10, {})[tuple(expo)] = scale * c
    return UniPoly.from_terms({e: MultiPoly._trusted(names, t)
                               for e, t in coeffs.items()})


def _family_vm(P: UniPoly, s: int) -> tuple[UniPoly, UniPoly]:
    """vm_from_p(P, s) for a weighted-homogeneous P over Q[a9, a10], from a
    few big-integer products instead of MultiPoly ones.

    With p the integer form d*P at z = 1 and p', p'', p''' those of d*P',
    d*P'', d*P''' (same d), V and M are the combinations
      V = 25/(11 s^2 d^2) * (11*p'^2 - 12*p*p'')
      M = 25/(11 s^3 d^3) * (90*p*p'*p'' - 36*p^2*p''' - 55*p'^3)
    of weights 2w - 2 and 3w - 3 for P of weight w.  Each is one _form_sum,
    exact to the digit by the "Packed sums" bound of the exact module, and
    _family_poly puts every coefficient on the z-power its weight fixes.
    """
    names = P.leading().vars
    i9, i10 = names.index("a9"), names.index("a10")
    w, d, p0 = _integer_form(P, i9, i10)
    p1 = _derivative_form(w, p0)
    p2 = _derivative_form(w - 1, p1)
    p3 = _derivative_form(w - 2, p2)
    v = _form_sum([(11, [(p1, 2)]), (-12, [(p0, 1), (p2, 1)])], 2 * w - 2)
    m = _form_sum([(90, [(p0, 1), (p1, 1), (p2, 1)]), (-36, [(p0, 2), (p3, 1)]),
                   (-55, [(p1, 3)])], 3 * w - 3)
    return (_family_poly(v, 2 * w - 2, Fraction(25, 11 * s ** 2 * d ** 2), names, i9, i10),
            _family_poly(m, 3 * w - 3, Fraction(25, 11 * s ** 3 * d ** 3), names, i9, i10))


def _certify_family_identity(P: UniPoly, V: UniPoly, M: UniPoly,
                             k: MultiPoly) -> None:
    """Raise AssertionError unless V^3 = M^2 + k*P^5 holds exactly.

    The proof is the paper's differential argument, with s = deg P - 6:
      sM    s*M = 3*V'*P - 5*V*P'       (weight 33)
      sV2   s*V^2 = 2*M'*P - 5*M*P'     (weight 44)
    For D = V^3 - M^2 these give
      D'*P - 5*P'*D = V^2*(3*V'*P - 5*V*P') - M*(2*M'*P - 5*M*P')
                    = V^2*(s*M) - M*(s*V^2) = 0,
    so (D/P^5)' = (D'*P - 5*P'*D)/P^6 = 0 and D = c*P^5 for a c in
    Q(a9, a10) free of z.  When 3 deg V = 2 deg M = 5 deg P, comparing the
    z^(5 deg P) coefficients gives c*lead(P)^5 = lead(V)^3 - lead(M)^2,
    and that is checked for c = k in MultiPoly.

    Each of sM and sV2 is certified by one _form_sum of its
    denominator-cleared integer form at z = 1, which is injective: every
    term's weight is checked (so both identities are weighted-homogeneous
    and z = 1 merges no terms), and the digit width comes from the proven
    bound of "Packed sums" in the exact module docstring.
    """
    names = P.leading().vars
    i9, i10 = names.index("a9"), names.index("a10")
    (wv, dv, v), (wm, dm, m), (wp, dp, p), (wk, _, _) = (
        _integer_form(f, i9, i10) for f in (V, M, P, UniPoly.from_terms({0: k})))
    if not (wm == wv + wp - 1 and 2 * wv == wm + wp - 1 and 3 * wv == 5 * wp + wk):
        raise AssertionError(
            f"weights {wv}, {wm}, {wp}, {wk} of V, M, P, k do not balance")
    if not 3 * V.degree == 2 * M.degree == 5 * P.degree:
        raise AssertionError("V^3, M^2 and P^5 do not share a degree")
    s = P.degree - 6
    v1, m1, p1 = (_derivative_form(*f) for f in ((wv, v), (wm, m), (wp, p)))
    # s*M = 3*V'*P - 5*V*P' and s*V^2 = 2*M'*P - 5*M*P', denominators cleared
    if _form_sum([(s * dv * dp, [(m, 1)]), (-3 * dm, [(v1, 1), (p, 1)]),
                  (5 * dm, [(v, 1), (p1, 1)])], wm):
        raise AssertionError("family does not satisfy s*M = 3*V'*P - 5*V*P'")
    if _form_sum([(s * dm * dp, [(v, 2)]), (-2 * dv * dv, [(m1, 1), (p, 1)]),
                  (5 * dv * dv, [(m, 1), (p1, 1)])], 2 * wv):
        raise AssertionError("family does not satisfy s*V^2 = 2*M'*P - 5*M*P'")
    if k * P.leading() ** 5 != V.leading() ** 3 - M.leading() ** 2:
        raise AssertionError(
            "family does not satisfy V^3 = M^2 + k*P^5: k is not "
            "(lead V^3 - lead M^2)/lead P^5")


@cache
def family_k_formula() -> MultiPoly:
    """k(a9, a10) with V^3 = M^2 + k*P^5 for the s = 6 family.

    k is read off the top coefficients, (lead V^3 - lead M^2) / lead P^5,
    and _certify_family_identity proves the identity by the differential
    argument: the two Halphen identities
      s*M = 3*V'*P - 5*V*P'   and   s*V^2 = 2*M'*P - 5*M*P'
    give (V^3 - M^2)'*P - 5*P'*(V^3 - M^2) = V^2*(s*M) - M*(s*V^2) = 0, so
    (V^3 - M^2)/P^5 has zero z-derivative and is a constant of Q(a9, a10);
    with 3 deg V = 2 deg M = 5 deg P that constant is the ratio of top
    coefficients, which is k.  Each Halphen identity is certified by one
    exact packed sum (_form_sum), never expanding V^3, M^2 or P^5.  That
    evaluation is a proof, not a sample: the checked weighted homogeneity
    and the proven digit bound make it injective on the identity's
    monomials.
    """
    P, V, M = _family()
    k = (V.leading() ** 3 - M.leading() ** 2).divide_exact(P.leading() ** 5)
    _certify_family_identity(P, V, M, k)
    return k


def family_k(a9: Fraction | int, a10: Fraction | int
             ) -> tuple[UniPoly, UniPoly, UniPoly, GaussRat]:
    """Concrete member of the s = 6 family: (P, V, M, k) with
    V^3 = M^2 + k*P^5 verified exactly.

    a10 = 0 is the icosahedral solution with a vertex sent to infinity;
    a9 = 0 puts an edge midpoint there instead.
    """
    a9, a10 = Fraction(a9), Fraction(a10)
    if a9 == 0 and a10 == 0:
        raise ValueError("(a9, a10) = (0, 0) degenerates to a monomial")
    p_sym, trace = run_ode_elimination(6)
    values = trace.evaluate({"a9": a9, "a10": a10})
    P = _at_point(p_sym, values)
    V, M = vm_from_p(P, 6)
    k = GaussRat.of(family_k_formula().evaluate({"a9": a9, "a10": a10}))
    residual = V ** 3 - (M ** 2 + (P ** 5).scale(k))
    if not residual.is_zero:
        raise AssertionError("family identity V^3 = M^2 + k*P^5 failed")
    return P, V, M, k


# ---------------------------------------------------------------------------
# The 6-edge quotient of the dodecahedron
# ---------------------------------------------------------------------------


class D6Report(_Record):
    belyi: FactoredBelyi
    trace: EliminationTrace
    values: dict[str, Fraction]


@cache
def d6_solve() -> D6Report:
    """Derive the 6-edge quotient function
    (z^2+10z+5)^3 / (1728 z) = (z^2+4z-1)^2 (z^2+22z+125) / (1728 z) + 1.

    The ansatz with the order-5 pole at infinity and the simple pole at 0
    leaves S = (z^2+a1*z+a0)^3 - (z^2+b1*z+b0)^2*(z^2+c1*z+c0) - k*z = 0.
    Coprimality of the square-bracket factors forces b1 != a1, which enters
    the elimination as a declared-nonzero factor; the scaling freedom is
    spent on a1 = 10.
    """
    names = ["c1", "c0", "b1", "b0", "a1", "a0", "k"]

    def v(name: str) -> MultiPoly:
        return MultiPoly.var(names, name)

    def quad(hi: str, lo: str) -> UniPoly:
        return UniPoly.from_terms({2: MultiPoly.const(names, 1), 1: v(hi), 0: v(lo)})

    A = quad("a1", "a0")
    B = quad("b1", "b0")
    C = quad("c1", "c0")
    S = A * A * A - B * B * C - UniPoly.from_terms({1: v("k")})
    system = [(d, S.coefficient(d)) for d in range(S.degree, -1, -1)]
    assumption = v("a1") - v("b1")
    trace = sequential_linear_solve(system, names, assumptions=[assumption])
    if trace.free_vars != ("a1",):
        raise AssertionError(f"unexpected free variables {trace.free_vars}")

    values = trace.evaluate({"a1": Fraction(10)})
    k = GaussRat.of(values["k"])

    def concrete(hi: str, lo: str) -> UniPoly:
        return UniPoly.from_terms({2: 1, 1: values[hi], 0: values[lo]})

    num = concrete("a1", "a0") ** 3
    den = UniPoly.x().scale(k)
    beta = FactoredBelyi.from_ratmap(RationalMap(1, num, den))
    # sanity: the derived one-side must be the B^2 * C the ansatz promised
    expected_one = concrete("b1", "b0") ** 2 * concrete("c1", "c0")
    if beta.to_ratmap().one_numerator().scale(beta.k.inverse()) != expected_one:
        raise AssertionError("one-side factorization drifted from the ansatz")
    return D6Report(belyi=beta, trace=trace, values=values)
