"""Executable derivations for the one-big-face passports (3^k | 2^l | 5^m s^1)
and for the 6-edge quotient function of the dodecahedron.

The differential trick turns the factored-form identity V^3 = M^2 + k*P^5
into a fourth-order ODE on the degree-m polynomial P:

    22*P*P'''' + 45*P''^2 - 66*P'*P''' = 0

whose top coefficient for monic P is the constant (s-6)(s-5)(s+5)(s+6), with
m = s + 6.  For s not in {5, 6} that constant is nonzero and no monic P
exists.  For s = 5 sequential linear elimination of the indeterminate
coefficients leaves a one-parameter family in a6 that normalizes (a6 = -11)
to P = z^11 - 11z^6 - z, giving the icosahedral V, M and k = 1728.  For s = 6
the elimination leaves the two-parameter family below, but V's z^22
coefficient vanishes identically, so its degree falls short of the required
10 + 2s and no dessin exists; the 22-atom fullerene is ruled out with it.

Both families satisfy V^3 = M^2 + k*P^5, with k = -1728/11*a6 and a
k(a9, a10), and both identities are certified the same way, by the
differential argument, without expanding V^3, M^2 or P^5.  The two Halphen
identities
    s*M = 3*V'*P - 5*V*P'    and    s*V^2 = 2*M'*P - 5*M*P'
give, for D = V^3 - M^2,
    D'*P - 5*P'*D = V^2*(3*V'*P - 5*V*P') - M*(2*M'*P - 5*M*P')
                  = V^2*(s*M) - M*(s*V^2) = 0,
so (D/P^5)' = 0 and D = c*P^5 for a c free of z.  P is monic, so c is the
z^(5 deg P) coefficient of D, which is k.  With 3 deg V = 2 deg M >= 5 deg P
it is convolved from the top 3 deg V - 5 deg P + 1 coefficients of V and M;
for s = 6 that is lead(V)^3 - lead(M)^2.

Each family is weighted-homogeneous: z weighs 1 and a_i weighs deg P - i
(a6 weighs 5; a10 and a9 weigh 2 and 3), because z -> t*z with
a_i -> t^(deg P - i) * a_i multiplies P by t^(deg P), which keeps the ODE
and scales V and M.  So each of P, V, M and the Halphen identities is fixed
by its value at z = 1.  V and M are computed, and each Halphen identity is
certified, by one packed sum of exact (Kronecker substitution) over that
value, with the monomials of the free variables laid out in mixed radix: at
weight w a variable of weight u has radix w // u + 1, so a9^e9 * a10^e10 is
digit e9 + (w // 3 + 1)*e10.  The digit width is proven from the
coefficients' 1-norms ("Packed sums" in the exact module docstring), so
every monomial owns one signed digit: the evaluation is exact and injective.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import gcd, lcm
from operator import mul

from .belyi import FactoredBelyi
from .exact import GaussRat, RationalMap, UniPoly, _packed_sum, _Record
from .multipoly import EliminationTrace, MultiPoly, sequential_linear_solve


class Verdict:
    """The outcome of a one-big-face derivation: one of the three
    instances below, compared with `is`; value is the name the reports
    print."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:
        return f"Verdict({self.value!r})"


Verdict.SOLVED = Verdict("Solved")
Verdict.NO_SOLUTION_LEADING_COEFF = Verdict("NoSolutionLeadingCoeff")
Verdict.NO_SOLUTION_DEGREE_DEFICIT = Verdict("NoSolutionDegreeDeficit")


def case_degrees(s: int) -> tuple[int, int, int, int]:
    """(n, deg V, deg M, deg P) = (30+6s, 10+2s, 15+3s, 6+s)."""
    if s < 1:
        raise ValueError("s must be positive")
    return 30 + 6 * s, 10 + 2 * s, 15 + 3 * s, 6 + s


def ode_leading_coeff(s: int) -> int:
    """(s-6)(s-5)(s+5)(s+6): the z^(8+2s) coefficient of the ODE residual
    for monic P, m(m-1)(m-11)(m-12) with m = s+6."""
    if s < 1:
        raise ValueError("s must be positive")
    return (s - 6) * (s - 5) * (s + 5) * (s + 6)


def vm_from_p(p: UniPoly, s: int) -> tuple[UniPoly, UniPoly]:
    """V = (25/(11 s^2)) * (-12*P*P'' + 11*P'^2) and
    M = (25/(11 s^3)) * (90*P*P'*P'' - 36*P^2*P''' - 55*P'^3)."""
    # the commands take V and M from _family_vm; this reference form runs
    # only in tests and the benchmark
    from fractions import Fraction
    d1 = p.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    v = ((p * d2) * (-12) + (d1 * d1) * 11).scale(Fraction(25, 11 * s * s))
    m = ((p * d1 * d2) * 90 - (p * p * d3) * 36 - (d1 * d1 * d1) * 55
         ).scale(Fraction(25, 11 * s ** 3))
    return v, m


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


def _ode_system(m: int, names: list[str]) -> list[tuple[int, MultiPoly]]:
    """(d, z^d coefficient) pairs of the ODE residual
    R = 22*P*P'''' + 45*P''^2 - 66*P'*P''' for the symbolic P of
    _symbolic_p(m), whose unknowns are names, from the closed form.

    With P = sum a_i z^i, a_m = 1 and a_(m-1) = 0, the z^d coefficient of
    22*P*P'''' + 45*P''^2 - 66*P'*P''' is the sum over ordered pairs
    i + j = d + 4 (0 <= i, j <= m) of
        a_i*a_j*[22*j(j-1)(j-2)(j-3) + 45*i(i-1)*j(j-1) - 66*i*j(j-1)(j-2)],
    a_i z^i times the z^(j-4) term of P'''', a_i i(i-1) z^(i-2) times the
    z^(j-2) term of P'' and a_i i z^(i-1) times the z^(j-3) term of P'''.
    Degrees run from 2m - 4 down to 0 and the leading zero equations are
    dropped, so the list is [(d, R.coefficient(d)) for d from deg R down
    to 0], built without multiplying over MultiPoly.
    """
    vs = tuple(names)
    system = []
    for d in range(2 * m - 4, -1, -1):
        acc: dict[tuple[int, ...], int] = {}
        for i in range(max(0, d + 4 - m), min(m, d + 4) + 1):
            j = d + 4 - i
            w = (22 * j * (j - 1) * (j - 2) * (j - 3) + 45 * i * (i - 1) * j * (j - 1)
                 - 66 * i * j * (j - 1) * (j - 2))
            if not w or m - 1 in (i, j):
                continue
            expo = [0] * len(vs)
            for k in (i, j):
                if k < m:
                    expo[m - 2 - k] += 1
            key = tuple(expo)
            acc[key] = acc.get(key, 0) + w
        eq = MultiPoly._trusted(vs, {e: c for e, c in acc.items() if c}, 1)
        if eq or system:
            system.append((d, eq))
    return system


@cache
def run_ode_elimination(s: int) -> tuple[UniPoly, EliminationTrace]:
    """Plug the indeterminate monic P into the ODE and solve the coefficient
    system (_ode_system) linearly, highest z-degree first."""
    _, _, _, m = case_degrees(s)
    p_sym, names = _symbolic_p(m)
    return p_sym, sequential_linear_solve(_ode_system(m, names), names)


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
    normalization: dict[str, int] = dict
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

    trace = run_ode_elimination(s)[1]
    report.trace = trace
    report.free_vars = trace.free_vars

    if s == 5:
        # one free parameter; a6 = -11 lands on the printed normalization
        # P = z^11 - 11 z^6 - z (a6 = +11 is the same dessin under z -> -z)
        if trace.free_vars != ("a6",):
            raise AssertionError(f"unexpected free variables {trace.free_vars}")
        report.normalization = {"a6": -11}
        report.P, report.V, report.M, report.k = _at_point(
            _family(5), {"a6": GaussRat.coerce(-11)})
        if report.k.is_zero:
            raise AssertionError("k vanishes at the normalization")
        report.verdict = Verdict.SOLVED
        report.notes.append(
            "the elimination pins every coefficient up to rescaling, so this "
            "is the only dessin with its passport")
        return report

    # s == 6: substitute the solved coefficients, keep a9/a10 free
    report.P, report.V, report.M, report.k = _family(6)
    report.family = dict(trace.resolved)
    if not report.V.coefficient(kdeg).is_zero:
        raise AssertionError("expected the top vertex coefficient to vanish")
    report.verdict = Verdict.NO_SOLUTION_DEGREE_DEFICIT
    report.notes.append(
        f"V must have degree {kdeg} but its z^{kdeg} coefficient is "
        "identically zero, so the family never satisfies the degree "
        "requirements and no dessin exists; this rules out the 22-atom "
        "fullerene with a single hexagon")
    if report.M.coefficient(ldeg).is_zero:
        report.notes.append(
            f"M shows the same deficit: its z^{ldeg} coefficient vanishes")
    return report


@cache
def _family(s: int) -> tuple[UniPoly, UniPoly, UniPoly, MultiPoly]:
    """(P, V, M, k) of the s = 5 or s = 6 family over MultiPoly, with
    V^3 = M^2 + k*P^5 certified by _certify_family_identity, which returns
    k: P is monic, so k is the z^(5 deg P) coefficient of V^3 - M^2."""
    p_sym, trace = run_ode_elimination(s)
    P = trace.apply_param(p_sym)
    V, M = _family_vm(P, s)
    return P, V, M, _certify_family_identity(P, V, M)


def _at_point(family: tuple[UniPoly, UniPoly, UniPoly, MultiPoly],
              values: dict[str, GaussRat]) -> tuple[UniPoly, UniPoly, UniPoly, GaussRat]:
    """(P, V, M, k) of a _family with its free variables set to values, over
    Q(i), evaluated on integers (MultiPoly._at).  Evaluation is a ring map,
    so the certified identity holds there."""
    P, V, M, k = family
    return (*(f.map_coeffs(lambda c: c._at(values)) for f in (P, V, M)), k._at(values))


# the integer form of a family polynomial at z = 1:
# {exponents of the free variables: integer}
Form = dict[tuple[int, ...], int]


def _free_variables(P: UniPoly) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """(names, indices, weights): the variable names of P's coefficients,
    and the index in names and the weight of each free variable, one that
    the coefficients use, heaviest first.  a_i weighs deg P - i (module
    docstring)."""
    names = P.leading().vars
    used = {i for c in P.coeffs for expo in c._num for i, e in enumerate(expo) if e}
    free = sorted(((P.degree - int(names[i][1:]), i) for i in used), reverse=True)
    return names, tuple(i for _, i in free), tuple(u for u, _ in free)


def _integer_form(f: UniPoly, indices: tuple[int, ...],
                  weights: tuple[int, ...]) -> tuple[int, int, Form]:
    """(weight, d, form) for d*f at z = 1, where d is the lcm of f's
    coefficient denominators and form maps the exponents of the free
    variables (at indices, of weights) to integers.

    z^e times a monomial of the free variables weighs e plus the
    monomial's weight.  Raises AssertionError unless f is nonzero, every
    term has the same weight and no other variable appears; then the weight
    fixes e, so setting z = 1 merges no two terms.
    """
    term_weights = set()
    terms: Form = {}
    # a coefficient's denominator is the lcm of its terms' reduced ones
    d = lcm(*(coeff._den for coeff in f.coeffs))
    for e, coeff in enumerate(f.coeffs):
        scale = d // coeff._den
        for expo, c in coeff._num.items():
            key = tuple(map(expo.__getitem__, indices))
            if sum(expo) != sum(key):
                raise AssertionError(f"term {expo} uses a variable other than "
                                     + ", ".join(coeff.vars[i] for i in indices))
            term_weights.add(e + sum(map(mul, key, weights)))
            terms[key] = c * scale
    if len(term_weights) != 1:
        raise AssertionError(f"not weighted-homogeneous: term weights {sorted(term_weights)}")
    return term_weights.pop(), d, terms


def _derivative_form(w: int, f: Form, weights: tuple[int, ...]) -> Form:
    """The integer form of the z-derivative, at weight w - 1, from the
    integer form f of weight w: a monomial of weight u sits on z^(w - u)
    and is multiplied by that exponent."""
    return {key: c * e for key, c in f.items() if (e := w - sum(map(mul, key, weights)))}


def _form_sum(terms: list[tuple[int, list[tuple[Form, int]]]], w: int,
              weights: tuple[int, ...]) -> Form:
    """The integer form of sum(c * prod(f^e)) over terms, a combination of
    integer forms of total weight w, from one exact._packed_sum.

    Every form is laid out as a digit vector in mixed radix: a free
    variable of weight u has radix w // u + 1, and a monomial sits at the
    position whose digits are its exponents.  The weight caps that exponent
    in every monomial of every product at w // u, so the layout is
    injective on them and each digit of the packed sum is the
    combination's coefficient of the one monomial at its position.  For
    a9, a10 of weights 3, 2 the position is e9 + (w // 3 + 1)*e10.
    """
    # every exponent tuple in layout order, the first variable's fastest
    keys = [key[::-1] for key in product(*(range(w // u + 1) for u in reversed(weights)))]
    position = {key: pos for pos, key in enumerate(keys)}

    def digits(f: Form) -> tuple[list[int], tuple[()]]:
        out = [0] * (max(map(position.__getitem__, f)) + 1)
        for key, c in f.items():
            out[position[key]] = c
        return out, ()

    packed = _packed_sum([((c, 0), [(digits(f), e) for f, e in fs]) for c, fs in terms],
                         len(keys))
    return {keys[pos]: c for pos, (c, _) in enumerate(packed) if c}


def _primitive(terms: list[tuple[int, list[tuple[Form, int]]]]
               ) -> list[tuple[int, list[tuple[Form, int]]]]:
    """terms with their scalars divided by their gcd g (g >= 1 while one
    scalar is nonzero).  The sum is then 1/g times the original, so it is
    zero iff the original is, and _form_sum packs it at the width its
    products need rather than one inflated by the cleared denominators."""
    g = gcd(*(c for c, _ in terms))
    return [(c // g, fs) for c, fs in terms]


def _family_poly(f: Form, w: int, n: int, d: int, names: tuple[str, ...],
                 indices: tuple[int, ...], weights: tuple[int, ...]) -> UniPoly:
    """n/d times the weight-w polynomial with integer form f: a monomial
    of weight u sits on z^(w - u)."""
    coeffs: dict[int, Form] = {}
    for key, c in f.items():
        expo = [0] * len(names)
        for i, e in zip(indices, key):
            expo[i] = e
        coeffs.setdefault(w - sum(map(mul, key, weights)), {})[tuple(expo)] = n * c
    return UniPoly.from_terms({e: MultiPoly._reduced(names, t, d)
                               for e, t in coeffs.items()})


def _family_vm(P: UniPoly, s: int) -> tuple[UniPoly, UniPoly]:
    """vm_from_p(P, s) for a weighted-homogeneous P over the polynomials in
    its free variables, from a few big-integer products instead of
    MultiPoly ones.

    With p the integer form d*P at z = 1 and p', p'', p''' those of d*P',
    d*P'', d*P''' (same d), V and M are the combinations
      V = 25/(11 s^2 d^2) * (11*p'^2 - 12*p*p'')
      M = 25/(11 s^3 d^3) * (90*p*p'*p'' - 36*p^2*p''' - 55*p'^3)
    of weights 2w - 2 and 3w - 3 for P of weight w.  Each is one _form_sum,
    exact to the digit by the "Packed sums" bound of the exact module, and
    _family_poly puts every coefficient on the z-power its weight fixes.
    """
    names, indices, weights = _free_variables(P)
    w, d, p0 = _integer_form(P, indices, weights)
    p1 = _derivative_form(w, p0, weights)
    p2 = _derivative_form(w - 1, p1, weights)
    p3 = _derivative_form(w - 2, p2, weights)
    v = _form_sum([(11, [(p1, 2)]), (-12, [(p0, 1), (p2, 1)])], 2 * w - 2, weights)
    m = _form_sum([(90, [(p0, 1), (p1, 1), (p2, 1)]), (-36, [(p0, 2), (p3, 1)]),
                   (-55, [(p1, 3)])], 3 * w - 3, weights)
    return (_family_poly(v, 2 * w - 2, 25, 11 * s ** 2 * d ** 2, names, indices, weights),
            _family_poly(m, 3 * w - 3, 25, 11 * s ** 3 * d ** 3, names, indices, weights))


def _power_coefficient(f: UniPoly, e: int, n: int):
    """The z^n coefficient of f^e, convolved from f's top e*deg f - n + 1
    coefficients: no polynomial in z is multiplied."""
    power = top = [f.coefficient(f.degree - j) for j in range(e * f.degree - n + 1)]
    for _ in range(e - 1):
        power = [sum(power[i] * top[j - i] for i in range(j + 1)) for j in range(len(top))]
    return power[-1]


def _identity_constant(P: UniPoly, V: UniPoly, M: UniPoly):
    """The z^(5 deg P) coefficient of V^3 - M^2."""
    return _power_coefficient(V, 3, 5 * P.degree) - _power_coefficient(M, 2, 5 * P.degree)


def _certify_family_identity(P: UniPoly, V: UniPoly, M: UniPoly) -> MultiPoly:
    """The k with V^3 = M^2 + k*P^5, proved exactly; AssertionError when
    the identity cannot be proved.

    The proof is the paper's differential argument, with s = deg P - 6:
      sM    s*M = 3*V'*P - 5*V*P'
      sV2   s*V^2 = 2*M'*P - 5*M*P'
    For D = V^3 - M^2 these give
      D'*P - 5*P'*D = V^2*(3*V'*P - 5*V*P') - M*(2*M'*P - 5*M*P')
                    = V^2*(s*M) - M*(s*V^2) = 0,
    so (D/P^5)' = (D'*P - 5*P'*D)/P^6 = 0 and D = c*P^5 for a c free of z.
    P is checked monic, so c is the z^(5 deg P) coefficient of D, and that
    coefficient is returned as k (_identity_constant).  It is convolved
    from the top 3 deg V - 5 deg P + 1 coefficients of V and of M, once
    3 deg V = 2 deg M >= 5 deg P is checked; for s = 6 it is
    lead(V)^3 - lead(M)^2.

    Each of sM and sV2 is certified by one _form_sum of its
    denominator-cleared integer form at z = 1, which is injective: every
    term's weight is checked (a_i weighs deg P - i, so both identities are
    weighted-homogeneous and z = 1 merges no terms), and the digit width
    comes from the proven bound of "Packed sums" in the exact module
    docstring.  Clearing denominators cross-multiplies them into the term
    scalars, which then share most of their bits, so each sum is packed
    with its scalars divided by their gcd g (_primitive).  That sum is the
    original times 1/g, an integer combination of the same products, and it
    is zero iff the original is: the test is the same, at a narrower width.
    """
    if not 3 * V.degree == 2 * M.degree >= 5 * P.degree:
        raise AssertionError("V^3 and M^2 do not share a degree at or above that of P^5")
    names, indices, weights = _free_variables(P)
    (wv, dv, v), (wm, dm, m), (wp, dp, p) = (
        _integer_form(f, indices, weights) for f in (V, M, P))
    if not (wm == wv + wp - 1 and 2 * wv == wm + wp - 1):
        raise AssertionError(f"weights {wv}, {wm}, {wp} of V, M, P do not balance")
    s = P.degree - 6
    v1, m1, p1 = (_derivative_form(w, f, weights) for w, f in ((wv, v), (wm, m), (wp, p)))
    # s*M = 3*V'*P - 5*V*P' and s*V^2 = 2*M'*P - 5*M*P', denominators cleared
    if _form_sum(_primitive([(s * dv * dp, [(m, 1)]), (-3 * dm, [(v1, 1), (p, 1)]),
                             (5 * dm, [(v, 1), (p1, 1)])]), wm, weights):
        raise AssertionError("family does not satisfy s*M = 3*V'*P - 5*V*P'")
    if _form_sum(_primitive([(s * dm * dp, [(v, 2)]), (-2 * dv * dv, [(m1, 1), (p, 1)]),
                             (5 * dv * dv, [(m, 1), (p1, 1)])]), 2 * wv, weights):
        raise AssertionError("family does not satisfy s*V^2 = 2*M'*P - 5*M*P'")
    if P.leading() != MultiPoly.const(names, 1):
        raise AssertionError("P is not monic")
    return _identity_constant(P, V, M)


def family_k_formula() -> MultiPoly:
    """k(a9, a10) with V^3 = M^2 + k*P^5 for the s = 6 family.

    k is the z^60 coefficient of V^3 - M^2, here lead(V)^3 - lead(M)^2, and
    _certify_family_identity proves the identity by the differential
    argument: the two Halphen identities
      s*M = 3*V'*P - 5*V*P'   and   s*V^2 = 2*M'*P - 5*M*P'
    give (V^3 - M^2)'*P - 5*P'*(V^3 - M^2) = V^2*(s*M) - M*(s*V^2) = 0, so
    (V^3 - M^2)/P^5 has zero z-derivative and is a constant of Q(a9, a10);
    P is monic, so that constant is the z^60 coefficient, which is k.  Each
    Halphen identity is certified by one exact packed sum (_form_sum),
    never expanding V^3, M^2 or P^5.  That evaluation is a proof, not a
    sample: the checked weighted homogeneity and the proven digit bound
    make it injective on the identity's monomials.
    """
    return _family(6)[3]


def family_k(a9: int | Fraction, a10: int | Fraction
             ) -> tuple[UniPoly, UniPoly, UniPoly, GaussRat]:
    """Concrete member of the s = 6 family: (P, V, M, k) over Q(i).

    It is the certified family of family_k_formula evaluated at (a9, a10),
    so V^3 = M^2 + k*P^5 holds exactly; nothing is expanded again.  a10 = 0
    is the icosahedral solution with a vertex sent to infinity; a9 = 0 puts
    an edge midpoint there instead.
    """
    a9, a10 = GaussRat.coerce(a9), GaussRat.coerce(a10)
    if a9.is_zero and a10.is_zero:
        raise ValueError("(a9, a10) = (0, 0) degenerates to a monomial")
    return _at_point(_family(6), {"a9": a9, "a10": a10})


# ---------------------------------------------------------------------------
# The 6-edge quotient of the dodecahedron
# ---------------------------------------------------------------------------


class D6Report(_Record):
    """The derived 6-edge quotient, its elimination, and the solution:
    _point holds it in Q(i), and values gives it as Fractions."""

    belyi: FactoredBelyi
    trace: EliminationTrace
    _point: dict[str, GaussRat]

    @property
    def values(self) -> dict[str, Fraction]:
        return {name: v.re for name, v in self._point.items()}


@cache
def d6_solve() -> D6Report:
    """Derive the 6-edge quotient function
    (z^2+10z+5)^3 / (1728 z) = (z^2+4z-1)^2 (z^2+22z+125) / (1728 z) + 1.

    The ansatz with the order-5 pole at infinity and the simple pole at 0
    leaves S = (z^2+a1*z+a0)^3 - (z^2+b1*z+b0)^2*(z^2+c1*z+c0) - k*z = 0.
    Coprimality of the square-bracket factors forces b1 != a1, so the
    ansatz is written in t = a1 - b1, B = z^2 + (a1 - t)*z + b0, and t
    enters the elimination as a declared-nonzero unknown: each equation is
    divided by the highest power of t that divides it.  The scaling
    freedom is spent on a1 = 10, and values reports b1 = a1 - t in place
    of t.  The solution is computed in Q(i), on integers
    (EliminationTrace._solution).
    """
    names = ["c1", "c0", "t", "b0", "a1", "a0", "k"]

    def v(name: str) -> MultiPoly:
        return MultiPoly.var(names, name)

    def quad(hi: MultiPoly, lo: str) -> UniPoly:
        return UniPoly.from_terms({2: MultiPoly.const(names, 1), 1: hi, 0: v(lo)})

    A = quad(v("a1"), "a0")
    B = quad(v("a1") - v("t"), "b0")
    C = quad(v("c1"), "c0")
    S = A * A * A - B * B * C - UniPoly.from_terms({1: v("k")})
    system = [(d, S.coefficient(d)) for d in range(S.degree, -1, -1)]
    trace = sequential_linear_solve(system, names, assumptions=["t"])
    if trace.free_vars != ("a1",):
        raise AssertionError(f"unexpected free variables {trace.free_vars}")

    values = trace._solution({"a1": GaussRat.coerce(10)})
    values["b1"] = values["a1"] - values.pop("t")
    k = values["k"]

    def concrete(hi: str, lo: str) -> UniPoly:
        return UniPoly.from_terms({2: 1, 1: values[hi], 0: values[lo]})

    num = concrete("a1", "a0") ** 3
    den = UniPoly.x().scale(k)
    beta = FactoredBelyi.from_ratmap(RationalMap(1, num, den))
    # sanity: the derived one-side must be the C * B^2 the ansatz promised
    if beta.one_factors != ((concrete("c1", "c0"), 1), (concrete("b1", "b0"), 2)):
        raise AssertionError("one-side factorization drifted from the ansatz")
    return D6Report(belyi=beta, trace=trace, _point=values)
