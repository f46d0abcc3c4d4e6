"""Sparse multivariate arithmetic and the elimination engine."""

import math
from fractions import Fraction

import pytest

from fullerene_belyi import derive
from fullerene_belyi.exact import GaussRat, UniPoly
from fullerene_belyi.multipoly import (InconsistentSystemError, MultiPoly,
                                       NonLinearStepError, _divide_assumptions,
                                       sequential_linear_solve)
from oracles import (quotient_system, reference_linear_solve, resolve_backward,
                     substitute_by_accumulation)

AB = ("a1", "a0", "b1", "b0")


def v(name, variables=AB):
    return MultiPoly.var(variables, name)


def c(value, variables=AB):
    return MultiPoly.const(variables, value)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_product_of_conjugates():
    a1, b1 = v("a1"), v("b1")
    assert (a1 - b1) * (a1 + b1) == a1 * a1 - b1 * b1


def test_substitute_annihilates():
    a1, b1 = v("a1"), v("b1")
    eq = a1.scale(2) - b1.scale(5)
    assert eq.substitute_all({"b1": a1.scale(Fraction(2, 5))}).is_zero


def test_substitute_constant():
    names = ("a6", "a1")
    a6 = MultiPoly.var(names, "a6")
    expr = (a6 * a6).scale(Fraction(-1, 121))
    assert expr.substitute_all({"a6": 11}) == MultiPoly.const(names, -1)
    assert expr.evaluate({"a6": 11}) == Fraction(-1)


def _stored_cleanly(p):
    return all(type(c) is Fraction and c != 0 for c in p.terms.values())


def test_arithmetic_results_store_only_nonzero_fractions():
    a1, b1 = v("a1"), v("b1")
    half = MultiPoly(AB, {(1, 0, 0, 0): 1, (0, 0, 1, 0): Fraction(1, 2)})
    results = [half + b1, half - a1, -half, half * half, half * 3,
               half.scale(Fraction(2, 3)), half * (a1 - b1)]
    # exact cancellation leaves no zero-coefficient terms behind
    cancelled = [half - half, (a1 + b1) - b1, (a1 - b1) * (a1 + b1) - a1 * a1,
                 half.scale(0)]
    for p in results + cancelled:
        assert _stored_cleanly(p), p
    assert [p.terms for p in cancelled[:1] + cancelled[3:]] == [{}, {}]
    assert cancelled[1] == a1
    assert cancelled[2].terms == {(0, 0, 2, 0): Fraction(-1)}


def _canonical(p):
    """p's numerators are nonzero ints over one positive denominator that
    shares no factor with all of them; zero is ({}, 1)."""
    return (p._den > 0 and all(type(c) is int and c for c in p._num.values())
            and math.gcd(p._den, *p._num.values()) == 1)


def test_arithmetic_results_are_canonical_integer_forms(rng):
    names = ("x", "y", "w")
    for _ in range(200):
        p, q = rand_mp(rng, names, rng.randint(0, 5)), rand_mp(rng, names, rng.randint(0, 5))
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        results = [p + q, p - q, p - p, p * q, -p, p.scale(s), p * 3,
                   p.coefficient_in("x", 1), p.substitute_all({"y": q}), p ** 2]
        for r in results:
            assert _canonical(r), r
            # equal values, equal forms: the form rebuilt from Fractions
            assert (r._num, r._den) == (MultiPoly(names, r.terms)._num, r._den)
    assert (MultiPoly.zero(names)._num, MultiPoly.zero(names)._den) == ({}, 1)
    half = MultiPoly(names, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(3, 4)})
    assert (half._num, half._den) == ({(1, 0, 0): 2, (0, 1, 0): 3}, 4)
    assert str(half) == "1/2*x + 3/4*y" and str(half.scale(2)) == "x + 3/2*y"


def test_variable_set_mismatch():
    with pytest.raises(ValueError):
        v("a1") + MultiPoly.var(("x", "y"), "x")


def test_substitution_is_ring_homomorphism(rng):
    names = ("x", "y", "w")

    def rand_mp():
        out = MultiPoly.zero(names)
        for _ in range(rng.randint(1, 4)):
            expo = tuple(rng.randint(0, 2) for _ in names)
            out = out + MultiPoly(names, {expo: Fraction(rng.randint(-5, 5))})
        return out

    for _ in range(150):
        p, q, r = rand_mp(), rand_mp(), rand_mp()
        y = {"y": r}
        lhs = (p * q).substitute_all(y)
        rhs = p.substitute_all(y) * q.substitute_all(y)
        assert lhs == rhs
        assert (p + q).substitute_all(y) == p.substitute_all(y) + q.substitute_all(y)


def rand_mp(rng, names, terms, avoid=()):
    """Up to `terms` random terms, free of the variables in avoid."""
    return MultiPoly(names, {tuple(0 if n in avoid else rng.randint(0, 3) for n in names):
                             Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for _ in range(terms)})


def test_substitute_matches_accumulation_randomized(rng):
    names = ("x", "y", "w")
    for _ in range(200):
        p = rand_mp(rng, names, rng.randint(0, 8))
        r = (rand_mp(rng, names, rng.randint(0, 3)) if rng.random() < 0.8
             else rng.randint(-3, 3))
        name = rng.choice(names)
        got = p.substitute_all({name: r})
        assert got == substitute_by_accumulation(p, name, r)
        assert all(isinstance(c, Fraction) and c for c in got.terms.values())


def by_accumulation(p, mapping):
    """substitute_all(mapping) one variable after another."""
    for name, r in mapping.items():
        p = substitute_by_accumulation(p, name, r)
    return p


def test_substitute_all_matches_sequential_accumulation_randomized(rng):
    # when no replacement mentions a substituted variable, replacing them
    # all at once is replacing them one after another, in any order
    names = ("x", "y", "w", "u")
    for _ in range(150):
        p = rand_mp(rng, names, rng.randint(0, 8))
        chosen = rng.sample(names, rng.randint(1, 3))
        mapping = {name: rand_mp(rng, names, rng.randint(0, 3), avoid=chosen)
                   if rng.random() < 0.8 else rng.randint(-3, 3)
                   for name in chosen}
        got = p.substitute_all(mapping)
        assert got == by_accumulation(p, mapping)
        assert got == by_accumulation(p, dict(reversed(mapping.items())))
        assert all(type(c) is Fraction and c for c in got.terms.values())


def test_substitute_all_is_simultaneous():
    a1, a0, b1 = v("a1"), v("a0"), v("b1")
    p = a1 * a1 + a0.scale(2) + c(1)
    # a variable of the mapping inside a replacement is not replaced again
    assert p.substitute_all({"a1": a0, "a0": a1}) == a0 * a0 + a1.scale(2) + c(1)
    assert p.substitute_all({"a1": a1 + b1, "b1": 5}) == (a1 + b1) ** 2 + a0.scale(2) + c(1)
    assert p.substitute_all({"a1": 2, "a0": Fraction(1, 2)}) == c(6)
    assert p.substitute_all({}) is p and p.substitute_all({"b0": b1}) is p
    with pytest.raises(ValueError):  # every replacement is checked
        p.substitute_all({"a1": 1, "b0": MultiPoly.var(("x",), "x")})
    with pytest.raises(ValueError):
        p.substitute_all({"x": 1})


def test_substitute_matches_accumulation_on_s6_elimination(monkeypatch):
    """Every substitute_all the s = 6 elimination and its replay make equals
    substituting its variables one at a time, and none of its replacements
    mentions a variable it replaces.  The count follows the resolved map:
    one call per equation visit and one per earlier map value at each new
    step; the trace keeps the map, so apply_param makes one per
    coefficient (and the ring's zero) of P and none to resolve it."""
    family = derive._family(6)[0]
    calls = []
    fast = MultiPoly.substitute_all

    def both(self, mapping):
        got = fast(self, mapping)
        for r in mapping.values():
            assert not isinstance(r, MultiPoly) or all(
                r.degree_in(name) == 0 for name in mapping)
        assert got == by_accumulation(self, mapping)
        calls.append(len(mapping))
        return got

    monkeypatch.setattr(MultiPoly, "substitute_all", both)
    p_sym, names = derive._symbolic_p(12)
    system = derive._ode_system(12, names)
    trace = sequential_linear_solve(system, names)
    steps = len(trace.steps)
    assert steps == 9 and len(system) == 17
    # one pass: each equation is visited once
    assert len(calls) == len(system) + steps * (steps - 1) // 2
    del calls[:]
    assert trace.apply_param(p_sym) == family
    assert len(calls) == len(p_sym.coeffs) + 1


def test_substitute_absent_variable_returns_self():
    a1, b1 = v("a1"), v("b1")
    p = a1 * a1 + c(3)
    assert p.substitute_all({"b1": b1 + c(1)}) is p
    assert p.substitute_all({"b0": 5}) is p
    with pytest.raises(ValueError):  # the variable sets are still checked
        p.substitute_all({"b1": MultiPoly.var(("x",), "x")})


def test_apply_param_matches_apply_on_every_coefficient():
    p_sym, trace = derive.run_ode_elimination(6)
    assert trace.apply_param(p_sym) == p_sym.map_coeffs(trace.apply)
    # coefficients other than single variables take the general path
    names = p_sym.coeffs[0].vars
    a0, a1, a9, a10 = (MultiPoly.var(names, n) for n in ("a0", "a1", "a9", "a10"))
    general = UniPoly([a0 * a1 + a10.scale(3), a1.scale(2), a9, c(5, names),
                       a0 * a0 * a9 - a1])
    assert trace.apply_param(general) == general.map_coeffs(trace.apply)


def test_binary_power_matches_repeated_product():
    base = v("a1") - v("b1").scale(Fraction(2, 3)) + c(1)
    product = c(1)
    assert base ** 0 == product
    for n in range(1, 9):
        product = product * base
        assert base ** n == product
    with pytest.raises(ValueError):
        base ** -1


# ---------------------------------------------------------------------------
# dividing out an unknown declared nonzero
# ---------------------------------------------------------------------------


def test_divide_out_least_power_of_the_declared_unknown():
    a1, b1 = v("a1"), v("b1")
    inner = a1 * 2 - b1 * 5 + c(3)
    eq = (a1 ** 5 * inner).scale(Fraction(-1, 27))
    assert _divide_assumptions(eq, ["a1"]) == (inner.scale(Fraction(-1, 27)), (("a1", 5),))
    assert _divide_assumptions(a1 * a1 * b1 - a1 ** 3, ["a1", "b1"]) == (
        b1 - a1, (("a1", 2),))


def test_equation_without_the_declared_unknown_is_left_alone():
    a1, b1 = v("a1"), v("b1")
    for eq in (b1 - c(4), a1 * b1 + c(1), MultiPoly.zero(AB)):
        assert _divide_assumptions(eq, ["a1"]) == (eq, ())


# ---------------------------------------------------------------------------
# UniPoly over MultiPoly coefficients
# ---------------------------------------------------------------------------


def test_unipoly_over_multipoly_derivative():
    names = ("a1", "a0")
    p = UniPoly.from_terms({
        2: MultiPoly.const(names, 1),
        1: MultiPoly.var(names, "a1"),
        0: MultiPoly.var(names, "a0")})
    d = p.derivative()
    assert d.degree == 1
    assert d.coefficient(1) == MultiPoly.const(names, 2)
    assert d.coefficient(0) == MultiPoly.var(names, "a1")


def symbolic_monic(m):
    """z^m + a_{m-1} z^{m-1} + ... + a_0, every coefficient symbolic."""
    names = tuple(f"a{i}" for i in range(m - 1, -1, -1))
    terms = {m: MultiPoly.const(names, 1)}
    for i in range(m):
        terms[i] = MultiPoly.var(names, f"a{i}")
    return UniPoly.from_terms(terms)


@pytest.mark.parametrize("m", [7, 9, 11, 12, 13])
def test_ode_residual_top_coefficient_is_constant(m):
    # 22 P P'''' + 45 P''^2 - 66 P' P''' has z^(2m-4) coefficient
    # m(m-1)(m-11)(m-12) for any monic symbolic P
    p = symbolic_monic(m)
    d1 = p.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    d4 = d3.derivative()
    residual = (p * d4) * 22 + (d2 * d2) * 45 - (d1 * d3) * 66
    top = residual.coefficient(2 * m - 4)
    expected = m * (m - 1) * (m - 11) * (m - 12)
    if expected:
        assert top.is_constant and top.constant_value() == expected
    else:
        assert top.is_zero


def test_quotient_ansatz_z5_coefficient_dies_with_c_elimination():
    # the degree-6 ansatz S = A^3 - B^2 C - k z: substituting the solved
    # c1 kills the z^5 coefficient identically
    names = ("c1", "c0", "b1", "b0", "a1", "a0", "k")

    def quad(hi, lo):
        return UniPoly.from_terms({
            2: MultiPoly.const(names, 1),
            1: MultiPoly.var(names, hi),
            0: MultiPoly.var(names, lo)})

    S = (quad("a1", "a0") ** 3 - quad("b1", "b0") ** 2 * quad("c1", "c0")
         - UniPoly.from_terms({1: MultiPoly.var(names, "k")}))
    c1_solution = MultiPoly.var(names, "a1") * 3 - MultiPoly.var(names, "b1") * 2
    assert S.coefficient(6).is_zero
    assert not S.coefficient(5).is_zero
    assert S.coefficient(5).substitute_all({"c1": c1_solution}).is_zero


def test_unipoly_over_multipoly_evaluates_coeffs():
    names = ("a1", "a0")
    p = UniPoly.from_terms({
        2: MultiPoly.const(names, 1),
        1: MultiPoly.var(names, "a1"),
        0: MultiPoly.var(names, "a0")})
    concrete = p.map_coeffs(lambda c: GaussRat.of(c.evaluate({"a1": 10, "a0": 5})))
    assert [str(c) for c in concrete.coeffs] == ["5", "10", "1"]


# ---------------------------------------------------------------------------
# sequential_linear_solve on synthetic systems
# ---------------------------------------------------------------------------


def test_solve_small_triangular_system():
    names = ("y", "x")
    x, y = MultiPoly.var(names, "x"), MultiPoly.var(names, "y")
    one = MultiPoly.const(names, 1)
    # y - x^2 = 0 ; x - 3 = 0
    trace = sequential_linear_solve(
        [(2, y - x * x), (1, x - one.scale(3))], names)
    assert trace.free_vars == ()
    values = trace.evaluate({})
    assert values == {"x": Fraction(3), "y": Fraction(9)}


def test_solve_records_assumption_division():
    names = ("u", "t")
    t, u = MultiPoly.var(names, "t"), MultiPoly.var(names, "u")
    eq = t * t * (u - MultiPoly.const(names, 4))
    trace = sequential_linear_solve([(0, eq)], names, assumptions=["t"])
    step = trace.steps[0]
    assert step.variable == "u"
    assert step.divided_by == (("t", 2),)
    assert step.substitution == MultiPoly.const(names, 4)
    assert trace.to_report()["assumptions"] == ["t"]
    assert trace.to_report()["steps"][0]["divided_by"] == [{"factor": "t", "power": 2}]


def test_solve_refuses_an_assumption_that_is_not_an_unknown():
    names = ("u", "t")
    t, u = MultiPoly.var(names, "t"), MultiPoly.var(names, "u")
    with pytest.raises(ValueError, match="not unknowns"):
        sequential_linear_solve([(0, t * u)], ("u",), assumptions=["t"])
    with pytest.raises(ValueError, match="not unknowns"):
        sequential_linear_solve([(0, t * u)], names, assumptions=[t])


def test_solve_inconsistent_system():
    names = ("x",)
    x = MultiPoly.var(names, "x")
    one = MultiPoly.const(names, 1)
    with pytest.raises(InconsistentSystemError):
        sequential_linear_solve([(1, x - one), (0, x - one.scale(2))], names)


def test_solve_nonlinear_step_carries_trace():
    names = ("y", "x")
    x, y = MultiPoly.var(names, "x"), MultiPoly.var(names, "y")
    with pytest.raises(NonLinearStepError) as err:
        sequential_linear_solve(
            [(1, y - x * x), (0, x * x * x - y * y)], names)
    assert err.value.trace.steps[0].variable == "y"
    assert err.value.stuck_labels == [0]


def test_trace_replay_annihilates_synthetic_system(rng):
    names = ("w", "y", "x")
    x = MultiPoly.var(names, "x")
    y = MultiPoly.var(names, "y")
    w = MultiPoly.var(names, "w")
    system = [
        (3, w - (x * y + x * x)),
        (2, y - x.scale(7)),
        (1, x - MultiPoly.const(names, 2)),
    ]
    trace = sequential_linear_solve(system, names)
    for _, eq in system:
        assert trace.apply(eq).is_zero


def test_trace_report_shape():
    names = ("y", "x")
    x, y = MultiPoly.var(names, "x"), MultiPoly.var(names, "y")
    trace = sequential_linear_solve(
        [(1, y - x), (0, x - MultiPoly.const(names, 5))], names)
    doc = trace.to_report()
    assert doc["free_variables"] == []
    assert doc["steps"][0]["variable"] == "y"
    assert doc["steps"][1]["substitution"] == "5"


# ---------------------------------------------------------------------------
# the solver against the one-variable-at-a-time reference
# ---------------------------------------------------------------------------


def trace_fields(trace):
    return ([(s.label, s.equation, s.divided_by, s.variable, s.substitution)
             for s in trace.steps], trace.assumptions, trace.free_vars)


def solve_both(system, unknowns, assumptions=()):
    """The package's trace, asserted equal field for field to the
    reference's."""
    got = sequential_linear_solve(system, unknowns, assumptions)
    assert trace_fields(got) == trace_fields(
        reference_linear_solve(system, unknowns, assumptions))
    return got


@pytest.mark.parametrize("s", [5, 6])
def test_solver_matches_reference_on_the_ode(s):
    m = s + 6
    p_sym, names = derive._symbolic_p(m)
    trace = solve_both(derive._ode_system(m, names), names)
    assert trace_fields(trace) == trace_fields(derive.run_ode_elimination(s)[1])


@pytest.mark.parametrize("order", [
    ["c1", "c0", "t", "b0", "a1", "a0", "k"],  # d6_solve's own
    ["c1", "c0", "t", "a0", "b0", "a1", "k"],
    ["c0", "c1", "b0", "t", "a0", "a1", "k"],
    ["k", "c1", "c0", "t", "b0", "a1", "a0"]])
def test_solver_matches_reference_on_the_quotient(order):
    names = ("c1", "c0", "t", "b0", "a1", "a0", "k")
    trace = solve_both(quotient_system(names), order, ("t",))
    if order[0] == "c1" and order[3] == "b0":
        assert trace_fields(trace) == trace_fields(derive.d6_solve().trace)


def synthetic_systems():
    y2, x2 = MultiPoly.var(("y", "x"), "y"), MultiPoly.var(("y", "x"), "x")
    one2 = MultiPoly.const(("y", "x"), 1)
    t, u = MultiPoly.var(("u", "t"), "t"), MultiPoly.var(("u", "t"), "u")
    w3, y3, x3 = (MultiPoly.var(("w", "y", "x"), n) for n in ("w", "y", "x"))
    return {
        "triangular": ([(2, y2 - x2 * x2), (1, x2 - one2.scale(3))], ("y", "x"), ()),
        "assumption": ([(0, t * (u - MultiPoly.const(("u", "t"), 4)))],
                       ("u", "t"), ("t",)),
        "chain": ([(3, w3 - (x3 * y3 + x3 * x3)), (2, y3 - x3.scale(7)),
                   (1, x3 - MultiPoly.const(("w", "y", "x"), 2))], ("w", "y", "x"), ()),
        "report": ([(1, y2 - x2), (0, x2 - one2.scale(5))], ("y", "x"), ()),
    }


@pytest.mark.parametrize("name", sorted(synthetic_systems()))
def test_solver_matches_reference_on_synthetic_systems(name):
    system, unknowns, assumptions = synthetic_systems()[name]
    trace = solve_both(system, unknowns, assumptions)
    for _, eq in system:
        assert trace.apply(eq).is_zero


def test_solver_errors_match_reference():
    names = ("y", "x")
    x, y = MultiPoly.var(names, "x"), MultiPoly.var(names, "y")
    one = MultiPoly.const(names, 1)
    # neither x*y - 1 nor, once x is divided out, x*y - 2 has a constant
    # pivot: the pass stops at it, though the equations after it would
    # have solved y or x
    nonlinear = [
        ([(2, x * y - one), (1, y - x * x), (0, x * x * x - y * y)], ()),
        ([(2, x * (x * y - one.scale(2))), (1, x - one)], ("x",))]
    for system, assumptions in nonlinear:
        with pytest.raises(NonLinearStepError) as got:
            sequential_linear_solve(system, names, assumptions)
        with pytest.raises(NonLinearStepError) as want:
            reference_linear_solve(system, names, assumptions)
        assert str(got.value) == str(want.value)
        assert got.value.stuck_labels == want.value.stuck_labels == [2]
        assert trace_fields(got.value.trace) == trace_fields(want.value.trace)
        assert got.value.trace.steps == [] and got.value.trace.free_vars == names
    inconsistent = [(2, y - x), (1, x - one), (0, y - one.scale(2))]
    with pytest.raises(InconsistentSystemError) as got:
        sequential_linear_solve(inconsistent, names)
    with pytest.raises(InconsistentSystemError) as want:
        reference_linear_solve(inconsistent, names)
    assert str(got.value) == str(want.value)
    assert (got.value.label, got.value.value) == (0, Fraction(-1))
    assert (want.value.label, want.value.value) == (0, Fraction(-1))


def test_every_pipeline_step_has_a_constant_pivot():
    """Each recorded equation of the s = 5, s = 6 and d6 eliminations is,
    by multiplication, t^m * pivot * (x - substitution): the recorded
    powers of declared unknowns times pivot*x + rest, with a nonzero
    constant pivot and the substitution -rest/pivot free of x.  Only d6
    divides, by t^1, t^2 and t^5."""
    traces = [derive.run_ode_elimination(5)[1], derive.run_ode_elimination(6)[1],
              derive.d6_solve().trace]
    assert [len(t.steps) for t in traces] == [9, 9, 6]
    assert [s.divided_by for t in traces for s in t.steps if s.divided_by] == [
        (("t", 1),), (("t", 2),), (("t", 5),)]
    pivots = []
    for step in (step for trace in traces for step in trace.steps):
        vs = step.equation.vars
        monomial = MultiPoly.const(vs, 1)
        for name, power in step.divided_by:
            monomial = monomial * MultiPoly.var(vs, name) ** power
        x = MultiPoly.var(vs, step.variable)
        (expo,) = (monomial * x).terms
        pivot = step.equation.terms[expo]
        pivots.append(pivot)
        assert step.substitution.degree_in(step.variable) == 0
        assert step.equation == monomial * (x - step.substitution).scale(pivot)
    assert pivots[-6:] == [-1, -1, -6, -3, -1, Fraction(-5, 27)]


# ---------------------------------------------------------------------------
# the resolved map the trace keeps
# ---------------------------------------------------------------------------


def trace_named(name):
    """One of the pipeline's three traces, the trace of a synthetic system,
    or the partial trace of a NonLinearStepError (y = x^2 solved, then
    stuck)."""
    if name in ("s5", "s6"):
        return derive.run_ode_elimination(int(name[1]))[1]
    if name == "d6":
        return derive.d6_solve().trace
    if name == "partial":
        names = ("y", "x")
        x, y = MultiPoly.var(names, "x"), MultiPoly.var(names, "y")
        with pytest.raises(NonLinearStepError) as err:
            sequential_linear_solve([(1, y - x * x), (0, x * x * x - y * y)], names)
        return err.value.trace
    system, unknowns, assumptions = synthetic_systems()[name]
    return sequential_linear_solve(system, unknowns, assumptions)


@pytest.mark.parametrize("name", ["s5", "s6", "d6", "partial", *sorted(synthetic_systems())])
def test_trace_resolved_matches_backward_resolution(name):
    """trace.resolved is the backward resolution of the steps, in step
    order, and mentions only the free variables."""
    trace = trace_named(name)
    reference = resolve_backward(trace)
    assert list(trace.resolved.items()) == list(reference.items())
    assert list(trace.resolved) == [step.variable for step in trace.steps]
    assert all(e.degree_in(solved) == 0
               for e in trace.resolved.values() for solved in trace.resolved)
    if name == "partial":
        x = MultiPoly.var(("y", "x"), "x")
        assert trace.free_vars == ("x",) and trace.resolved == {"y": x * x}


def test_trace_evaluate_reads_the_resolved_map():
    """evaluate() gives the free values, then each solved value in step
    order; the d6 values land on the printed quotient function."""
    trace = derive.d6_solve().trace
    values = trace.evaluate({"a1": 10})
    assert list(values) == ["a1", *trace.resolved]
    assert {name: values[name] for name in ("a0", "t", "b0", "c1", "c0", "k")} == {
        "a0": 5, "t": 6, "b0": -1, "c1": 22, "c0": 125, "k": 1728}
    with pytest.raises(ValueError, match="no value for variable a1"):
        trace.evaluate({})
