"""Sparse multivariate polynomials over Q and sequential linear elimination.

MultiPoly stores integer numerators {exponent tuple: int} over one common
denominator, for a fixed, ordered variable tuple shared by every
polynomial of one system; zero coefficients are never stored, and the
form is canonical (the denominator is positive and shares no factor with
every numerator), so each operation ends in one gcd.  A polynomial in z
whose coefficients are MultiPolys (an indeterminate-coefficient
polynomial such as z^m + a_{m-1} z^{m-1} + ...) is an exact.UniPoly over
this ring.

The elimination engine makes one pass over a list of equations (by
convention the z-coefficients of some identity, highest degree first).  It
reduces each equation by everything solved so far, divides out the highest
power of each unknown that the caller has declared nonzero (saturation by a
variable, which lowers one exponent), drops it if it is zero, and otherwise
solves it for the first unsolved unknown, in priority order, whose
coefficient in it is a nonzero constant.  An equation with no such unknown
stops the pass.  The full history is kept in an EliminationTrace so that
runs are replayable and reportable.

Substitution is simultaneous (MultiPoly.substitute_all), and the engine
keeps a resolved map: each solved variable sent to its expression in the
variables still unsolved.  A new step x = e, with e in the unsolved
variables, is substituted into the map's values and then added, so no value
ever mentions a solved variable.  Substituting the solved steps one after
another is a composition of ring maps, and the map's values are exactly that
composition evaluated on each solved variable; since they mention no
variable being replaced, one simultaneous substitution with the map gives
the same polynomial.  MultiPoly is canonical (a dict of nonzero terms,
printed sorted), so the recorded equations and substitutions, and every
report made from them, are the same as those of the sequential replay.
The trace keeps the map (EliminationTrace.resolved), also when the pass
stops, so applying or evaluating a solution reads it and nothing resolves
the steps a second time.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import gcd, lcm
from operator import add

from .exact import (ONE, ZERO, GaussRat, UniPoly, _gauss, _rational, _rational_text, _Record,
                    binary_power)

Expo = tuple[int, ...]


class MultiPoly:
    """Sparse polynomial over Q in a fixed ordered set of named variables,
    held as integer numerators over one common denominator.

    _num maps exponent tuples to nonzero ints and _den is a positive int
    with gcd(_den, every numerator) = 1 (the zero polynomial has _den 1),
    so equal polynomials have equal (_num, _den); every operation makes its
    result canonical with one gcd.  The constructor and scale() take ints
    and Fractions (anything with numerator and denominator); terms,
    constant_value() and evaluate() return Fractions."""

    __slots__ = ("vars", "_num", "_den")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Expo, int | Fraction] | None = None):
        vs = tuple(variables)
        nonzero = {}
        for expo, c in (terms or {}).items():
            if not c:
                continue
            if len(expo) != len(vs):
                raise ValueError("exponent arity does not match variable set")
            nonzero[tuple(expo)] = _rational(c)  # TypeError for a non-rational
        # numerators over the lcm of the reduced denominators: canonical
        den = lcm(*(c._d for c in nonzero.values()))
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "_num", {expo: c._a * (den // c._d)
                                          for expo, c in nonzero.items()})
        object.__setattr__(self, "_den", den)

    @classmethod
    def _trusted(cls, vs: tuple[str, ...], num: dict[Expo, int], den: int) -> "MultiPoly":
        """Wrap a canonical (num, den) with full-arity keys, as every
        arithmetic result is, skipping the cleaning."""
        out = object.__new__(cls)
        object.__setattr__(out, "vars", vs)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        return out

    @classmethod
    def _reduced(cls, vs: tuple[str, ...], num: dict[Expo, int], den: int) -> "MultiPoly":
        """num/den, for nonzero numerators and den > 0, made canonical by
        one gcd."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._trusted(vs, num, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> dict[Expo, Fraction]:
        """{exponent tuple: Fraction} of the nonzero terms."""
        from fractions import Fraction
        return {e: Fraction(c, self._den) for e, c in self._num.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def const(variables: Sequence[str], c: int | Fraction) -> "MultiPoly":
        vs = tuple(variables)
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        expo = [0] * len(vs)
        expo[vs.index(name)] = 1
        return MultiPoly._trusted(vs, {tuple(expo): 1}, 1)

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("operands use different variable sets")

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._num)

    def constant_value(self) -> Fraction:
        from fractions import Fraction
        if not self._num:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self._num.values())), self._den)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self._num), default=0)

    def coefficient_in(self, name: str, power: int) -> "MultiPoly":
        """Collect the coefficient of name**power (a MultiPoly without name)."""
        i = self.vars.index(name)
        out: dict[Expo, int] = {}
        for expo, c in self._num.items():
            if expo[i] == power:
                out[expo[:i] + (0,) + expo[i + 1:]] = c
        return MultiPoly._reduced(self.vars, out, self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self._den == other._den and self._num == other._num)

    def __bool__(self) -> bool:
        return not self.is_zero

    __hash__ = None  # mutable-dict backed; identity hashing would mislead

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        d, e = self._den, other._den
        g = gcd(d, e)
        ms, mo = e // g, d // g
        out = dict(self._num) if ms == 1 else {x: c * ms for x, c in self._num.items()}
        for expo, c in other._num.items():
            s = out.get(expo, 0) + c * mo
            if s:
                out[expo] = s
            else:
                del out[expo]
        return MultiPoly._reduced(self.vars, out, d * ms)

    def __radd__(self, other: int | Fraction) -> "MultiPoly":
        """rational + polynomial, e.g. 1 + zero for the ring's one."""
        return MultiPoly.const(self.vars, other) + self

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self._num.items()},
                                  self._den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        out: dict[Expo, int] = {}
        for ea, ca in self._num.items():
            for eb, cb in other._num.items():
                expo = tuple(map(add, ea, eb))
                s = out.get(expo, 0) + ca * cb
                if s:
                    out[expo] = s
                else:
                    del out[expo]
        return MultiPoly._reduced(self.vars, out, self._den * other._den)

    def __rmul__(self, other) -> "MultiPoly":
        return self * other

    def scale(self, s: int | Fraction) -> "MultiPoly":
        s = _rational(s)
        return self._scaled(s._a, s._d)

    def _scaled(self, n: int, d: int) -> "MultiPoly":
        """self times n/d, for d != 0."""
        if not n:
            return MultiPoly._trusted(self.vars, {}, 1)
        if d < 0:
            n, d = -n, -d
        return MultiPoly._reduced(self.vars, {e: c * n for e, c in self._num.items()},
                                  self._den * d)

    def __pow__(self, n: int) -> "MultiPoly":
        return binary_power(self, n, MultiPoly.const(self.vars, 1))

    def substitute_all(self, mapping: Mapping[str, "MultiPoly | int | Fraction"]
                       ) -> "MultiPoly":
        """Replace several variables at once, each by a polynomial (or
        constant), and renormalize; self when none of them occurs.

        The replacements are simultaneous: a variable of the mapping that
        occurs in a replacement is not replaced again.  Terms are grouped by
        their exponents on the replaced variables, and each group is
        multiplied by one product of the replacements' powers, which are
        computed once per call.  The products are brought over the lcm L of
        their denominators, so the sum accumulates integers over self's
        denominator times L."""
        vs = self.vars
        occurs = [any(col) for col in zip(*self._num)] or [False] * len(vs)
        subs: list[tuple[int, MultiPoly]] = []
        for name, r in mapping.items():
            if not isinstance(r, MultiPoly):
                r = MultiPoly.const(vs, r)
            self._check(r)
            i = vs.index(name)
            if occurs[i]:
                subs.append((i, r))
        if not subs:
            return self
        groups: dict[Expo, dict[Expo, int]] = {}
        for expo, c in self._num.items():
            stripped = list(expo)
            for i, _ in subs:
                stripped[i] = 0
            groups.setdefault(tuple(expo[i] for i, _ in subs), {})[tuple(stripped)] = c
        one = MultiPoly.const(vs, 1)
        powers = [[one, r] for _, r in subs]    # powers[j][p] = r_j^p
        factors = []
        for key in groups:
            factor = one
            for cached, p in zip(powers, key):
                if p:
                    while len(cached) <= p:
                        cached.append(cached[-1] * cached[1])
                    factor = cached[p] if factor is one else factor * cached[p]
            factors.append(factor)
        den = lcm(*(f._den for f in factors))
        out: dict[Expo, int] = {}
        for part, factor in zip(groups.values(), factors):
            m = den // factor._den
            for ea, ca in part.items():
                ca *= m
                for eb, cb in factor._num.items():
                    e = tuple(map(add, ea, eb))
                    s = out.get(e, 0) + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return MultiPoly._reduced(vs, out, self._den * den)

    def _at(self, values: Mapping[str, GaussRat]) -> GaussRat:
        """self with each variable set to its GaussRat value, in Q(i);
        ValueError names a variable that occurs without a value."""
        total = ZERO
        for expo, c in self._num.items():
            t = GaussRat.coerce(c)
            for name, e in zip(self.vars, expo):
                if e:
                    if name not in values:
                        raise ValueError(f"no value for variable {name}")
                    t = t * binary_power(values[name], e, ONE)
            total = total + t
        return _gauss(total._a, total._b, total._d * self._den)

    def evaluate(self, assignments: Mapping[str, int | Fraction]) -> Fraction:
        for name in assignments:
            self.vars.index(name)  # ValueError for a name that is no variable
        return self._at({name: _rational(v) for name, v in assignments.items()}).re

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        d = self._den
        parts = []
        for expo in sorted(self._num, reverse=True):
            c = self._num[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, expo) if e)
            if not mono:
                parts.append(_rational_text(c, d))
            elif c == d:
                parts.append(mono)
            elif c == -d:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_rational_text(c, d)}*{mono}")
        joined = parts[0]
        for p in parts[1:]:
            joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return joined

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# ---------------------------------------------------------------------------
# Sequential linear elimination
# ---------------------------------------------------------------------------


class NonLinearStepError(RuntimeError):
    """An equation has no unsolved unknown with a constant coefficient.

    Carries the trace up to that equation and the equation's label (in a
    one-element list) so the failure can be inspected.
    """

    def __init__(self, trace: "EliminationTrace", stuck_labels: list[int]):
        super().__init__(f"no linear unknown in equations {stuck_labels}")
        self.trace = trace
        self.stuck_labels = stuck_labels


class InconsistentSystemError(RuntimeError):
    """An equation reduced to a nonzero constant."""

    def __init__(self, label: int, value: Fraction):
        super().__init__(f"equation at degree {label} reduced to constant {value}")
        self.label = label
        self.value = value


class EliminationStep(_Record, frozen=True):
    """One solved equation: at z-degree `label`, `equation` (already reduced
    under earlier substitutions) was divided by name^power for each
    (name, power) of divided_by, names of declared-nonzero unknowns, and
    solved for `variable` = `substitution`."""

    label: int
    equation: MultiPoly
    divided_by: tuple[tuple[str, int], ...]
    variable: str
    substitution: MultiPoly


class EliminationTrace(_Record):
    """The steps of one elimination, the unknowns declared nonzero, the
    unknowns left free, and resolved: each solved variable, in step order,
    written in the free variables (the eliminator's map)."""

    steps: list[EliminationStep] = list
    assumptions: tuple[str, ...] = ()
    free_vars: tuple[str, ...] = ()
    resolved: dict[str, MultiPoly] = dict

    def substitution_for(self, name: str) -> MultiPoly:
        for step in self.steps:
            if step.variable == name:
                return step.substitution
        raise KeyError(name)

    def apply(self, p: MultiPoly) -> MultiPoly:
        """Substitute every solved variable: one substitute_all with the
        resolved map."""
        return p.substitute_all(self.resolved)

    def apply_param(self, p: UniPoly) -> UniPoly:
        """apply() on every coefficient of a polynomial in z over MultiPoly."""
        return p.map_coeffs(self.apply)

    def evaluate(self, free_assignments: Mapping[str, int | Fraction]) -> dict[str, Fraction]:
        """Concrete values for every variable given values of the free
        ones: the free ones, then the solved ones in step order."""
        solution = self._solution({name: _rational(v) for name, v in free_assignments.items()})
        return {name: v.re for name, v in solution.items()}

    def _solution(self, free: Mapping[str, GaussRat]) -> dict[str, GaussRat]:
        """evaluate() in Q(i): the free values, then each solved variable's
        resolved value at them, in step order."""
        values = dict(free)
        values.update({name: e._at(free) for name, e in self.resolved.items()})
        return values

    def to_report(self) -> dict:
        return {
            "assumptions": list(self.assumptions),
            "free_variables": list(self.free_vars),
            "steps": [
                {
                    "z_degree": s.label,
                    "equation": str(s.equation),
                    "divided_by": [
                        {"factor": f, "power": p} for f, p in s.divided_by],
                    "variable": s.variable,
                    "substitution": str(s.substitution),
                }
                for s in self.steps
            ],
        }


def _divide_assumptions(eq: MultiPoly, assumptions: Sequence[str]
                        ) -> tuple[MultiPoly, tuple[tuple[str, int], ...]]:
    """eq divided by name^m for each declared-nonzero unknown, m the least
    exponent of name over eq's terms, and the (name, m) with m > 0."""
    divided = []
    for name in assumptions:
        i = eq.vars.index(name)
        m = min((expo[i] for expo in eq._num), default=0)
        if m:
            eq = MultiPoly._trusted(eq.vars, {
                expo[:i] + (expo[i] - m,) + expo[i + 1:]: c
                for expo, c in eq._num.items()}, eq._den)
            divided.append((name, m))
    return eq, tuple(divided)


def _pick_linear_unknown(eq: MultiPoly, unknowns: Sequence[str],
                         unsolved: set[str]) -> tuple[str, MultiPoly] | None:
    """First unsolved unknown (in priority order) of degree one whose
    coefficient is a constant; returns (name, substitution expression)."""
    for name in unknowns:
        if name in unsolved and eq.degree_in(name) == 1:
            c1 = eq.coefficient_in(name, 1)
            if c1.is_constant:
                # c1 is one constant term n/d, so name = -(the rest)*d/n
                (n,) = c1._num.values()
                return name, eq.coefficient_in(name, 0)._scaled(-c1._den, n)
    return None


def sequential_linear_solve(system: Sequence[tuple[int, MultiPoly]],
                            unknowns: Sequence[str],
                            assumptions: Sequence[str] = (),
                            ) -> EliminationTrace:
    """Solve a polynomial system in one pass, one linear step per equation.

    system      -- (z-degree label, equation) pairs, highest degree first.
    unknowns    -- variable names in solving priority (first wins when an
                   equation is linear in several).
    assumptions -- unknowns declared nonzero; the highest power of each that
                   divides a reduced equation is divided out and recorded.
                   A name that is not an unknown raises ValueError.

    Each equation, in the order given, is reduced by one substitute_all
    with the resolved map, which sends every solved variable to its
    expression in the unsolved ones, and divided by the assumptions.  An
    equation that reduces to zero is dropped, and one that reduces to a
    nonzero constant raises InconsistentSystemError.  Any other is solved
    for the first unsolved unknown, in priority order, whose coefficient
    in it is a constant; when there is none, NonLinearStepError carries
    the trace so far and the equation's label.

    Only a constant pivot is taken, and that loses nothing a pivot made
    of declared unknowns would give.  In an equation c1*x + c0, c1 is free
    of x, so a declared unknown t dividing c1 is not x.  If c1 divided c0,
    t would divide the equation, which has already been divided by t as
    far as it goes; so a pivot that divides its rest has no declared
    unknown as a factor, and with only the declared unknowns known to be
    nonzero it is invertible only when it is a constant.

    A new step x = e (e in the unsolved variables) is substituted into the
    map's values before it is added, so the values never mention a solved
    variable and the simultaneous substitution equals replaying the steps
    in order (module docstring).  The map is the trace's resolved field.
    """
    stray = [name for name in assumptions if name not in unknowns]
    if stray:
        raise ValueError(f"assumptions {stray} are not unknowns")
    trace = EliminationTrace(assumptions=tuple(assumptions))
    unsolved = set(unknowns)
    resolved = trace.resolved
    for label, eq in system:
        raw = eq.substitute_all(resolved)
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
        for v, e in resolved.items():
            resolved[v] = e.substitute_all({name: expr})
        resolved[name] = expr
        unsolved.discard(name)
    trace.free_vars = tuple(v for v in unknowns if v in unsolved)
    return trace
