"""Sparse multivariate polynomials over Q and sequential linear elimination.

MultiPoly stores {exponent tuple: Fraction} over a fixed, ordered variable
tuple shared by every polynomial of one system; zero coefficients are never
stored.  A polynomial in z whose coefficients are MultiPolys (an
indeterminate-coefficient polynomial such as z^m + a_{m-1} z^{m-1} + ...)
is an exact.UniPoly over this ring.

The elimination engine walks a list of equations (by convention the
z-coefficients of some identity, highest degree first), repeatedly
substitutes everything solved so far, divides out factors that the caller
has declared nonzero, and solves each surviving equation for the
highest-priority unknown in which it is linear with an invertible
coefficient.  The full history is kept in an EliminationTrace so that runs
are replayable and reportable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .exact import UniPoly, _Record, binary_power

Expo = tuple[int, ...]
RationalLike = int | Fraction


class NonDivisibleError(ArithmeticError):
    """Exact multivariate division failed; usually a wrong nonzero assumption."""


class MultiPoly:
    """Sparse polynomial over Q in a fixed ordered set of named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Expo, RationalLike] | None = None):
        vs = tuple(variables)
        cleaned: dict[Expo, Fraction] = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            if len(expo) != len(vs):
                raise ValueError("exponent arity does not match variable set")
            cleaned[tuple(expo)] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _trusted(cls, vs: tuple[str, ...], terms: dict[Expo, Fraction]) -> "MultiPoly":
        """Wrap terms that are already nonzero Fractions with full-arity
        keys, as every arithmetic result is, skipping the cleaning."""
        out = object.__new__(cls)
        object.__setattr__(out, "vars", vs)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def const(variables: Sequence[str], c: RationalLike) -> "MultiPoly":
        vs = tuple(variables)
        return MultiPoly(vs, {(0,) * len(vs): Fraction(c)})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        expo = [0] * len(vs)
        expo[vs.index(name)] = 1
        return MultiPoly(vs, {tuple(expo): Fraction(1)})

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("operands use different variable sets")

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def coefficient_in(self, name: str, power: int) -> "MultiPoly":
        """Collect the coefficient of name**power (a MultiPoly without name)."""
        i = self.vars.index(name)
        out: dict[Expo, Fraction] = {}
        for expo, c in self.terms.items():
            if expo[i] == power:
                reduced = list(expo)
                reduced[i] = 0
                out[tuple(reduced)] = c
        return MultiPoly(self.vars, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return not self.is_zero

    __hash__ = None  # mutable-dict backed; identity hashing would mislead

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, 0) + c
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return MultiPoly._trusted(self.vars, out)

    def __radd__(self, other: RationalLike) -> "MultiPoly":
        """rational + polynomial, e.g. 1 + zero for the ring's one."""
        return MultiPoly.const(self.vars, other) + self

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Expo, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(expo, 0) + ca * cb
                if s:
                    out[expo] = s
                else:
                    out.pop(expo, None)
        return MultiPoly._trusted(self.vars, out)

    def __rmul__(self, other) -> "MultiPoly":
        return self * other

    def scale(self, s: RationalLike) -> "MultiPoly":
        s = Fraction(s)
        if not s:
            return MultiPoly.zero(self.vars)
        return MultiPoly._trusted(self.vars, {e: c * s for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        return binary_power(self, n, MultiPoly.const(self.vars, 1))

    def substitute(self, name: str, replacement: "MultiPoly | RationalLike") -> "MultiPoly":
        """Replace one variable by a polynomial (or constant) and renormalize."""
        if isinstance(replacement, (int, Fraction)):
            replacement = MultiPoly.const(self.vars, replacement)
        self._check(replacement)
        i = self.vars.index(name)
        if not any(e[i] for e in self.terms):
            return self
        powers: dict[int, MultiPoly] = {0: MultiPoly.const(self.vars, 1)}
        maxp = max((e[i] for e in self.terms), default=0)
        for p in range(1, maxp + 1):
            powers[p] = powers[p - 1] * replacement
        out: dict[Expo, Fraction] = {}
        for expo, c in self.terms.items():
            stripped = expo[:i] + (0,) + expo[i + 1:]
            for ep, cp in powers[expo[i]].terms.items():
                e = tuple(x + y for x, y in zip(stripped, ep))
                s = out.get(e, 0) + c * cp
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly._trusted(self.vars, out)

    def evaluate(self, assignments: Mapping[str, RationalLike]) -> Fraction:
        idx = {name: self.vars.index(name) for name in assignments}
        total = Fraction(0)
        for expo, c in self.terms.items():
            t = c
            for pos, e in enumerate(expo):
                if not e:
                    continue
                name = self.vars[pos]
                if name not in assignments:
                    raise ValueError(f"no value for variable {name}")
                t *= Fraction(assignments[name]) ** e
            total += t
        return total

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division, lex order; raises NonDivisibleError otherwise."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        lead_d = max(divisor.terms)
        cd = divisor.terms[lead_d]
        q: dict[Expo, Fraction] = {}
        r = self
        while not r.is_zero:
            lead_r = max(r.terms)
            expo = tuple(x - y for x, y in zip(lead_r, lead_d))
            if any(e < 0 for e in expo):
                raise NonDivisibleError(f"({divisor}) does not divide ({self})")
            c = r.terms[lead_r] / cd
            q[expo] = c
            r = r - MultiPoly(self.vars, {expo: c}) * divisor
        return MultiPoly(self.vars, q)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, expo) if e)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
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
    """No remaining equation is linear in any unsolved unknown.

    Carries the partial trace and the offending equation labels so the
    failure can be inspected.
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
    under earlier substitutions) was divided by the recorded assumption
    factors and solved for `variable` = `substitution`."""

    label: int
    equation: MultiPoly
    divided_by: tuple[tuple[MultiPoly, int], ...]
    variable: str
    substitution: MultiPoly


class EliminationTrace(_Record):
    steps: list[EliminationStep] = list
    assumptions: tuple[MultiPoly, ...] = ()
    free_vars: tuple[str, ...] = ()

    def substitution_for(self, name: str) -> MultiPoly:
        for step in self.steps:
            if step.variable == name:
                return step.substitution
        raise KeyError(name)

    def apply(self, p: MultiPoly) -> MultiPoly:
        """Substitute every solved variable, in recorded order."""
        for step in self.steps:
            p = p.substitute(step.variable, step.substitution)
        return p

    def apply_param(self, p: UniPoly,
                    resolved: Mapping[str, MultiPoly] | None = None) -> UniPoly:
        """apply() on every coefficient of a polynomial in z over MultiPoly.

        A coefficient that is a single variable (every nonconstant
        coefficient of the ODE's P) is read off resolved, which is
        resolved_substitutions() and is computed here when not passed;
        any other coefficient goes through apply()."""
        if resolved is None:
            resolved = self.resolved_substitutions()

        def resolve(c: MultiPoly) -> MultiPoly:
            if len(c.terms) == 1:
                (expo, coeff), = c.terms.items()
                if coeff == 1 and sum(expo) == 1:
                    return resolved.get(c.vars[expo.index(1)], c)
            return self.apply(c)

        return p.map_coeffs(resolve)

    def resolved_substitutions(self) -> dict[str, MultiPoly]:
        """Each solved variable expressed purely in the free variables."""
        out: dict[str, MultiPoly] = {}
        for i, step in enumerate(self.steps):
            expr = step.substitution
            for later in self.steps[i + 1:]:
                expr = expr.substitute(later.variable, later.substitution)
            out[step.variable] = expr
        return out

    def evaluate(self, free_assignments: Mapping[str, RationalLike]) -> dict[str, Fraction]:
        """Concrete values for every variable given values of the free ones.

        Steps are evaluated in reverse order: a step's expression only
        mentions free variables and variables solved at later steps.
        """
        values: dict[str, Fraction] = {
            name: Fraction(v) for name, v in free_assignments.items()}
        for step in reversed(self.steps):
            values[step.variable] = step.substitution.evaluate(values)
        return values

    def to_report(self) -> dict:
        return {
            "assumptions": [str(a) for a in self.assumptions],
            "free_variables": list(self.free_vars),
            "steps": [
                {
                    "z_degree": s.label,
                    "equation": str(s.equation),
                    "divided_by": [
                        {"factor": str(f), "power": p} for f, p in s.divided_by],
                    "variable": s.variable,
                    "substitution": str(s.substitution),
                }
                for s in self.steps
            ],
        }


def _divide_assumptions(eq: MultiPoly, assumptions: Sequence[MultiPoly]
                        ) -> tuple[MultiPoly, tuple[tuple[MultiPoly, int], ...]]:
    divided = []
    for f in assumptions:
        count = 0
        while not eq.is_zero:
            try:
                eq = eq.divide_exact(f)
            except NonDivisibleError:
                break
            count += 1
        if count:
            divided.append((f, count))
    return eq, tuple(divided)


def _pick_linear_unknown(eq: MultiPoly, unknowns: Sequence[str],
                         unsolved: set[str], assumptions: Sequence[MultiPoly],
                         ) -> tuple[str, MultiPoly] | None:
    """First unknown (in priority order) with degree one and an invertible
    coefficient; returns (name, substitution expression)."""
    for name in unknowns:
        if name not in unsolved:
            continue
        if eq.degree_in(name) != 1:
            continue
        c1 = eq.coefficient_in(name, 1)
        c0 = eq.coefficient_in(name, 0)
        if c1.is_constant:
            return name, c0.scale(Fraction(-1) / c1.constant_value())
        # nonconstant coefficient: invertible only when it is a constant
        # times registered-nonzero factors, and it must divide the rest
        # exactly so the substitution stays polynomial
        stripped, _ = _divide_assumptions(c1, assumptions)
        if not stripped.is_constant:
            continue
        try:
            return name, -c0.divide_exact(c1)
        except NonDivisibleError:
            continue
    return None


def sequential_linear_solve(system: Sequence[tuple[int, MultiPoly]],
                            unknowns: Sequence[str],
                            assumptions: Sequence[MultiPoly] = (),
                            ) -> EliminationTrace:
    """Solve a triangular-by-luck polynomial system one linear step at a time.

    system      -- (z-degree label, equation) pairs, highest degree first.
    unknowns    -- variable names in solving priority (first wins when an
                   equation is linear in several).
    assumptions -- factors declared nonzero; they are divided out of every
                   reduced equation to maximal power and recorded.

    Equations that reduce to zero are dropped; an equation reducing to a
    nonzero constant raises InconsistentSystemError; if a full pass over the
    remaining equations solves nothing, NonLinearStepError carries the trace.
    """
    trace = EliminationTrace(assumptions=tuple(assumptions))
    unsolved = set(unknowns)
    remaining = list(system)
    while remaining:
        progressed = False
        leftover: list[tuple[int, MultiPoly]] = []
        for label, eq in remaining:
            raw = trace.apply(eq)
            reduced, divided = _divide_assumptions(raw, assumptions)
            if reduced.is_zero:
                progressed = True
                continue
            if reduced.is_constant:
                raise InconsistentSystemError(label, reduced.constant_value())
            pick = _pick_linear_unknown(reduced, unknowns, unsolved, assumptions)
            if pick is None:
                leftover.append((label, eq))
                continue
            name, expr = pick
            trace.steps.append(EliminationStep(
                label=label, equation=raw, divided_by=divided,
                variable=name, substitution=expr))
            unsolved.discard(name)
            progressed = True
        if not progressed:
            trace.free_vars = tuple(v for v in unknowns if v in unsolved)
            raise NonLinearStepError(trace, [label for label, _ in leftover])
        remaining = leftover
    trace.free_vars = tuple(v for v in unknowns if v in unsolved)
    return trace
