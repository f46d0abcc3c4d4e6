"""Sparse multivariate polynomials over Q and sequential linear elimination.

MultiPoly stores {exponent tuple: Fraction} over a fixed, ordered variable
tuple shared by every polynomial of one system; zero coefficients are never
stored.  A polynomial in z whose coefficients are MultiPolys (an
indeterminate-coefficient polynomial such as z^m + a_{m-1} z^{m-1} + ...)
is an exact.UniPoly over this ring.

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
from fractions import Fraction
from operator import add

from .exact import UniPoly, _Record, binary_power

Expo = tuple[int, ...]
RationalLike = int | Fraction


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

    def substitute_all(self, mapping: Mapping[str, "MultiPoly | RationalLike"]
                       ) -> "MultiPoly":
        """Replace several variables at once, each by a polynomial (or
        constant), and renormalize; self when none of them occurs.

        The replacements are simultaneous: a variable of the mapping that
        occurs in a replacement is not replaced again.  Terms are grouped by
        their exponents on the replaced variables, and each group is
        multiplied by one product of the replacements' powers, which are
        computed once per call."""
        vs = self.vars
        occurs = [any(col) for col in zip(*self.terms)] or [False] * len(vs)
        subs: list[tuple[int, MultiPoly]] = []
        for name, r in mapping.items():
            if isinstance(r, (int, Fraction)):
                r = MultiPoly.const(vs, r)
            self._check(r)
            i = vs.index(name)
            if occurs[i]:
                subs.append((i, r))
        if not subs:
            return self
        groups: dict[Expo, dict[Expo, Fraction]] = {}
        for expo, c in self.terms.items():
            stripped = list(expo)
            for i, _ in subs:
                stripped[i] = 0
            groups.setdefault(tuple(expo[i] for i, _ in subs), {})[tuple(stripped)] = c
        one = MultiPoly.const(vs, 1)
        powers = [[one, r] for _, r in subs]    # powers[j][p] = r_j^p
        out: dict[Expo, Fraction] = {}
        for key, part in groups.items():
            factor = one
            for cached, p in zip(powers, key):
                if p:
                    while len(cached) <= p:
                        cached.append(cached[-1] * cached[1])
                    factor = cached[p] if factor is one else factor * cached[p]
            for ea, ca in part.items():
                for eb, cb in factor.terms.items():
                    e = tuple(map(add, ea, eb))
                    s = out.get(e, 0) + ca * cb
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
        return MultiPoly._trusted(vs, out)

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

    def evaluate(self, free_assignments: Mapping[str, RationalLike]) -> dict[str, Fraction]:
        """Concrete values for every variable given values of the free
        ones: the free ones, then the solved ones in step order."""
        values = {name: Fraction(v) for name, v in free_assignments.items()}
        values.update({name: e.evaluate(values) for name, e in self.resolved.items()})
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
        m = min((expo[i] for expo in eq.terms), default=0)
        if m:
            eq = MultiPoly._trusted(eq.vars, {
                expo[:i] + (expo[i] - m,) + expo[i + 1:]: c
                for expo, c in eq.terms.items()})
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
                return name, eq.coefficient_in(name, 0).scale(
                    Fraction(-1) / c1.constant_value())
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
