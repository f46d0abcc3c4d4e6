"""Belyi-pair model: passports, factored Belyi functions, fullerene counts.

A genus-zero Belyi function is kept in fully factored shape: a scalar k, the
monic squarefree factors of its zeros (with exponents), of the zeros of
beta - 1, and of its poles, plus the order of the point at infinity tagged
with the critical class it belongs to.  verify() certifies the factored data
against the defining polynomial identity and reads off the passport.

Connectedness of the underlying graph is not checked; every function shipped
here comes from a known spherical graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .exact import (GaussRat, RationalMap, UniPoly, _cleared_identity,
                    _coprime_given, _natural, _Record, _reduce_mod_p,
                    _squarefree_given, squarefree_decomposition)

Factors = tuple[tuple[UniPoly, int], ...]

INFINITY_SIDES = ("zero", "one", "pole", "none")


class BelyiVerificationError(ValueError):
    """A factored Belyi function failed certification."""


class BelyiFormatError(ValueError):
    """A belyi v1 document is malformed."""


class IdentityFailed(BelyiVerificationError):
    pass


class FactorNotSquarefree(BelyiVerificationError):
    pass


class FactorsShareRoot(BelyiVerificationError):
    pass


class DegreeImbalance(BelyiVerificationError):
    pass


class Passport(_Record, frozen=True):
    """Branching partitions over 0 (black), 1 (white) and infinity (faces)."""

    black: tuple[int, ...]
    white: tuple[int, ...]
    faces: tuple[int, ...]

    @staticmethod
    def of(black, white, faces) -> "Passport":
        return Passport(tuple(sorted(black, reverse=True)),
                        tuple(sorted(white, reverse=True)),
                        tuple(sorted(faces, reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.black)

    @property
    def is_balanced(self) -> bool:
        return sum(self.black) == sum(self.white) == sum(self.faces)

    def __str__(self) -> str:
        # groups print by descending multiplicity, ties by descending part:
        # (5^12 6^2) but (5^1 1^1)
        def side(parts: tuple[int, ...]) -> str:
            runs: dict[int, int] = {}
            for p in parts:
                runs[p] = runs.get(p, 0) + 1
            ordered = sorted(runs.items(), key=lambda kv: (-kv[1], -kv[0]))
            return " ".join(f"{p}^{m}" for p, m in ordered)

        return f"({side(self.black)} | {side(self.white)} | {side(self.faces)})"


class FullereneParams(_Record, frozen=True):
    """Face vector and dessin size of the trivalent 5/6-gonal polyhedron
    with p6 hexagons."""

    p6: int
    f0: int
    f1: int
    f2: int
    n_dessin_edges: int
    realizable: bool


def face_vector(p6: int) -> FullereneParams:
    """f0 = 20+2*p6, f1 = 30+3*p6, f2 = 12+p6, and 6*f1 dessin darts.

    p6 = 1 is flagged non-realizable; the derivation module proves it.
    """
    if p6 < 0:
        raise ValueError("hexagon count must be nonnegative")
    return FullereneParams(
        p6=p6, f0=20 + 2 * p6, f1=30 + 3 * p6, f2=12 + p6,
        n_dessin_edges=60 + 6 * p6, realizable=(p6 != 1))


# a passport lists its 6*p6 + 62 parts one by one, so p6 is capped before
# anything is allocated; face_vector and counting are O(1) and stay unbounded
MAX_PASSPORT_P6 = 10 ** 6


def fullerene_passport(p6: int) -> Passport:
    """(3^(2n) | 2^(3n) | 5^12 6^(n-10)) with n = 10 + p6, for
    0 <= p6 <= MAX_PASSPORT_P6."""
    if p6 < 0:
        raise ValueError("hexagon count must be nonnegative")
    if p6 > MAX_PASSPORT_P6:
        raise ValueError(f"hexagon count {p6} exceeds {MAX_PASSPORT_P6}: the "
                         "passport would list 6*p6 + 62 parts")
    n = 10 + p6
    return Passport.of([3] * (2 * n), [2] * (3 * n), [5] * 12 + [6] * p6)


def counting(p6: int) -> tuple[int, int, int]:
    """(unknown count, equation count, excess) for the factored-form system;
    the excess is always 3, the dimension of the Moebius group."""
    if p6 < 0:
        raise ValueError("hexagon count must be nonnegative")
    unknowns = 1 + (20 + 2 * p6) + 12 + p6 + (31 + 3 * p6)
    equations = 1 + 2 * (30 + 3 * p6)
    return unknowns, equations, unknowns - equations


def main_equation_residual(k: GaussRat | Fraction | int, V: UniPoly, P: UniPoly,
                           H: UniPoly, M: UniPoly) -> UniPoly:
    """k*(V^3 - M^2) - P^5*H^6; identically zero exactly when (V, P, H, M, k)
    define a fullerene Belyi function beta = k*V^3/(P^5*H^6) with
    beta - 1 = k*M^2/(P^5*H^6)."""
    k = GaussRat.coerce(k)
    return (V ** 3 - M ** 2).scale(k) - P ** 5 * H ** 6


def _degree_of(factors: Factors) -> int:
    return sum(f.degree * e for f, e in factors)


def _product(factors: Factors) -> UniPoly:
    return reduce(lambda acc, fe: acc * fe[0] ** fe[1], factors, UniPoly.one())


def merge_by_exponent(factors) -> Factors:
    """The factors sharing an exponent multiplied together, in ascending
    order of exponent: the shape squarefree_decomposition returns."""
    merged: dict[int, UniPoly] = {}
    for f, e in factors:
        merged[e] = merged[e] * f if e in merged else f
    return tuple((merged[e], e) for e in sorted(merged))


def _normalize_factors(factors) -> Factors:
    out = []
    for f, e in factors:
        if not isinstance(f, UniPoly) or f.is_zero or f.degree < 1:
            raise ValueError("factors must be nonconstant polynomials")
        if e < 1:
            raise ValueError("factor exponents must be positive")
        out.append((f, int(e)))
    return tuple(out)


class FactoredBelyi(_Record, frozen=True):
    """beta = k * prod(zero_factors) / prod(pole_factors), with
    beta - 1 vanishing exactly on prod(one_factors); all factors monic
    and squarefree, infinity tagged with its critical class and order."""

    k: GaussRat
    zero_factors: Factors
    one_factors: Factors
    pole_factors: Factors
    infinity_side: str
    infinity_order: int

    def __post_init__(self):
        if self.infinity_side not in INFINITY_SIDES:
            raise ValueError(f"unknown infinity tag {self.infinity_side!r}")
        if self.infinity_side == "none" and self.infinity_order:
            raise ValueError("untagged infinity cannot carry an order")
        if self.infinity_side != "none" and self.infinity_order < 1:
            raise ValueError("tagged infinity needs a positive order")
        object.__setattr__(self, "zero_factors", _normalize_factors(self.zero_factors))
        object.__setattr__(self, "one_factors", _normalize_factors(self.one_factors))
        object.__setattr__(self, "pole_factors", _normalize_factors(self.pole_factors))

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_ratmap(f: RationalMap) -> "FactoredBelyi":
        """Factor a rational map into Belyi shape via squarefree splitting.

        This is how the degree-6 function and maps given by users enter;
        the composed presets are built factor by factor (substitute_power
        and moebius.factored_compose_moebius), and tests hold them to this
        reference.  Factors of equal multiplicity come out merged (their
        product is squarefree); passports are insensitive to that.
        """
        w = f.one_numerator()
        if w.is_zero:
            raise ValueError("the constant function 1 is not a Belyi function")
        zero_factors = tuple(squarefree_decomposition(f.num))
        pole_factors = tuple(squarefree_decomposition(f.den))
        one_factors = tuple(squarefree_decomposition(w))
        side, order = _infinity_from_degrees(f.k, f.num.degree, f.den.degree,
                                             w.degree)
        return FactoredBelyi(f.k, zero_factors, one_factors, pole_factors,
                             side, order)

    def substitute_power(self, n: int) -> "FactoredBelyi":
        """beta(z^n), factor by factor.

        A factor f with f(0) != 0 becomes f(z^n) with the same exponent:
        (f(z^n))' = n*z^(n-1)*f'(z^n) keeps it squarefree, and the roots
        of different factors lift to disjoint sets of n-th roots, so the
        factors stay coprime.  A factor z*g gives z with n times its
        exponent and g(z^n) with its own, and the order at infinity is
        multiplied by n.  Factors sharing an exponent are then merged, so
        the result is what from_ratmap returns for the substituted map.
        """
        if n < 1:
            raise ValueError("power substitution needs n >= 1")

        def lift(factors: Factors) -> Factors:
            out = []
            for f, e in factors:
                if f.coefficient(0).is_zero:
                    out.append((UniPoly.x(), n * e))
                    f = UniPoly(f.coeffs[1:])
                    if f.degree == 0:
                        continue
                out.append((f.substitute_power(n), e))
            return merge_by_exponent(out)

        return FactoredBelyi(self.k, lift(self.zero_factors),
                             lift(self.one_factors), lift(self.pole_factors),
                             self.infinity_side, self.infinity_order * n)

    def to_ratmap(self) -> RationalMap:
        return RationalMap(self.k, _product(self.zero_factors),
                           _product(self.pole_factors))

    # -- structure ---------------------------------------------------------

    def _side_sum(self, factors: Factors, side: str) -> int:
        total = _degree_of(factors)
        if self.infinity_side == side:
            total += self.infinity_order
        return total

    @property
    def degree(self) -> int:
        return self._side_sum(self.zero_factors, "zero")

    def _parts(self, factors: Factors, side: str) -> list[int]:
        parts: list[int] = []
        for f, e in factors:
            parts.extend([e] * f.degree)
        if self.infinity_side == side:
            parts.append(self.infinity_order)
        return parts

    def passport(self) -> Passport:
        return Passport.of(self._parts(self.zero_factors, "zero"),
                           self._parts(self.one_factors, "one"),
                           self._parts(self.pole_factors, "pole"))

    # -- certification ------------------------------------------------------

    def verify(self) -> Passport:
        """Certify the factored data and return the passport.

        Checks, in this order: every factor monic and squarefree; all
        factors pairwise coprime; the three side degrees balance, including
        the infinity contribution; the identity k*Z - Q = c*O for the
        declared one-side product O (c a nonzero scalar); and the infinity
        tag against the degrees of Z, Q and k*Z - Q.

        Everything runs on integers.  Each factor is reduced modulo the
        prime ideal J = (p, i - r) once; its squarefreeness (the reduction
        against its derivative in F_p) and its coprimality with every other
        factor are certified on those reductions, with the exact poly_gcd
        where the certificate is inconclusive (exact module docstring).
        The identity is checked cross-multiplied in Z[i]: with every
        factor f cleared to g_f/d_f, k = kappa/d_k, G_Z = prod g_f^e and
        D_Z = prod d_f^e (likewise for Q and O), k*Z - Q is
        W/(d_k*D_Z*D_Q) for W = kappa*G_Z*D_Q - d_k*D_Z*G_Q, and
        k*Z - Q = c*O with O = G_O/D_O monic holds iff W != 0,
        deg W = deg O and D_O*W = lead(W)*G_O coefficient by coefficient.
        W and G_O are one packed sum each ("Packed sums" in the exact
        module docstring).  The side sums come before the products, so an
        unbalanced document costs nothing of its degree.
        """
        all_factors = (self.zero_factors + self.one_factors + self.pole_factors)
        reductions = []
        for f, _ in all_factors:
            if not f.is_monic:
                raise FactorNotSquarefree(f"factor {f} is not monic")
            reductions.append(_reduce_mod_p(f))
            if not _squarefree_given(f, reductions[-1]):
                raise FactorNotSquarefree(f"factor {f} has a repeated root")
        for i in range(len(all_factors)):
            for j in range(i + 1, len(all_factors)):
                a, b = all_factors[i][0], all_factors[j][0]
                if not _coprime_given(a, reductions[i], b, reductions[j]):
                    raise FactorsShareRoot(f"factors {a} and {b} share a root")

        n = self.degree
        if self._side_sum(self.one_factors, "one") != n:
            raise DegreeImbalance(
                f"one side sums to {self._side_sum(self.one_factors, 'one')}, "
                f"zero side to {n}")
        if self._side_sum(self.pole_factors, "pole") != n:
            raise DegreeImbalance(
                f"pole side sums to {self._side_sum(self.pole_factors, 'pole')}, "
                f"zero side to {n}")

        deg_w, mismatch = _cleared_identity(self.k, self.zero_factors,
                                            self.pole_factors, self.one_factors)
        if deg_w is None:
            raise IdentityFailed("k*zeros - poles collapsed to zero")
        if mismatch:
            got, declared = mismatch
            raise IdentityFailed(
                "k*zeros - poles does not factor as declared: "
                f"got {got}, declared {declared}")

        # infinity order must match what the numerator/denominator degrees say
        expected_side, expected_order = _infinity_from_degrees(
            self.k, _degree_of(self.zero_factors),
            _degree_of(self.pole_factors), deg_w)
        if (expected_side, expected_order) != (self.infinity_side, self.infinity_order):
            raise DegreeImbalance(
                f"infinity tagged {self.infinity_side}^{self.infinity_order}, "
                f"degrees give {expected_side}^{expected_order}")
        return self.passport()

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = ["belyi v1", f"k {self.k.to_token()}"]
        if self.infinity_side != "none":
            lines.append(f"infinity {self.infinity_side} {self.infinity_order}")
        for side, factors in (("zero", self.zero_factors),
                              ("one", self.one_factors),
                              ("pole", self.pole_factors)):
            for f, e in factors:
                lines.append(f"{side} {e} " + " ".join(f.to_tokens()))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "FactoredBelyi":
        """Parse a belyi v1 document; any malformed line, or a document
        that does not describe a factored function, raises BelyiFormatError."""
        k = None
        side_tag, order = "none", 0
        factors: dict[str, list[tuple[UniPoly, int]]] = {
            "zero": [], "one": [], "pole": []}
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "belyi v1":
            raise BelyiFormatError("not a belyi v1 document")
        for ln in lines[1:]:
            fields = ln.split()
            try:
                if fields[0] == "k" and len(fields) == 2:
                    k = GaussRat.from_token(fields[1])
                elif fields[0] == "infinity" and len(fields) == 3:
                    side_tag, order = fields[1], _natural(fields[2])
                elif fields[0] in factors and len(fields) >= 3:
                    factors[fields[0]].append(
                        (UniPoly.from_tokens(fields[2:]), _natural(fields[1])))
                else:
                    raise ValueError("unknown line or wrong field count")
            except (ValueError, ZeroDivisionError) as exc:
                raise BelyiFormatError(f"bad belyi line {ln!r}: {exc}") from exc
        if k is None:
            raise BelyiFormatError("belyi document is missing the scalar k")
        try:
            return FactoredBelyi(k, tuple(factors["zero"]), tuple(factors["one"]),
                                 tuple(factors["pole"]), side_tag, order)
        except ValueError as exc:
            raise BelyiFormatError(str(exc)) from exc


def _infinity_from_degrees(k: GaussRat, dn: int, dd: int,
                           dw: int) -> tuple[str, int]:
    """Critical class and order of infinity for beta = k*Z/Q with
    deg Z = dn, deg Q = dd and deg(k*Z - Q) = dw."""
    if dn > dd:
        return "pole", dn - dd
    if dn < dd:
        return "zero", dd - dn
    if k == GaussRat.of(1):
        # beta(inf) = 1: order of vanishing of beta - 1 at infinity
        return "one", dd - dw
    return "none", 0
