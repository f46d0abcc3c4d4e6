"""Belyi-pair model: passports, factored Belyi functions, fullerene counts.

A genus-zero Belyi function is kept in fully factored shape: a scalar k, the
monic squarefree factors of its zeros (with exponents), of the zeros of
beta - 1, and of its poles, plus the order of the point at infinity tagged
with the critical class it belongs to.  These are its three sides, the
fibres over 0, 1 and infinity; SIDES names them in the one order that
construction, the pull-back, the fibres and the belyi v1 text all walk.
verify() certifies the factored data against the defining polynomial
identity and reads off the passport.

Connectedness of the underlying graph is not checked; every function shipped
here comes from a known spherical graph.
"""

from __future__ import annotations

from functools import reduce
from math import gcd

from .exact import (ONE, ZERO, GaussRat, RationalMap, UniPoly, _cleared_identity,
                    _form_of, _natural, _quote, _Record, binary_power, coprime,
                    first_equal_pair, is_squarefree, squarefree_decomposition)

Factors = tuple[tuple[UniPoly, int], ...]

# the three sides of a factored Belyi function, the fibres over 0, 1 and
# infinity, in the one order every walk over them takes
SIDES = ("zero", "one", "pole")
INFINITY_SIDES = (*SIDES, "none")


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


# a message shows a polynomial of at most this many characters, and an
# integer of at most this many bits; longer ones it names by their size
_SHOWN_CHARS = 200
_SHOWN_BITS = 200


def _show(f: UniPoly) -> str:
    """f as a message shows it: str(f) when that is at most _SHOWN_CHARS
    characters, else its degree and the largest bit length of a numerator
    or denominator of its coefficients.  str(f) prints every such integer
    above 1, and a b-bit one with at least (b-1)*0.301 + 1 digits; when
    those digits alone exceed _SHOWN_CHARS, so does str(f), and f is named
    without converting a long integer to decimal.  The sizes are read from
    f's cleared form (d, re, im), one gcd per nonzero part x/d, so f's
    coefficients are built only for the text."""
    d, re, im = _form_of(f)
    bits = []
    for x in re + im:
        if x:
            g = gcd(x, d)
            bits += (x // g).bit_length(), (d // g).bit_length()
    if sum((b - 1) * 301 // 1000 + 1 for b in bits if b > 1) <= _SHOWN_CHARS:
        text = str(f)
        if len(text) <= _SHOWN_CHARS:
            return text
    return f"<degree {f.degree} polynomial, coefficients up to {max(bits)} bits>"


def _show_int(n: int) -> str:
    """n in decimal, or its bit length when it has more than _SHOWN_BITS."""
    return str(n) if n.bit_length() <= _SHOWN_BITS else f"<{n.bit_length()}-bit integer>"


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
        if not isinstance(f, UniPoly) or f.is_zero or f.degree == 0:
            raise ValueError("factors must be nonconstant polynomials")
        if not f.is_monic:
            raise ValueError(f"factor {_show(f)} is not monic")
        if e < 1:
            raise ValueError("factor exponents must be positive")
        out.append((f, int(e)))
    return tuple(out)


class FactoredBelyi(_Record, frozen=True):
    """beta = k * prod(zero_factors) / prod(pole_factors), with
    beta - 1 vanishing exactly on prod(one_factors), and infinity tagged
    with its critical class and order.  The field of side s is
    s_factors, and every walk over the sides (_sides) takes them in
    SIDES order.  Every factor is a nonconstant monic polynomial with a
    positive exponent: construction refuses any other (ValueError, which
    from_text names as a BelyiFormatError).  verify() certifies that the
    factors are squarefree and the rest."""

    k: GaussRat
    zero_factors: Factors
    one_factors: Factors
    pole_factors: Factors
    infinity_side: str
    infinity_order: int

    def __post_init__(self):
        if self.infinity_side not in INFINITY_SIDES:
            raise ValueError(f"unknown infinity tag {_quote(self.infinity_side)}")
        if self.infinity_side == "none" and self.infinity_order:
            raise ValueError("untagged infinity cannot carry an order")
        if self.infinity_side != "none" and self.infinity_order < 1:
            raise ValueError("tagged infinity needs a positive order")
        for side, factors in self._sides():
            object.__setattr__(self, f"{side}_factors", _normalize_factors(factors))

    def _sides(self):
        """(side, factors) for each side, in SIDES order."""
        return ((side, getattr(self, f"{side}_factors")) for side in SIDES)

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
        polys = (f.num, w, f.den)  # in SIDES order
        return FactoredBelyi(f.k, *(tuple(squarefree_decomposition(p)) for p in polys),
                             *_infinity_from_degrees(*(p.degree for p in polys)))

    def substitute_power(self, n: int) -> "FactoredBelyi":
        """beta(z^n), factor by factor (_pull_back).

        A factor f with f(0) != 0 becomes f(z^n) with the same exponent:
        (f(z^n))' = n*z^(n-1)*f'(z^n) keeps it squarefree, and the roots
        of different factors lift to disjoint sets of n-th roots, so the
        factors stay coprime.  A factor z*g gives z with n times its
        exponent and g(z^n) with its own, and the order at infinity is
        multiplied by n.
        """
        if n < 1:
            raise ValueError("power substitution needs n >= 1")

        def lift(f):
            # f(z^n): f's coefficients set n apart, made a UniPoly once
            h = [ZERO] * ((len(f) - 1) * n + 1)
            h[::n] = f
            return UniPoly(h)

        return self._pull_back(n, lift)

    def _pull_back(self, m: int, pull) -> "FactoredBelyi":
        """beta(r(z)) factor by factor, for a map r of degree m whose only
        critical values are 0 and infinity (z -> z^n, or a Moebius map
        with m = 1), without multiplying the factors out.

        Each factor is a binary form f (its coefficients), and infinity
        joins its side as the form y, coefficients (1, 0), with the
        infinity order as its exponent.  pull(f) is the polynomial h of
        the pull-back of f by r, of degree m*deg f unless r sends infinity
        to a root of f: then f's side takes infinity, with e times the lost
        degree as its order, and no loss anywhere leaves infinity
        untagged.  A root of h at 0, of order j, becomes the factor z with
        exponent e*j, and the rest of h becomes monic with exponent e; its
        roots are the r-preimages of f's roots away from 0, so the factors
        stay squarefree and coprime.  k takes lead(h)^e on the zero side
        and 1/lead(h)^e on the pole side.  Factors sharing an exponent are
        then merged, so the result is what from_ratmap returns for the
        substituted map.
        """
        k, side, order = self.k, "none", 0
        sides = []
        for name, factors in self._sides():
            forms = [(f.coeffs, e) for f, e in factors]
            if name == self.infinity_side:
                forms.append(((ONE, ZERO), self.infinity_order))
            out = []
            for f, e in forms:
                h = pull(f)
                lost = m * (len(f) - 1) - h.degree
                if lost:
                    side, order = name, e * lost
                j = next(i for i, c in enumerate(h.coeffs) if c)
                if j:
                    out.append((UniPoly.x(), e * j))
                    h = UniPoly(h.coeffs[j:])
                if name != "one":
                    lead = binary_power(h.leading(), e, ONE)
                    k = k * lead if name == "zero" else k / lead
                if h.degree > 0:
                    out.append((h.monic(), e))
            sides.append(merge_by_exponent(out))
        return FactoredBelyi(k, *sides, side, order)

    def to_ratmap(self) -> RationalMap:
        return RationalMap(self.k, _product(self.zero_factors),
                           _product(self.pole_factors))

    # -- structure ---------------------------------------------------------

    def _fibres(self) -> list[list[int]]:
        """The declared parts over 0, 1 and infinity: each root of a factor
        gives the factor's exponent, and the tagged side also gets the
        order at infinity."""
        return [[e for f, e in factors for _ in range(f.degree)]
                + ([self.infinity_order] if side == self.infinity_side else [])
                for side, factors in self._sides()]

    @property
    def degree(self) -> int:
        return sum(self._fibres()[0])

    def passport(self) -> Passport:
        return Passport.of(*self._fibres())

    # -- certification ------------------------------------------------------

    def verify(self) -> Passport:
        """Certify that the factored data is a Belyi map, and return the
        passport.

        verify runs one ordered pass, cheapest check first, and each check
        names the fault it finds: (i) no two factors are equal; (ii) the
        three side degrees balance, including the infinity contribution;
        (iii) the fibres over 0, 1 and infinity hold at least the n + 2
        points of a degree-n map; (iv) the identity k*Z - Q = c*O for the
        declared one-side product O (c a nonzero scalar); then the accept:
        a tight document (below) whose zero factors are coprime to its
        pole factors returns its passport; (v) every factor is squarefree,
        and then all factors are pairwise coprime; (vi) the fibres hold no
        more than n + 2 points, so that beta is a Belyi map; and last,
        (vii) the degree n is at least 1, since a constant is no Belyi
        map.  The accept only skips (v)-(vii), which every document it
        accepts passes ((4) below), so its place changes no outcome.  The
        factors are monic by construction, so nothing here checks that.

        Everything runs on integers, and verify asks exact only about
        polynomials: coprime(f, g), is_squarefree(f), the first equal
        pair of factors (exact.first_equal_pair), the identity
        (exact._cleared_identity on k and the (factor, exponent) pairs)
        and f.degree.  How a factor is stored stays inside exact.  Every
        certificate there reads one cleared form per factor: f as g_f/d_f
        with g_f in Z[i][z] and d_f the lcm of its denominators, and k as
        kappa/d_k.  A factor from_text parsed holds its form from the
        token digits; any other gets it on first use and keeps it
        (exact._form_of).  Degrees and monicity are read from the forms
        too, so on the accept path a parsed factor builds no GaussRat
        coefficient: only the text of a short message (_show) and the
        exact poly_gcd fallback read them.  The squarefreeness of f (the
        reduction of g_f modulo the prime ideal J = (p, i - r) against its
        derivative in F_p) and its coprimality with every other factor are
        certified on the reductions of the forms, with the exact poly_gcd
        where the certificate is inconclusive (exact module docstring).  The
        identity is checked cross-multiplied in Z[i] on the same forms:
        with G_Z = prod g_f^e and D_Z = prod d_f^e
        (likewise for Q and O), k*Z - Q is W/(d_k*D_Z*D_Q) for
        W = kappa*G_Z*D_Q - d_k*D_Z*G_Q, and k*Z - Q = c*O with
        O = G_O/D_O monic holds iff W != 0, deg W = deg O and
        D_O*W = lead(W)*G_O coefficient by coefficient.  The test runs on
        W' = W/g, g the gcd of the parts of kappa*D_Q and d_k*D_Z: W' is
        integral, W' != 0 iff W != 0 and deg W' = deg W, and
        D_O*W' = lead(W')*G_O iff D_O*W = lead(W)*G_O, while a failure
        names W'/lead(W') = W/lead(W).  W' and G_O are one packed value
        each ("Packed sums" in the exact module docstring), at one width
        their products need rather than one inflated by the shared
        denominators.  A true identity is accepted by one comparison,
        W'(2^B) = c*G_O(2^B) with c = lead(W')/D_O read off the side
        degrees; only a document that comparison does not settle is
        unpacked and compared digit by digit.

        Only (v) runs the F_p Euclid of the certificates, quadratic in a
        factor's degree, so every fault the other checks can name is named
        before it runs.  (i) compares the cleared forms, which are
        canonical, in one pass (exact.first_equal_pair): two equal
        nonconstant factors share every root, so a factor repeated
        verbatim is a FactorsShareRoot, whatever else is wrong with the
        document.  No product is taken before (ii) and (iii), two bounds
        that cost nothing of the degree n, so an exponent bomb, whose
        factors are small, is refused before any product.  A degree-n map
        (n >= 1) has total ramification 2n - 2, so its fibres over 0, 1
        and infinity hold A >= 3n - (2n - 2) = n + 2 distinct points, with
        equality iff every critical value lies in {0, 1, infinity}, that
        is, iff the map is Belyi.  The declared count D is the sum of the
        factors' degrees, each counted once, plus one for a tagged
        infinity: the number of declared parts over 0, 1 and infinity,
        the same parts that give n, the side sums and the passport
        (_fibres); by (4) below, A <= D once the identity holds, so with
        D < n + 2 it cannot.  (iv) is one packed product per side, and a
        document whose identity fails never reaches (v).  (vi) comes after
        (v) because its message needs the certificates: with squarefree,
        pairwise coprime factors and a true identity A = D, and D > n + 2
        leaves a critical value outside {0, 1, infinity} (IdentityFailed).

        The accept.  A document is tight when its sides balance, k != 0
        and D = n + 2; n >= 1 follows, since balanced sides at n = 0 are
        empty and give D = 0.  Past (iv) a tight document has a true
        identity, so verify checks only the coprimality of each zero
        factor with each pole factor (Z and Q coprime); when it holds,
        that proves everything else.  Let beta = k*Z/Q:
        (1) Z and Q coprime, k != 0 and the balanced sums give
            deg beta = n, whatever the infinity tag: the larger of deg Z
            and deg Q is n.
        (2) A root shared by O and Z, or by O and Q, would be a root of
            both Z and Q, through k*Z - Q = c*O (k and c nonzero).  So the
            three sides are disjoint.
        (3) The side sums and the identity fix the order at infinity to
            the tag: a zero or pole tag of order o is deg Q - deg Z = o or
            deg Z - deg Q = o; a one tag has deg O = n - o < n, so
            beta - 1 = c*O/Q vanishes to order o there (and k = 1); an
            untagged infinity has deg O = n, so beta(inf) = k = 1 + c is
            none of 0, 1 and infinity.  So infinity lies in the fibres
            exactly when it is tagged, with the tagged order, and the
            infinity tag needs no check of its own.
        (4) The distinct finite points of the fibres are the distinct
            roots of Z, O and Q, disjoint by the zero-pole pairs and (2),
            and infinity is one of them iff tagged (3).  So A <= D, with
            equality iff each side's product of factors, exponents
            dropped, is squarefree.  Riemann-Hurwitz gives A >= n + 2 = D,
            so every factor is squarefree and same-side factors are
            coprime.
        Each guard is needed: without k != 0 or Z and Q coprime, (2)
        fails, and with D > n + 2 a repeated root fits in the count.

        A tight document that fails a zero-pole pair computes those pairs
        again in (v); only a document with a fault pays that.  No document
        gets past (i)-(vi) with n >= 1: it has squarefree, pairwise coprime
        factors, balanced sides, D = n + 2 and a true identity, so it is
        tight, and would have been accepted, unless k = 0.  And k = 0
        cannot balance: the identity then reads -Q = c*O, so the monic
        products Q and O of pairwise coprime factors are equal, hence both
        empty, and the one and pole sides sum to the infinity order on at
        most one of them and to 0 on the other, not both to n.  So the
        last check is reached only at n = 0.
        """
        all_factors = self.zero_factors + self.one_factors + self.pole_factors
        fibres = self._fibres()
        n = sum(fibres[0])
        points = sum(map(len, fibres))

        def shared_root(i: int, j: int) -> FactorsShareRoot:
            return FactorsShareRoot(f"factors {_show(all_factors[i][0])} and "
                                    f"{_show(all_factors[j][0])} share a root")

        equal = first_equal_pair([f for f, _ in all_factors])
        if equal:
            raise shared_root(*equal)
        for side, total in (("one", sum(fibres[1])), ("pole", sum(fibres[2]))):
            if total != n:
                raise DegreeImbalance(
                    f"{side} side sums to {_show_int(total)}, "
                    f"zero side to {_show_int(n)}")
        if n >= 1 and points < n + 2:
            raise IdentityFailed(
                f"k*zeros - poles cannot factor as declared: {points} points "
                f"over 0, 1 and infinity, a degree-{_show_int(n)} map has at "
                f"least {_show_int(n + 2)} (Riemann-Hurwitz)")
        mismatch = _cleared_identity(self.k, self.zero_factors,
                                     self.pole_factors, self.one_factors)
        if mismatch:
            got, declared = mismatch
            if got is None:
                raise IdentityFailed("k*zeros - poles collapsed to zero")
            raise IdentityFailed(
                "k*zeros - poles does not factor as declared: "
                f"got {_show(got)}, declared {_show(declared)}")
        if points == n + 2 and not self.k.is_zero and all(
                coprime(f, g) for f, _ in self.zero_factors
                for g, _ in self.pole_factors):
            # (3) of the docstring: the tag is the order the degrees give
            return Passport.of(*fibres)
        for f, _ in all_factors:
            if not is_squarefree(f):
                raise FactorNotSquarefree(f"factor {_show(f)} has a repeated root")
        for i in range(len(all_factors)):
            for j in range(i + 1, len(all_factors)):
                if not coprime(all_factors[i][0], all_factors[j][0]):
                    raise shared_root(i, j)
        if n >= 1 and points > n + 2:
            raise IdentityFailed(
                f"not a Belyi map: {points} points over 0, 1 and infinity, a "
                f"degree-{_show_int(n)} Belyi map has exactly {_show_int(n + 2)}, "
                "so beta would have a critical value outside 0, 1 and infinity "
                "(Riemann-Hurwitz)")
        raise DegreeImbalance("every side sums to 0: a Belyi map has "
                              "degree at least 1")

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = ["belyi v1", f"k {self.k.to_token()}"]
        if self.infinity_side != "none":
            lines.append(f"infinity {self.infinity_side} {self.infinity_order}")
        lines += [f"{side} {e} " + " ".join(f.to_tokens())
                  for side, factors in self._sides() for f, e in factors]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "FactoredBelyi":
        """Parse a belyi v1 document; any malformed line, a second k or
        infinity line, or a document that does not describe a factored
        function, raises BelyiFormatError."""
        k = None
        side_tag, order = "none", 0
        factors: dict[str, list[tuple[UniPoly, int]]] = {side: [] for side in SIDES}
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split() != ["belyi", "v1"]:
            raise BelyiFormatError("not a belyi v1 document")
        seen = set()
        for ln in lines[1:]:
            fields = ln.split()
            try:
                if fields[0] in ("k", "infinity") and fields[0] in seen:
                    raise ValueError(f"a second {fields[0]} line")
                seen.add(fields[0])
                if fields[0] == "k" and len(fields) == 2:
                    k = GaussRat.from_token(fields[1])
                elif fields[0] == "infinity" and len(fields) == 3:
                    side_tag, order = fields[1], _natural(fields[2])
                elif fields[0] in factors and len(fields) >= 3:
                    factors[fields[0]].append(
                        (UniPoly.from_tokens(fields[2:]), _natural(fields[1])))
                else:
                    raise ValueError("unknown line or wrong field count")
            except ValueError as exc:
                raise BelyiFormatError(f"bad belyi line {_quote(ln)}: {exc}") from exc
        if k is None:
            raise BelyiFormatError("belyi document is missing the scalar k")
        try:
            return FactoredBelyi(k, *(tuple(factors[side]) for side in SIDES),
                                 side_tag, order)
        except ValueError as exc:
            raise BelyiFormatError(str(exc)) from exc


def _infinity_from_degrees(dn: int, dw: int, dd: int) -> tuple[str, int]:
    """Critical class and order of infinity for beta = k*Z/Q with
    deg Z = dn, deg(k*Z - Q) = dw and deg Q = dd: the side whose degree is
    below n = max(dn, dd) takes infinity, with order n minus that degree
    (at most one is below: dw < n needs dn = dd and k = 1)."""
    n = max(dn, dd)
    for side, degree in zip(SIDES, (dn, dw, dd)):
        if degree < n:
            return side, n - degree
    return "none", 0
