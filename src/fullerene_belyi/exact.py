"""Exact arithmetic over the Gaussian rationals Q(i).

Three layers live here:

  GaussRat     -- (a + b*i)/d held as three ints, d > 0 and
                  gcd(a, b, d) = 1, so the triple is canonical.  A field;
                  every operation is exact and takes one gcd, and values
                  are immutable.
  UniPoly      -- the one dense univariate polynomial type, over GaussRat
                  or over MultiPoly (a family whose coefficients carry
                  parameters); the coefficients set the ring and the
                  polynomial carries that ring's zero.  Coefficients are
                  stored lowest power first with no trailing zeros; the
                  zero polynomial is the empty coefficient tuple and has no
                  degree (asking for one raises, which catches silent degree
                  arithmetic early).  Division, gcd and serialization are
                  over Q(i) only.
  RationalMap  -- k * num(z) / den(z) with num, den monic and coprime.

Polynomials serialize as lists of coefficient tokens "a/b" (rational) or
"a/b,c/d" (real,imag), lowest index first; see README for the format note.
UniPoly.from_tokens parses them straight to the cleared form the
certificates below read, in one checked pass per line: one check of the
joined tokens' characters, int() on every part, then one lcm of the
denominators as written and one gcd that makes the form canonical (d the
lcm of the reduced denominators).  A line it refuses is read again by the
grammar GaussRat.from_token reads (_token_ratios), which names the fault.
The GaussRat coefficients are built from the form only when something
reads them.

Three integer kernels do the heavy work of certification.

Packed sums (Kronecker substitution).  _packed_sum computes
S = sum(c * prod f^e) over terms with c in Z[i] and every f in Z[i][z],
given as its real and imaginary integer digit vectors, in three steps:
the bound (_packed_bound), the value at z = 2^B (_packed_value) and the
unpack (_unpack_gauss).  Each vector is
packed into one integer as its value at z = 2^B (_pack: every digit plus
2^(B-1) is a nonnegative B-bit string, and one subtraction of the offset
sum(2^(B-1) * 2^(B*k)) takes that back off), the powers and products are
taken as big integers in Z[i] (_gauss_mul), and the digits of S are
unpacked (_unpack: the same offset added, the bytes split).  Evaluation
at 2^B is a ring map, so the unpacking is exact once every coefficient x
of S satisfies |Re x|, |Im x| < 2^(B-1).  The 1-norm
||g||_1 = sum(|Re g_k| + |Im g_k|) bounds both parts of every coefficient
of g, it is subadditive, and it is submultiplicative, because
|Re(x*y)| + |Im(x*y)| <= (|Re x| + |Im x|)(|Re y| + |Im y|) for any x, y in
Z[i] and a coefficient of g*h is a sum of such products.  So every
coefficient of S is below bound = sum ||c||_1 * prod ||f||_1^e, and B is the
bound's bit length plus a sign bit, rounded up to whole bytes.  With c and
every f nonzero, each packed digit is below the bound too, so every digit
packed or unpacked is below 2^(B-1) in absolute value.

Multiplication over Q(i).  Each operand is cleared to integer real and
imaginary vectors over one common denominator d, one lcm pass over its
coefficients' triples (a triple's d is the lcm of the reduced
denominators of its two parts); the product is the packed sum of the one
term with c = 1, and each digit pair over d_a*d_b is made a triple by one
gcd.  The schoolbook loop remains for the MultiPoly coefficient ring.

Coprimality (a certificate modulo one fixed prime).  Let p = _P, a prime
with p = 1 (mod 4), r = _R with r^2 = -1 (mod p), and J the prime ideal
(p, i - r) of Z[i]; Z[i]/J is the field F_p, with i mapped to r.  Every
certificate reads the cleared form (d, re, im) of a polynomial (_cleared),
made once per polynomial and kept in it (_form_of), or made at parse time:
A = d*a = re + i*im lies in Z[i][z] and has the roots of a, so a and b are
coprime iff A and B are.  _reduce_mod_p maps A to F_p[z].  Suppose lead(A)
is a unit of the local ring R = Z[i]_J (its reduction is nonzero).  If A
and B had a common factor over Q(i), they would have a monic irreducible
one, g.  R is a discrete valuation ring, hence integrally closed, and g
divides the monic A/lead(A) in R[z], so g lies in R[z] (Gauss's lemma).
Dividing by the monic g stays in R[z], so g divides A and B in R[z], and
its reduction, monic of the same degree, divides the reductions of both.
Hence a constant gcd of the reductions in F_p[z] proves a and b coprime.
A denominator of a divisible by p needs no clause of its own: p then
divides d, and for a monic a, lead(A) = d vanishes mod J, which the
certificate already treats as inconclusive.  coprime() returns True on the
certificate and otherwise (lead(A) vanishing mod J, or a nonconstant gcd
mod J: an unlucky prime or a true common factor) returns the answer of the
exact Euclidean poly_gcd.  No point is sampled and no answer is
probabilistic.  Reduction mod J is a ring map that commutes with d/dz, and
A' = d*a', so is_squarefree runs the certificate on A's reduction and its
derivative in F_p[z].  The certificates take polynomials: coprime(a, b)
and is_squarefree(p) read the forms and reduce them themselves, so no
caller handles either.

The identity of a factored Belyi function (products of powers in Z[i]).
_cleared_identity, which FactoredBelyi.verify calls, proves k*Z - Q = c*O
for Z, Q and O products of powers f^e of monic factors, on integers.  It
takes k and the (factor, exponent) pairs, and reads the cleared forms the
certificates read:
every factor is g_f/d_f, with g_f in Z[i][z] and d_f the lcm of its
denominators, and k = kappa/d_k.  With G_Z = prod g_f^e and
D_Z = prod d_f^e (likewise for Q and O), k*Z - Q = W/(d_k*D_Z*D_Q) for
W = kappa*G_Z*D_Q - d_k*D_Z*G_Q, and since O = G_O/D_O is monic, the
identity holds iff W != 0, deg W = deg O and D_O*W = lead(W)*G_O
coefficient by coefficient.  The denominator products share most of
their bits, so the check runs on W' = W/g instead, for
g = gcd(Re(kappa)*D_Q, Im(kappa)*D_Q, d_k*D_Z) >= 1 (d_k*D_Z > 0).  W' is
W with both term scalars divided by g, so it lies in Z[i][z], and:
  W' != 0 iff W != 0, and deg W' = deg W;
  lead(W') = lead(W)/g, so D_O*W' = lead(W')*G_O iff D_O*W = lead(W)*G_O;
  W'/lead(W') = W/lead(W), so a failure names the same sides.
W' (two terms) and G_O (one) are each packed as one value in Z[i] at
z = 2^B (_packed_value), so no product is expanded over Q(i), and the
width follows the smaller scalars.  A true identity is accepted by one
comparison of the two values.  The top digit of a cleared monic factor is
its d, so lead(G_Z) = D_Z and lead(G_Q) = D_Q.  With W' written as
kappa'*G_Z - delta'*G_Q, its z^max(deg Z, deg Q) digit is
L = kappa'*D_Z - delta'*D_Q, where a term counts only if its side's degree
is that maximum.  When L != 0 and D_O divides both parts of L,
c = L/D_O lies in Z[i], B is proven from bound_W + ||c||_1*bound_O (the
packed bounds of W' and G_O), and the identity is accepted when
W'(2^B) = c*G_O(2^B) in Z[i].  That is a proof:
both parts of every coefficient of P = W' - c*G_O are at most
bound_W + ||c||_1*bound_O < 2^(B-1), so P(2^B) = 0 iff P = 0; and
W' = c*G_O with c != 0 gives W' != 0, deg W' = deg O and
lead(W') = c*D_O, so D_O*W' = lead(W')*G_O.  The prediction of L only
picks the documents that try the comparison, and no verdict rests on it:
when L = 0 (the tops of the two terms cancel), c is not in Z[i], or the
values differ, W' and G_O are unpacked at the same width and compared
digit by digit as above, which decides the identity.  Only when that
check fails are W'/lead(W') and O made into polynomials, to name the two
sides that differ; they hold their cleared forms, and a message builds
their coefficients over Q(i) only when it prints them.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Sequence

# Annotations are not evaluated, and none of this module's code paths use
# fractions: a Fraction argument is read by its numerator and denominator,
# and only the accessors that return a Fraction (GaussRat.re, .im and
# norm) import it.


class GaussRat:
    """A Gaussian rational (a + b*i)/d, held as three ints with d > 0 and
    gcd(a, b, d) = 1, so that equal values have equal triples; every
    operation makes its result canonical with one gcd.  Immutable; equal
    by the triple, and hashed as the pair (re, im) of Fractions is.  The
    constructor, of() and coerce() take ints and Fractions (anything with
    numerator and denominator); re, im and norm() return Fractions."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction, im: int | Fraction):
        r, s = _rational(re), _rational(im)  # TypeError for a non-rational
        d = r._d * s._d // math.gcd(r._d, s._d)
        a, b = r._a * (d // r._d), s._a * (d // s._d)
        g = math.gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is GaussRat:
            return self._a == other._a and self._b == other._b and self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        # hash((re, im)) with Fraction parts, as Python hashes rationals
        return hash((_rational_hash(self._a, self._d), _rational_hash(self._b, self._d)))

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._b, self._d)

    @staticmethod
    def of(re: int | Fraction = 0, im: int | Fraction = 0) -> "GaussRat":
        return GaussRat(re, im)

    @staticmethod
    def coerce(v: int | Fraction | GaussRat) -> "GaussRat":
        return v if v.__class__ is GaussRat else _rational(v)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: int | Fraction | GaussRat) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.coerce(other)
        d, e = self._d, o._d
        if d == e:
            return _gauss(self._a + o._a, self._b + o._b, d)
        return _gauss(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return _canonical_gauss(-self._a, -self._b, self._d)

    def __sub__(self, other: int | Fraction | GaussRat) -> "GaussRat":
        return self + (-GaussRat.coerce(other))

    def __rsub__(self, other: int | Fraction | GaussRat) -> "GaussRat":
        return GaussRat.coerce(other) + (-self)

    def __mul__(self, other: int | Fraction | GaussRat) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        if not (b1 or b2):
            return _gauss(a1 * a2, 0, self._d * o._d)
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussRat":
        return _canonical_gauss(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """re^2 + im^2 (the field norm down to Q)."""
        from fractions import Fraction
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "GaussRat":
        """d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gauss(d * a, -d * b, n)

    def __truediv__(self, other: int | Fraction | GaussRat) -> "GaussRat":
        return self * GaussRat.coerce(other).inverse()

    def __rtruediv__(self, other: int | Fraction | GaussRat) -> "GaussRat":
        return GaussRat.coerce(other) * self.inverse()

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _rational_text(a, d)
        if not a:
            return f"{_rational_text(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{_rational_text(a, d)}{sign}{_rational_text(abs(b), d)}i"

    __repr__ = __str__

    def to_token(self) -> str:
        """Serialize as "a/b" or "a/b,c/d"."""
        if not self._b:
            return _rational_text(self._a, self._d)
        return f"{_rational_text(self._a, self._d)},{_rational_text(self._b, self._d)}"

    @staticmethod
    def from_token(token: str) -> "GaussRat":
        """Parse "a/b" or "a/b,c/d": each part an optional "-", ASCII
        digits, and optionally "/" and ASCII digits.  Anything else, a zero
        denominator included, raises ValueError."""
        (a, b), (c, e) = _token_ratios(token)
        d = b * e // math.gcd(b, e)
        return _gauss(a * (d // b), c * (d // e), d)


# the slot setters, which skip the refusing __setattr__ (the hot path)
_set_a = GaussRat._a.__set__
_set_b = GaussRat._b.__set__
_set_d = GaussRat._d.__set__
_new = object.__new__


def _canonical_gauss(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d of a triple already canonical: d > 0 and
    gcd(a, b, d) = 1."""
    z = _new(GaussRat)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _rational(v: int | Fraction) -> GaussRat:
    """A rational, read by its numerator and denominator, as a GaussRat;
    TypeError for anything else (a GaussRat included)."""
    try:
        return _canonical_gauss(v.numerator, 0, v.denominator)
    except AttributeError:
        raise TypeError(f"not a rational: {_quote(v)}") from None


def _gauss(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d for d > 0, made canonical by one gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _canonical_gauss(a, b, d)


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, by Python's rule for the hash of a
    rational: |n|/d modulo the prime sys.hash_info.modulus, signed."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if d == 1:
        return hash(n)
    p = sys.hash_info.modulus
    h = sys.hash_info.inf if d % p == 0 else abs(n) % p * pow(d, -1, p) % p
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _rational_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0: the integer, or "n/d" in lowest
    terms."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


# a message quotes at most this many characters of a line or token
_QUOTED_CHARS = 60


def _quote(value) -> str:
    """repr(value) for a message, cut to its first _QUOTED_CHARS
    characters (and its length named) when longer.  A string is cut before
    its repr is taken."""
    if isinstance(value, str):
        if len(value) <= _QUOTED_CHARS:
            return repr(value)
        return f"{value[:_QUOTED_CHARS]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= _QUOTED_CHARS:
        return text
    return f"{text[:_QUOTED_CHARS]}... ({len(text)} characters)"


def _int_string_limit() -> int:
    """Python's limit on the digits of an int parsed from a string; 0 when
    there is none.  The limit came in 3.11 and 3.10.7; 0, as before it,
    means none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _natural(text: str) -> int:
    """The value of a nonempty string of ASCII digits; ValueError for
    anything else (a sign, a space, "_", an exponent, a non-ASCII digit),
    and for more digits than Python's int-string limit, named by count.
    int() of ASCII digits raises ValueError only past that limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {_quote(text)}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"a number of {len(text)} digits exceeds Python's int-"
                         f"string limit of {_int_string_limit()} digits") from None


def _ratio(text: str) -> tuple[int, int]:
    """A token part "a" or "a/b" (naturals, a with an optional "-", b > 0)
    as the pair (n, d) it spells, d > 0; each parser makes its value
    canonical once (GaussRat.from_token by _gauss, UniPoly.from_tokens by
    _canonical)."""
    num, slash, den = text.partition("/")
    n = -_natural(num[1:]) if num.startswith("-") else _natural(num)
    if not slash:
        return n, 1
    d = _natural(den)
    if not d:
        raise ValueError(f"zero denominator in {_quote(text)}")
    return n, d


def _token_ratios(token: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The pairs (_ratio) of a token's real and imaginary parts: the
    grammar of GaussRat.from_token, which names the fault of any token
    UniPoly.from_tokens refuses."""
    parts = token.split(",")
    if len(parts) == 1:
        return _ratio(parts[0]), (0, 1)
    if len(parts) == 2:
        return _ratio(parts[0]), _ratio(parts[1])
    raise ValueError(f"bad coefficient token: {_quote(token)}")


# the characters of that grammar; UniPoly.from_tokens refuses any other
_GRAMMAR = b"0123456789-/,"

ZERO = _canonical_gauss(0, 0, 1)
ONE = _canonical_gauss(1, 0, 1)
I = _canonical_gauss(0, 1, 1)


def binary_power(base, n: int, one, mul=operator.mul):
    """base**n by repeated squaring, for any exact product `mul` (the
    type's own `*` by default); `one` is the answer for n = 0."""
    if n < 0:
        raise ValueError("negative power")
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if result is None else result


Cleared = tuple[int, list[int], list[int]]  # (d, re, im)


def _cleared(coeffs: Sequence[GaussRat]) -> Cleared:
    """(d, re, im) with coeffs[k] = (re[k] + im[k]*i) / d and d the lcm of
    every denominator: one lcm pass over the triples' d, which is the lcm
    of the reduced denominators of each coefficient's two parts."""
    d = math.lcm(*[c._d for c in coeffs])
    scales = [d // c._d for c in coeffs]
    return (d, [c._a * m for c, m in zip(coeffs, scales)],
            [c._b * m for c, m in zip(coeffs, scales)])


def _offset(n: int, width: int) -> int:
    """sum(2^(B-1) * 2^(B*k)) over k < n, B = 8*width: the offset that
    makes n signed digits |c_k| < 2^(B-1) the bytes c_k + 2^(B-1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(digits: Sequence[int], width: int) -> int:
    """sum(digits[k] * 2^(B*k)) with B = 8*width, for |digits[k]| < 2^(B-1):
    each digit plus 2^(B-1) is one nonnegative byte string, and one
    subtraction of the offset takes the 2^(B-1) back off every digit."""
    half, to_bytes = 1 << (8 * width - 1), int.to_bytes
    raw = b"".join([to_bytes(x + half, width, "little") for x in digits])
    return int.from_bytes(raw, "little") - _offset(len(digits), width)


def _unpack(x: int, n: int, width: int) -> list[int]:
    """The n signed digits c_k of x = sum(c_k * 2^(B*k)), B = 8*width, given
    |c_k| < 2^(B-1): _pack read backwards.  Adding the offset makes every
    digit nonnegative, the big-int addition absorbing the borrows of the
    negative ones, and the bytes then split into digits directly."""
    half, from_bytes = 1 << (8 * width - 1), int.from_bytes
    raw = (x + _offset(n, width)).to_bytes(n * width, "little")
    return [from_bytes(raw[k:k + width], "little") - half
            for k in range(0, n * width, width)]


GaussInt = tuple[int, int]  # (re, im)


def _gauss_mul(a: GaussInt, b: GaussInt) -> GaussInt:
    """a*b in Z[i]: one integer product when both are real, two for a
    square, three otherwise."""
    (ar, ai), (br, bi) = a, b
    if not (ai or bi):
        return ar * br, 0
    if a is b:
        return (ar + ai) * (ar - ai), 2 * ar * ai
    rr, ii = ar * br, ai * bi
    return rr - ii, (ar + ai) * (br + bi) - rr - ii


def _packed_bound(terms) -> int:
    """sum(||c||_1 * prod(||f||_1^e)) over terms [(c, [((re, im), e), ...]),
    ...]: above both parts of every coefficient of sum(c * prod(f^e)), and
    of every digit packed ("Packed sums" in the module docstring)."""
    return sum((abs(cr) + abs(ci)) * math.prod(
        (sum(map(abs, re)) + sum(map(abs, im))) ** e for (re, im), e in factors)
        for (cr, ci), factors in terms)


def _width(bound: int) -> int:
    """The byte width of signed digits below bound: its bit length plus a
    sign bit, rounded up to whole bytes."""
    return (bound.bit_length() + 8) // 8


def _packed_value(terms, width: int) -> GaussInt:
    """sum(c * prod(f^e)) over terms at z = 2^B, B = 8*width, in Z[i]: c is
    a Gaussian integer and each f, the integer digit lists re + im*i lowest
    first, is nonzero, with every digit below 2^(B-1) in absolute value."""
    total_re = total_im = 0
    for c, factors in terms:
        for (re, im), e in factors:
            g = (_pack(re, width), _pack(im, width))
            c = _gauss_mul(c, binary_power(g, e, (1, 0), _gauss_mul))
        total_re += c[0]
        total_im += c[1]
    return total_re, total_im


def _unpack_gauss(value: GaussInt, n: int, width: int) -> list[GaussInt]:
    """The n (re, im) digits of a packed value, each part below 2^(B-1)."""
    re, im = value
    return list(zip(_unpack(re, n, width), _unpack(im, n, width) if im else [0] * n))


def _packed_sum(terms, n: int) -> list[GaussInt]:
    """The n (re, im) digits of sum(c * prod(f^e)) over terms
    [(c, [((re, im), e), ...]), ...]: c is a nonzero Gaussian integer and
    each f is nonzero.  One width, proven from the bound, serves every
    factor ("Packed sums" in the module docstring)."""
    width = _width(_packed_bound(terms))
    return _unpack_gauss(_packed_value(terms, width), n, width)


def _cleared_identity(k: GaussRat, zeros, poles, ones
                      ) -> tuple[UniPoly | None, UniPoly | None] | None:
    """Check the identity k*Z - Q = c*O of a factored Belyi function in
    Z[i] (see the module docstring).  zeros, poles and ones are the
    (monic factor, exponent) pairs of its sides; k and every factor are
    read through their cleared forms (_form_of).  Returns None when it
    holds, (None, None) when W, and so k*Z - Q, is zero, and otherwise
    (got, declared): the two monic sides that differ, W/lead(W) and O.
    W' and G_O are one packed value each, and a true identity with
    c = L/D_O in Z[i] is accepted by one comparison of the two; only
    the other documents unpack them.  Only a failing check builds a
    UniPoly, and it holds only its cleared form (_lazy_poly): a message
    that names a long side by its size (belyi._show) builds none of its
    coefficients."""
    dk, (kr,), (ki,) = _cleared((k,))
    sides = [([((re, im), e) for (_, re, im), e in forms],
              math.prod(d ** e for (d, _, _), e in forms),
              sum((len(re) - 1) * e for (_, re, _), e in forms))
             for forms in ([(_form_of(f), e) for f, e in factors]
                           for factors in (zeros, poles, ones))]
    (gz, dz, degz), (gq, dq, degq), (go, do, dego) = sides
    # W' = W/g (module docstring): the same test, packed at the width the
    # products need
    g = math.gcd(kr * dq, ki * dq, dk * dz)
    (zr, zi), qr = (kr * dq // g, ki * dq // g), -dk * dz // g
    w_terms, o_terms = [((zr, zi), gz), ((qr, 0), gq)], [((1, 0), go)]
    # L, the z^max(deg Z, deg Q) digit of W': the top digit of a cleared
    # monic factor is its d, so lead(G_Z) = D_Z and lead(G_Q) = D_Q
    lr = (zr * dz if degz >= degq else 0) + (qr * dq if degq >= degz else 0)
    li = zi * dz if degz >= degq else 0
    c = (lr // do, li // do) if (lr or li) and not (lr % do or li % do) else None
    width = _width(_packed_bound(w_terms)
                   + (abs(c[0]) + abs(c[1]) if c else 1) * _packed_bound(o_terms))
    w, g_o = _packed_value(w_terms, width), _packed_value(o_terms, width)
    # every digit of W' - c*G_O is below 2^(B-1), so it is zero iff its
    # value at 2^B is
    if c and w == _gauss_mul(c, g_o):
        return None
    w = _unpack_gauss(w, max(degz, degq) + 1, width)
    while w and w[-1] == (0, 0):
        w.pop()
    if not w:
        return None, None
    g_o = _unpack_gauss(g_o, dego + 1, width)
    # the one-side scalar is lead(W) / (d_k*D_Z*D_Q); only the monic part
    # is declared, so compare W' / lead(W') = W / lead(W) with G_O / D_O:
    # D_O*W' = lead(W')*G_O, digit by digit in Z[i]
    lr, li = w[-1]
    if len(w) == len(g_o) and all(lr * a - li * b == do * x and lr * b + li * a == do * y
                                  for (x, y), (a, b) in zip(w, g_o)):
        return None
    # W / lead(W) = W * conj(lead(W)) / |lead(W)|^2, and O = G_O / D_O
    got = _canonical(lr * lr + li * li, [x * lr + y * li for x, y in w],
                     [y * lr - x * li for x, y in w])
    declared = _canonical(do, [x for x, _ in g_o], [y for _, y in g_o])
    return _lazy_poly(got), _lazy_poly(declared)


def _canonical(d: int, re: list[int], im: list[int]) -> Cleared:
    """The cleared form of (re + im*i)/d: d becomes the lcm of the reduced
    denominators, d / gcd(d, every digit), with one gcd in all."""
    g = math.gcd(d, *re, *im)
    if g == 1:
        return d, re, im
    return d // g, [x // g for x in re], [y // g for y in im]


def _zero_of(c):
    """The zero of c's coefficient ring (c * 0 keeps a MultiPoly's variables)."""
    return ZERO if c.__class__ is GaussRat or hasattr(c, "denominator") else c * 0


class UniPoly:
    """Dense exact univariate polynomial in z over a coefficient ring.

    The ring is GaussRat unless the coefficients say otherwise: ints and
    Fractions coerce to GaussRat, while ring elements with +, -, * and
    is_zero (MultiPoly, for a family with parameter coefficients) pass
    through unchanged.  ring_zero is that ring's zero; it is read off the
    first coefficient when not given.

    coeffs[i] is the coefficient of z^i; the tuple never ends in a zero.
    The zero polynomial is the empty tuple and deliberately has no degree.
    Instances are immutable, and hashable when their coefficients are.

    A polynomial over Q(i) keeps its cleared form (_cleared) in the private
    _form slot once it is known (_form_of).
    from_tokens fills _form and leaves coeffs unset; the coefficients are
    then built from the form on first use (__getattr__), and is_zero and
    degree read the form's length, so they build none.
    """

    __slots__ = ("coeffs", "ring_zero", "_form")

    def __init__(self, coeffs: Iterable = (), ring_zero=None):
        cs = [c if c.__class__ is GaussRat or not hasattr(c, "denominator")
              else GaussRat.coerce(c) for c in coeffs]
        if ring_zero is None:
            ring_zero = _zero_of(cs[0]) if cs else ZERO
        while cs and cs[-1].is_zero:
            cs.pop()
        _set_coeffs(self, tuple(cs))
        _set_ring_zero(self, ring_zero)
        _set_form(self, None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("UniPoly is immutable")

    def __getattr__(self, name: str):
        # reached only for an unset slot: the coefficients of a polynomial
        # from_tokens made, which hold its cleared form (d, re, im)
        if name != "coeffs":
            raise AttributeError(f"'UniPoly' object has no attribute {name!r}")
        d, re, im = self._form
        coeffs = tuple(_gauss(x, y, d) for x, y in zip(re, im))
        _set_coeffs(self, coeffs)
        return coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def constant(c: int | Fraction | GaussRat) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def monomial(power: int, c: int | Fraction | GaussRat = 1) -> "UniPoly":
        return UniPoly([0] * power + [c])

    @staticmethod
    def from_terms(terms: dict) -> "UniPoly":
        """Build from {power: coefficient}; the coefficients set the ring."""
        if not terms:
            return UniPoly.zero()
        zero = _zero_of(next(iter(terms.values())))
        cs = [zero] * (max(terms) + 1)
        for p, c in terms.items():
            cs[p] = c
        return UniPoly(cs, zero)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not _length(self)

    @property
    def degree(self) -> int:
        length = _length(self)
        if not length:
            raise ValueError("the zero polynomial has no degree")
        return length - 1

    def coefficient(self, power: int):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return self.ring_zero

    def leading(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        """Read from the cleared form when the polynomial holds one, so
        that a parsed factor builds no coefficient for it: monic iff the
        last digits of (d, re, im) are (d, 0)."""
        if self._form is None:
            return bool(self.coeffs) and self.coeffs[-1] == ONE
        d, re, im = self._form
        return bool(re) and re[-1] == d and not im[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        if len(a.coeffs) < len(b.coeffs):
            a, b = b, a
        out = list(a.coeffs)
        for i, c in enumerate(b.coeffs):
            out[i] = out[i] + c
        return UniPoly(out, a.ring_zero)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], self.ring_zero)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def scale(self, s) -> "UniPoly":
        """Every coefficient times s, by the coefficient's own *."""
        if isinstance(self.ring_zero, GaussRat):
            s = GaussRat.coerce(s)
        if not s:
            return UniPoly((), self.ring_zero)
        return UniPoly([c * s for c in self.coeffs], self.ring_zero)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        zero = self.ring_zero
        if not a or not b:
            return UniPoly((), zero)
        if isinstance(zero, GaussRat):
            da, ar, ai = _cleared(a)
            db, br, bi = _cleared(b)
            d = da * db
            digits = _packed_sum([((1, 0), [((ar, ai), 1), ((br, bi), 1)])],
                                 len(a) + len(b) - 1)
            return UniPoly([_gauss(x, y, d) for x, y in digits], zero)
        # schoolbook over a parameter ring
        nonzero_b = [(j, y) for j, y in enumerate(b) if not y.is_zero]
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x.is_zero:
                continue
            for j, y in nonzero_b:
                out[i + j] = out[i + j] + x * y
        return UniPoly(out, zero)

    def __rmul__(self, other) -> "UniPoly":
        return self * other

    def __pow__(self, n: int) -> "UniPoly":
        return binary_power(self, n, UniPoly((1 + self.ring_zero,), self.ring_zero))

    def derivative(self) -> "UniPoly":
        return UniPoly([self.coeffs[i] * i for i in range(1, len(self.coeffs))],
                       self.ring_zero)

    def map_coeffs(self, fn) -> "UniPoly":
        """fn applied to every coefficient.  fn is a ring map (substitution,
        evaluation); the result lives in fn's target ring."""
        return UniPoly([fn(c) for c in self.coeffs], fn(self.ring_zero))

    def substitute_power(self, n: int) -> "UniPoly":
        """self(z^n) without the general composition loop."""
        if n < 1:
            raise ValueError("power substitution needs n >= 1")
        if not self.coeffs:
            return self
        out = [self.ring_zero] * ((len(self.coeffs) - 1) * n + 1)
        for i, c in enumerate(self.coeffs):
            out[i * n] = c
        return UniPoly(out, self.ring_zero)

    # -- division over Q(i) -------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        if lead == ONE:
            return self
        return self.scale(lead.inverse())

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or self.degree < other.degree:
            return UniPoly.zero(), self
        rem = list(self.coeffs)
        dlead = other.leading().inverse()
        dd = other.degree
        q = [ZERO] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero:
                continue
            f = c * dlead
            q[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * oc
        return UniPoly(q, ZERO), UniPoly(rem, ZERO)

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"{other} does not divide {self}")
        return q

    def evaluate(self, x: int | Fraction | GaussRat) -> GaussRat:
        x = GaussRat.coerce(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- serialization / display ---------------------------------------

    def to_tokens(self) -> list[str]:
        return [c.to_token() for c in self.coeffs]

    @staticmethod
    def from_tokens(tokens: Sequence[str]) -> "UniPoly":
        """The polynomial with these coefficient tokens, lowest power first
        (GaussRat.from_token's grammar), parsed straight to its canonical
        cleared form in one checked pass.

        The pass first checks the joined tokens once: only the grammar's
        characters (so ASCII, and no space, "+" or "_", which int() would
        accept; encode() refuses a lone surrogate) and no "/-", which
        would let int() read a signed denominator.  On such text int()
        accepts exactly the grammar's parts, an optional "-" and digits,
        up to the same int-string limit.  Then int() reads every part,
        and a zero denominator is refused.  On any refusal the grammar
        (_token_ratios) reads the tokens again and raises its own
        message.

        The form is made canonical once.  Say part j is n_j/q_j as
        written, n'_j/q'_j reduced; D is the lcm of the q_j and L that of
        the q'_j, so L divides D, D = m*L, and n_j*D/q_j = m*n'_j*L/q'_j.
        A prime p dividing L divides some q'_j as often as it divides L,
        so p divides neither L/q'_j nor n'_j: gcd(L, every n'_j*L/q'_j)
        is 1, and gcd(D, every digit) is m.  Dividing by that one gcd
        (_canonical) leaves d = L and the digits over it."""
        line = "".join(tokens)
        try:
            if line.encode().translate(None, _GRAMMAR) or "/-" in line:
                raise ValueError
            fields = []
            for t in tokens:
                re, comma, im = t.partition(",")
                n, slash, q = re.partition("/")
                m, slash_im, r = im.partition("/")
                fields += (n, q if slash else "1", m if comma else "0", r if slash_im else "1")
            # (re, its denominator, im, its denominator) per token
            parts = list(map(int, fields))
            if 0 in parts[1::2]:
                raise ValueError
        except ValueError:
            parts = [x for t in tokens for pair in _token_ratios(t) for x in pair]
        while parts and not (parts[-4] or parts[-2]):
            del parts[-4:]
        d = math.lcm(*set(parts[1::2]))
        digits = [n * (d // q) for n, q in zip(parts[::2], parts[1::2])]
        return _lazy_poly(_canonical(d, digits[::2], digits[1::2]))

    def __str__(self) -> str:
        """Over Q(i): z^2 - 3/2*z + (1+2i).  Over a parameter ring every
        coefficient keeps its parentheses and terms join with " + ":
        z^12 + (a10)*z^10 + (-15/44*a10^2)*z^8 + ..."""
        if self.is_zero:
            return "0"
        scalar = isinstance(self.ring_zero, GaussRat)
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            mono = "z" if i == 1 else (f"z^{i}" if i else "")
            parts.append(_scalar_term(c, mono) if scalar else _family_term(c, mono))
        if not scalar:
            return " + ".join(parts)
        joined = parts[0]
        for p in parts[1:]:
            joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return joined

    def __repr__(self) -> str:
        return f"UniPoly({self})"


# the slot setters, which skip the refusing __setattr__
_set_coeffs = UniPoly.coeffs.__set__
_set_ring_zero = UniPoly.ring_zero.__set__
_set_form = UniPoly._form.__set__


def _lazy_poly(form: Cleared) -> UniPoly:
    """The polynomial over Q(i) of a canonical cleared form (d the lcm of
    the reduced denominators, the digits ending in a nonzero
    coefficient), holding only the form: its coefficients are built when
    first read (UniPoly.__getattr__)."""
    p = object.__new__(UniPoly)
    _set_ring_zero(p, ZERO)
    _set_form(p, form)
    return p


def _form_of(f: UniPoly) -> Cleared:
    """f's cleared form, from its _form slot: filled by from_tokens, or
    computed from the coefficients on first use and kept there."""
    form = f._form
    if form is None:
        form = _cleared(f.coeffs)
        _set_form(f, form)
    return form


def _length(f: UniPoly) -> int:
    """len(f.coeffs), read from the cleared form when f holds one, so that
    a parsed polynomial builds no coefficient for its degree."""
    form = f._form
    return len(f.coeffs) if form is None else len(form[1])


def first_equal_pair(polys: Sequence[UniPoly]) -> tuple[int, int] | None:
    """The first (i, j) with i < j and polys[i] == polys[j] (the least
    such j, then the least i), or None.  One pass over the cleared forms
    (_form_of), which are canonical: d is the lcm of the reduced
    denominators and the digits end at the last nonzero coefficient, so
    equal polynomials have equal forms, and no coefficient is built."""
    first: dict = {}
    for j, f in enumerate(polys):
        d, re, im = _form_of(f)
        i = first.setdefault((d, tuple(re), tuple(im)), j)
        if i != j:
            return i, j
    return None


def _scalar_term(c: GaussRat, mono: str) -> str:
    if mono and c == ONE:
        return mono
    if mono and c == -ONE:
        return f"-{mono}"
    cs = str(c)
    if ("+" in cs[1:]) or ("-" in cs[1:]):
        cs = f"({cs})"
    return f"{cs}*{mono}" if mono else cs


def _family_term(c, mono: str) -> str:
    cs = str(c)
    if mono:
        return mono if cs == "1" else f"({cs})*{mono}"
    return f"({cs})" if " " in cs else cs


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm (remainders kept monic so
    coefficient growth stays at subresultant size)."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
        if not b.is_zero:
            b = b.monic()
    return a.monic()


# The certificate prime.  _P = 5 (mod 8), so 2 is a quadratic non-residue
# mod _P and _R = 2^((_P-1)/4) satisfies _R^2 = -1 (mod _P).
_P = (1 << 61) - 259
_R = pow(2, (_P - 1) // 4, _P)


def _reduce_mod_p(cleared: Cleared) -> list[int]:
    """d*f = re + im*i, given as the cleared form (d, re, im) of f, modulo
    the prime ideal (_P, i - _R) of Z[i]: coefficients in F_p (p = _P)
    lowest first without trailing zeros.  When _P divides d, the leading
    coefficient d of a monic f vanishes here."""
    _, re, im = cleared
    out = [(x + _R * y) % _P for x, y in zip(re, im)]
    while out and not out[-1]:
        out.pop()
    return out


def _constant_gcd_mod_p(a: list[int], b: list[int]) -> bool:
    """True iff gcd(a, b) in F_p[z] (p = _P) is a nonzero constant; a is
    nonzero, and neither list ends in a zero."""
    while b:
        a = list(a)
        inv = pow(b[-1], -1, _P)
        n = len(b) - 1
        while len(a) > n:
            # the division runs on unreduced digits, reduced when it ends
            f = a.pop() * inv % _P
            if f:
                s = len(a) - n
                for j in range(n):
                    a[s + j] -= f * b[j]
        a = [x % _P for x in a]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) == 1


def _derivative_mod_p(r: list[int]) -> list[int]:
    """The derivative of a reduction in F_p[z] (p = _P), without trailing
    zeros."""
    out = [i * c % _P for i, c in enumerate(r)][1:]
    while out and not out[-1]:
        out.pop()
    return out


def coprime(a: UniPoly, b: UniPoly) -> bool:
    """True iff a and b have no common root, i.e. gcd(a, b) is constant.

    Certified modulo one fixed prime when that is conclusive (see the
    module docstring), otherwise decided by poly_gcd.  The certificate
    needs the leading coefficient of a's cleared form to survive the
    reduction, so pass the polynomial with the unit leading coefficient
    first."""
    ra = _reduce_mod_p(_form_of(a))
    return (bool(ra) and len(ra) == _length(a)
            and _constant_gcd_mod_p(ra, _reduce_mod_p(_form_of(b)))
            or poly_gcd(a, b).degree == 0)


def is_squarefree(p: UniPoly) -> bool:
    """True iff gcd(p, p') is constant.

    The reduction of (d*p)' = d*p' is the derivative of the reduction of
    p's cleared form in F_p[z], so p is reduced once and the coprimality
    certificate runs on that reduction and its derivative; poly_gcd
    decides when it is inconclusive."""
    if p.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if p.degree == 0:
        return True
    r = _reduce_mod_p(_form_of(p))
    return (len(r) == _length(p) and _constant_gcd_mod_p(r, _derivative_mod_p(r))
            or poly_gcd(p, p.derivative()).degree == 0)


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: monic(p) = prod f_i^i with the f_i squarefree,
    monic and pairwise coprime.  Returns [(f_i, i)] for nonconstant f_i."""
    if p.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    g = poly_gcd(p, p.derivative())
    b = p.divide_exact(g)
    c = p.derivative().divide_exact(g)
    d = c - b.derivative()
    out: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree >= 1:
        a = poly_gcd(b, d)
        if a.degree >= 1:
            out.append((a, i))
        b = b.divide_exact(a)
        c = d.divide_exact(a)
        d = c - b.derivative()
        i += 1
    return out


class _Record:
    """Base of the package's plain records.

    The fields are the class's annotated names, in order; a class
    attribute of the same name is the field's default, and a default that
    is a class (list, dict) is called for a fresh container per record.
    Fields are set by position or keyword, then __post_init__ runs.
    Records compare by value; a `frozen=True` record also hashes by value
    and refuses assignment with AttributeError, any other is unhashable.
    """

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._refuse
            cls.__hash__ = _Record._value_hash
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} "
                            f"fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{type(self).__name__}: unexpected or "
                                f"repeated field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{type(self).__name__}: missing field {key!r}")
                default = self._defaults[key]
                values[key] = default() if isinstance(default, type) else default
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def _value_hash(self) -> int:
        return hash(self._values())

    def _refuse(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"


class RationalMap(_Record, frozen=True):
    """k * num(z)/den(z), num and den monic and coprime, k nonzero.

    deg(map) = max(deg num, deg den); this is the topological degree when
    num/den really are coprime, which the constructor enforces.
    """

    k: GaussRat
    num: UniPoly
    den: UniPoly

    def __post_init__(self):
        k, num, den = GaussRat.coerce(self.k), self.num, self.den
        if num.is_zero:
            raise ValueError("rational map with zero numerator")
        if den.is_zero:
            raise ZeroDivisionError("rational map with zero denominator")
        k = k * num.leading() / den.leading()
        num = num.monic()
        den = den.monic()
        # the monic num leads, so the certificate applies; when coprime
        # is False the gcd has positive degree
        if not coprime(num, den):
            g = poly_gcd(num, den)
            num = num.divide_exact(g)
            den = den.divide_exact(g)
        if k.is_zero:
            raise ValueError("rational map with zero scalar")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def one_numerator(self) -> UniPoly:
        """Numerator of self - 1 over the common denominator: k*num - den."""
        return self.num.scale(self.k) - self.den

    def __str__(self) -> str:
        return f"({self.k}) * ({self.num}) / ({self.den})"

    __repr__ = __str__
