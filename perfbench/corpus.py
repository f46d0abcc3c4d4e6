"""Seeded corpus of `belyi v1` documents for the certify workload.

The corpus is made from the four preset texts (d6, d12, d60, d72, as the
package's `to_text` writes them) with plain `Fraction` pairs; this module
never imports the package, so a change to the package cannot change its
own inputs.

For every preset the corpus holds, in a fixed layout so that every seed
asks for the same amount of work:

* the preset itself (height 0);
* `VARIANTS[preset]` affine conjugates beta(a*z + b) for each height in
  `HEIGHTS`, with Gaussian integers a, b of that height
  (|re| = |im| = height).  The passport is unchanged, so each must be
  accepted;
* two tampered copies, well-formed but false: a height-3 conjugate with
  its k token perturbed (rejected with `IdentityFailed`), and a height-9
  conjugate with its zero-side factor repeated on another side (rejected
  with `FactorsShareRoot`).

The seed picks a, b, the perturbation and the side, and the order of the
documents.

On a 2-vCPU Xeon VM d6 and d12 verify in 4-30 ms, the d60/d72 conjugates
in 0.2-1 s.  The degree-60/72 presets get more conjugates so that the
median document lies well inside the slow group: with equal counts the
median fell in the gap between the two groups and moved by a fifth from
run to run, and with three each it sat at the group's lower edge and
still moved by a sixth.  With four each, 26 of the 42 documents are slow.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

HEIGHTS = (1, 3, 9)
VARIANTS = {"d6": 1, "d12": 1, "d60": 4, "d72": 4}
SIDES = ("zero", "one", "pole")

ACCEPT = "accept"

Gauss = tuple[Fraction, Fraction]
Poly = list[Gauss]  # lowest power first


def _gmul(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gdiv(x: Gauss, y: Gauss) -> Gauss:
    n = y[0] * y[0] + y[1] * y[1]
    return _gmul(x, (y[0] / n, -y[1] / n))


def _gpow(x: Gauss, e: int) -> Gauss:
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = _gmul(out, x)
    return out if e >= 0 else _gdiv((Fraction(1), Fraction(0)), out)


def parse_token(token: str) -> Gauss:
    re, _, im = token.partition(",")
    return Fraction(re), Fraction(im or 0)


def format_token(c: Gauss) -> str:
    return str(c[0]) if not c[1] else f"{c[0]},{c[1]}"


@dataclass
class Belyi:
    """The fields of a `belyi v1` document, coefficients as Gauss pairs."""

    k: Gauss
    infinity: tuple[str, int] | None
    factors: list[tuple[str, int, Poly]]  # (side, exponent, coefficients)

    @staticmethod
    def parse(text: str) -> "Belyi":
        lines = text.split("\n")
        if lines[0] != "belyi v1":
            raise ValueError("not a belyi v1 document")
        k, infinity, factors = None, None, []
        for line in filter(None, lines[1:]):
            head, *rest = line.split()
            if head == "k":
                k = parse_token(rest[0])
            elif head == "infinity":
                infinity = (rest[0], int(rest[1]))
            else:
                factors.append((head, int(rest[0]), [parse_token(t) for t in rest[1:]]))
        if k is None:
            raise ValueError("document has no k line")
        return Belyi(k, infinity, factors)

    def text(self) -> str:
        lines = ["belyi v1", f"k {format_token(self.k)}"]
        if self.infinity is not None:
            lines.append(f"infinity {self.infinity[0]} {self.infinity[1]}")
        for side in SIDES:
            lines += [f"{s} {e} " + " ".join(map(format_token, coeffs))
                      for s, e, coeffs in self.factors if s == side]
        return "\n".join(lines) + "\n"

    def conjugate(self, a: Gauss, b: Gauss) -> "Belyi":
        """beta(a*z + b) with every factor made monic again.

        With Z, Q the zero and pole products, k*Z - Q = c*O becomes
        k*a^(dz-dq)*Z' - Q' = c'*O' for the monic substituted factors, so
        only k picks up a power of a; infinity keeps its tag and order.
        """
        factors = [(side, e, _monic(_substitute(coeffs, a, b)))
                   for side, e, coeffs in self.factors]
        dz = sum((len(c) - 1) * e for s, e, c in self.factors if s == "zero")
        dq = sum((len(c) - 1) * e for s, e, c in self.factors if s == "pole")
        return Belyi(_gmul(self.k, _gpow(a, dz - dq)), self.infinity, factors)


def _substitute(coeffs: Poly, a: Gauss, b: Gauss) -> Poly:
    """p(a*z + b) by Horner's rule."""
    out: Poly = []
    for c in reversed(coeffs):
        shifted = [(Fraction(0), Fraction(0))] + [_gmul(a, x) for x in out]
        for i, x in enumerate(out):
            y = _gmul(b, x)
            shifted[i] = (shifted[i][0] + y[0], shifted[i][1] + y[1])
        shifted[0] = (shifted[0][0] + c[0], shifted[0][1] + c[1])
        out = shifted
    return out


def _monic(coeffs: Poly) -> Poly:
    lead = coeffs[-1]
    return [_gdiv(c, lead) for c in coeffs]


def _gauss_int_of_height(rng: random.Random, h: int) -> Gauss:
    """One of the four Gaussian integers +-h +-h*i.  Both parts have the
    height, so every seed gets the same coefficient sizes and the same
    Gaussian (not merely rational) arithmetic; a free second part would
    move the cost of a pass by about a tenth from seed to seed."""
    return Fraction(rng.choice((-h, h))), Fraction(rng.choice((-h, h)))


def perturb_k(doc: Belyi, rng: random.Random) -> Belyi:
    """Add a nonzero integer to the real part of the k token.

    k*Z - Q = c*O with Z and O coprime, so k'*Z - Q = (k' - k)*Z + c*O is
    never a multiple of O for k' != k: the identity must fail, and all the
    factor checks before it still pass.  A perturbed factor coefficient
    would only fail the identity generically, and its cost would depend on
    which coefficient the seed picked.
    """
    delta = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Belyi((doc.k[0] + delta, doc.k[1]), doc.infinity, doc.factors)


def repeat_zero_factor(doc: Belyi, rng: random.Random) -> Belyi:
    """Copy the first zero-side factor onto the one or pole side, exponent 1."""
    coeffs = next(c for s, _, c in doc.factors if s == "zero")
    return Belyi(doc.k, doc.infinity,
                 doc.factors + [(rng.choice(("one", "pole")), 1, coeffs)])


def coeff_bits(doc: Belyi) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    parts = [x for c in [doc.k] + [c for _, _, cs in doc.factors for c in cs]
             for x in c]
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for x in parts)


@dataclass(frozen=True)
class Doc:
    name: str
    preset: str
    height: int
    expect: str  # ACCEPT or the name of the expected verification error
    text: str
    degree: int
    coeff_bits: int

    @property
    def nbytes(self) -> int:
        return len(self.text.encode())

    @property
    def tampered(self) -> bool:
        return self.expect != ACCEPT


def generate(seed: int, preset_texts: dict[str, str]) -> list[Doc]:
    """The certify corpus for `seed`, in the order it is replayed."""
    rng = random.Random(f"certify-corpus:{seed}")
    docs = []
    for preset in VARIANTS:
        base = Belyi.parse(preset_texts[preset])
        degree = sum((len(c) - 1) * e for s, e, c in base.factors if s == "zero")
        if base.infinity and base.infinity[0] == "zero":
            degree += base.infinity[1]

        def add(name, height, expect, doc):
            docs.append(Doc(f"{preset}/{name}", preset, height, expect,
                            doc.text(), degree, coeff_bits(doc)))

        add("h0", 0, ACCEPT, base)
        conj = {}
        for h in HEIGHTS:
            for v in range(VARIANTS[preset]):
                a = _gauss_int_of_height(rng, h)
                b = _gauss_int_of_height(rng, h)
                conj[h, v] = base.conjugate(a, b)
                add(f"h{h}/v{v}", h, ACCEPT, conj[h, v])
        v = rng.randrange(VARIANTS[preset])
        add(f"h3/v{v}/perturbed", 3, "IdentityFailed", perturb_k(conj[3, v], rng))
        v = rng.randrange(VARIANTS[preset])
        add(f"h9/v{v}/repeated", 9, "FactorsShareRoot",
            repeat_zero_factor(conj[9, v], rng))
    rng.shuffle(docs)
    return docs


def digest(docs: list[Doc]) -> str:
    h = hashlib.sha256()
    for d in docs:
        h.update(d.name.encode() + b"\0" + d.text.encode() + b"\0")
    return h.hexdigest()[:16]


def summary(docs: list[Doc]) -> dict:
    """Per-document sizes and a digest, for the run report."""
    return {
        "documents": len(docs),
        "tampered": sum(d.tampered for d in docs),
        "digest": digest(docs),
        "docs": [{"name": d.name, "degree": d.degree, "height": d.height,
                  "coeff_bits": d.coeff_bits, "bytes": d.nbytes,
                  "expect": d.expect} for d in docs],
    }
