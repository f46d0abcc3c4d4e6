"""Numeric layer: the barrel vertices, inverse stereographic projection
onto the unit sphere, and the metric report for the distinguished
pentagonal face.

The barrel's Belyi function is beta72 = beta12(z^6) (moebius.build_beta72
is build_beta12().substitute_power(6)), so its vertex factor is q(z^6)
with q the quartic zero factor of the degree-12 function, and its 24
vertices are the sixth roots of q's roots.  barrel_quartic takes q from the
certified degree-12 function, without building the degree-72 one.
barrel_vertices checks exactly that q is w^4 + s w^3 + c w^2 - s w + 1
with s > 0, c + 2 > 0 and s^2 > 4(c + 2), which proves its four roots real
and simple, takes them in closed form from the factorization that shape
gives, and places the 24 vertices as sixth roots of them; the ring
structure and the reciprocal pairing are consequences, not numerical
observations.

poly_roots is a general root finder, which the barrel does not use:
Aberth-Ehrlich simultaneous iteration followed by Newton polishing; every
returned root satisfies |p(root)| <= tol * scale(root) where
scale(z) = sum |c_i| |z|^i is the evaluation-magnitude norm of the
polynomial at the root (the natural backward-error yardstick).  Ordering
is by (modulus, argument), so runs are deterministic.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

from .exact import UniPoly, _Record, is_squarefree

ROOT_TOL = 1e-12
_MAX_ABERTH_ITERS = 200
_MAX_POLISH_ITERS = 40


class RootFindingError(RuntimeError):
    pass


class GeometryError(ValueError):
    pass


class SpherePoint(_Record, frozen=True):
    x: float
    y: float
    z: float

    def sphere_residual(self) -> float:
        return abs(self.x * self.x + self.y * self.y + self.z * self.z - 1.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


class Plane(_Record, frozen=True):
    """p*X + q*Y + r*Z = 1."""

    p: float
    q: float
    r: float

    def residual_at(self, pt: SpherePoint) -> float:
        return abs(self.p * pt.x + self.q * pt.y + self.r * pt.z - 1.0)

    def unit_normal(self) -> tuple[float, float, float]:
        n = math.sqrt(self.p ** 2 + self.q ** 2 + self.r ** 2)
        return (self.p / n, self.q / n, self.r / n)


def residual_scale(p: UniPoly, z: complex) -> float:
    """sum |c_i| |z|^i: the magnitude against which |p(z)| is judged."""
    az = abs(z)
    total = 0.0
    power = 1.0
    for c in p.coeffs:
        total += abs(complex(c)) * power
        power *= az
    return total


def _eval_with_derivative(coeffs: list[complex], z: complex) -> tuple[complex, complex]:
    v = 0j
    d = 0j
    for c in reversed(coeffs):
        d = d * z + v
        v = v * z + c
    return v, d


def poly_roots(p: UniPoly, tol: float = ROOT_TOL) -> list[complex]:
    """All deg(p) roots of a squarefree polynomial, Newton-polished to
    |p(root)| <= tol * scale(root), ordered by (modulus, argument)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if p.is_zero or p.degree < 1:
        raise ValueError("root finding needs a nonconstant polynomial")
    if not is_squarefree(p):
        raise ValueError("root finding requires a squarefree polynomial")
    coeffs = [complex(c) for c in p.coeffs]
    n = len(coeffs) - 1

    # Cauchy bound initial circle, slightly irrational angle step so that
    # symmetric polynomials do not trap the iteration on a symmetry axis
    lead = abs(coeffs[-1])
    radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / lead
    roots = [radius * cmath.exp(2j * math.pi * (k / n) + 0.4j)
             for k in range(n)]

    for _ in range(_MAX_ABERTH_ITERS):
        biggest = 0.0
        new_roots = list(roots)
        for i, zi in enumerate(roots):
            v, d = _eval_with_derivative(coeffs, zi)
            if v == 0:
                continue
            repulsion = sum(1.0 / (zi - zj) for j, zj in enumerate(roots)
                            if j != i)
            denom = d - v * repulsion
            if denom == 0:
                denom = d if d != 0 else 1e-30
            step = v / denom
            new_roots[i] = zi - step
            biggest = max(biggest, abs(step))
        roots = new_roots
        if biggest < 1e-14 * radius:
            break
    else:
        raise RootFindingError("Aberth iteration did not settle")

    polished = []
    for z in roots:
        for _ in range(_MAX_POLISH_ITERS):
            v, d = _eval_with_derivative(coeffs, z)
            if abs(v) <= 1e-16 * residual_scale(p, z) or d == 0:
                break
            step = v / d
            if abs(step) <= 1e-17 * max(1.0, abs(z)):
                break
            z = z - step
        polished.append(z)

    for z in polished:
        v, _ = _eval_with_derivative(coeffs, z)
        if abs(v) > tol * residual_scale(p, z):
            raise RootFindingError(
                f"root {z} has residual {abs(v):.3e} above tolerance")
    polished.sort(key=lambda z: (abs(z), _principal_arg(z)))
    return polished


def _principal_arg(z: complex) -> float:
    a = cmath.phase(z)
    return a + 2 * math.pi if a < 0 else a


# ---------------------------------------------------------------------------
# Barrel vertices
# ---------------------------------------------------------------------------


class BarrelVertices(_Record, frozen=True):
    """The 24 vertices of the two-hexagon fullerene on the complex line.

    Labels follow the ring structure: A1..A6 and A7..A12 sit at arguments
    k*pi/3 on circles of radius r1 < r2; A13..A18 and A19..A24 at
    pi/6 + k*pi/3 on radii r3 < r4, with r1*r4 = r2*r3 = 1.
    """

    points: dict[str, complex]
    radii: tuple[float, float, float, float]

    def __getitem__(self, label: str) -> complex:
        return self.points[label]


@cache
def barrel_quartic() -> UniPoly:
    """w^4 + 228 w^3 + 494 w^2 - 228 w + 1, the one zero factor (of
    exponent 3) of the certified degree-12 preset, taken from it rather
    than typed in.  beta72 is beta12(z^6) factor by factor, so beta72's
    vertex factor is q(z^6), and verify d72 and compose d72 remain its
    own certificates."""
    from .moebius import build_beta12

    beta = build_beta12()
    beta.verify()
    (factor, exponent), = beta.zero_factors
    if exponent != 3 or factor.degree != 4:
        raise AssertionError("unexpected degree-12 vertex factor")
    return factor


@cache
def barrel_vertices() -> BarrelVertices:
    """The 24 vertices, the sixth roots of the roots of the quartic q
    (barrel_quartic), whose z^6-lift is beta72's vertex factor.

    q must read, compared exactly on its coefficients,
    q(w) = w^4 + s w^3 + c w^2 - s w + 1 with s > 0, c + 2 > 0 and
    s^2 > 4(c + 2).  Then t^2 - s t + (c + 2) has two distinct roots, of
    positive sum and product, so 0 < b1 < b2, and since b1 + b2 = s and
    b1 b2 - 2 = c, q = (w^2 + b1 w - 1)(w^2 + b2 w - 1).  (The barrel has
    s = 228, c = 494 and b = 114 -+ 50 sqrt 5.)  Each factor
    w^2 + b w - 1 has the real roots x = 2/(b + sqrt(b^2 + 4)) in (0, 1)
    and -1/x, and x falls as b grows.  The factors share no root: their
    difference is (b2 - b1) w, so a common root would be 0, and q(0) = 1.
    So q's four roots are real and simple, and by modulus they read
    x2 < x1 < 1/x1 < 1/x2 with signs (+, +, -, -).  The sixth roots of
    w > 0 lie at arguments k*pi/3 and those of w < 0 at pi/6 + k*pi/3, all
    at radius |w|^(1/6), so the ring offsets and the pairing
    r1*r4 = r2*r3 = 1 follow from q.  b2 is taken as
    (s + sqrt(s^2 - 4(c + 2)))/2 and b1 as (c + 2)/b2, and each x in the
    form above, so no difference of near-equal floats is formed.  Any
    failed check raises GeometryError.  The checks read the coefficients'
    integer triples: with s = S/D and c + 2 = C/D over one positive D,
    they are S > 0, C > 0 and S*S > 4*C*D."""
    q = barrel_quartic()
    if any(c._b for c in q.coeffs):
        raise GeometryError("vertex polynomial has non-real coefficients")
    s, c = q.coefficient(3), q.coefficient(2)
    if q != UniPoly.from_terms({4: 1, 3: s, 2: c, 1: -s, 0: 1}):
        raise GeometryError(
            "quartic in z^6 is not of the form w^4 + s w^3 + c w^2 - s w + 1")
    D = s._d * c._d
    S, C = s._a * c._d, (c._a + 2 * c._d) * s._d
    if not (S > 0 and C > 0 and S * S > 4 * C * D):
        raise GeometryError("quartic in z^6 needs s > 0, c + 2 > 0 and "
                            f"s^2 > 4(c + 2), has s = {s}, c = {c}")

    # the floats of s, s^2 - 4(c + 2) and c + 2, each one correctly
    # rounded quotient of integers
    b2 = (S / D + math.sqrt((S * S - 4 * C * D) / (D * D))) / 2
    x2, x1 = (2 / (b + math.sqrt(b * b + 4)) for b in (b2, C / D / b2))
    radii = tuple(w ** (1.0 / 6.0) for w in (x2, x1, 1 / x1, 1 / x2))
    points = {}
    for ring, r in enumerate(radii):
        offset = 0.0 if ring < 2 else math.pi / 6.0
        for k in range(6):
            points[f"A{6 * ring + k + 1}"] = cmath.rect(
                r, offset + math.pi * k / 3.0)
    return BarrelVertices(points=points, radii=radii)


# ---------------------------------------------------------------------------
# Sphere geometry
# ---------------------------------------------------------------------------


def inverse_stereographic(point: complex) -> SpherePoint:
    """x + iy -> (2x, 2y, x^2+y^2-1) / (x^2+y^2+1) on the unit sphere."""
    z = complex(point)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise GeometryError("cannot project a non-finite point")
    x, y = z.real, z.imag
    denom = x * x + y * y + 1.0
    return SpherePoint(2.0 * x / denom, 2.0 * y / denom,
                       (x * x + y * y - 1.0) / denom)


def _sub(a: SpherePoint, b: SpherePoint) -> tuple[float, float, float]:
    return (a.x - b.x, a.y - b.y, a.z - b.z)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u) -> float:
    return math.sqrt(_dot(u, u))


def plane_through(p1: SpherePoint, p2: SpherePoint, p3: SpherePoint) -> Plane:
    """The plane p*X + q*Y + r*Z = 1 through three points (it must not pass
    through the origin, and the points must not be collinear)."""
    rows = [p1.as_tuple(), p2.as_tuple(), p3.as_tuple()]

    def det3(m) -> float:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(rows)
    size = max(_norm(r) for r in rows)
    if abs(d) <= 1e-12 * size ** 3:
        raise GeometryError("degenerate point configuration for a plane")
    coeffs = []
    for col in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][col] = 1.0
        coeffs.append(det3(m) / d)
    plane = Plane(*coeffs)
    worst = max(plane.residual_at(SpherePoint(*r)) for r in rows)
    if worst > 1e-9:
        raise GeometryError(f"plane fit residual {worst:.3e} too large")
    return plane


def interior_angle_deg(at: SpherePoint, toward_a: SpherePoint,
                       toward_b: SpherePoint) -> float:
    """Angle at `at` between the chords toward the two neighbors, degrees."""
    u = _sub(toward_a, at)
    v = _sub(toward_b, at)
    c = _dot(u, v) / (_norm(u) * _norm(v))
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.acos(c))


PENTAGON_CYCLE = ("A1", "A7", "A13", "A8", "A2")


class FaceGeometryReport(_Record, frozen=True):
    """Metric data of one pentagonal face, walked in cycle order."""

    labels: tuple[str, ...]
    points: dict[str, SpherePoint]
    edge_lengths: tuple[float, ...]        # edge i joins labels[i], labels[i+1]
    interior_angles: tuple[float, ...]     # angle i sits at labels[i]
    plane_quad: Plane                      # through v0, v4, v1 (contains v3 too)
    plane_cap: Plane                       # through v1, v2, v3
    quad_coplanarity_residual: float       # v3 against plane_quad
    dihedral_deg: float

    def edges(self) -> list[tuple[str, str, float]]:
        n = len(self.labels)
        return [(self.labels[i], self.labels[(i + 1) % n], self.edge_lengths[i])
                for i in range(n)]

    def angles(self) -> list[tuple[str, float]]:
        return list(zip(self.labels, self.interior_angles))

    def to_report(self) -> dict:
        return {
            "cycle": list(self.labels),
            "vertices": {
                lab: [pt.x, pt.y, pt.z] for lab, pt in self.points.items()},
            "edges": [
                {"from": a, "to": b, "length": length}
                for a, b, length in self.edges()],
            "angles": [
                {"at": lab, "degrees": ang} for lab, ang in self.angles()],
            "plane_quad": [self.plane_quad.p, self.plane_quad.q, self.plane_quad.r],
            "plane_cap": [self.plane_cap.p, self.plane_cap.q, self.plane_cap.r],
            "quad_coplanarity_residual": self.quad_coplanarity_residual,
            "dihedral_degrees": self.dihedral_deg,
        }


def face_geometry(labels: tuple[str, ...] = PENTAGON_CYCLE) -> FaceGeometryReport:
    """Euclidean report for a pentagonal face given by five vertex labels in
    cycle order.  The default is the distinguished face spanning both
    vertex rings of the barrel."""
    if len(labels) != 5:
        raise GeometryError("a pentagonal face needs exactly five labels")
    if len(set(labels)) != 5:
        raise GeometryError(
            f"a pentagonal face needs five distinct labels, got {labels}")
    verts = barrel_vertices()
    try:
        pts = {lab: inverse_stereographic(verts[lab]) for lab in labels}
    except KeyError as missing:
        raise GeometryError(f"unknown vertex label {missing}") from None

    seq = [pts[lab] for lab in labels]
    lengths = tuple(
        _norm(_sub(seq[(i + 1) % 5], seq[i])) for i in range(5))
    angles = tuple(
        interior_angle_deg(seq[i], seq[(i - 1) % 5], seq[(i + 1) % 5])
        for i in range(5))

    plane_quad = plane_through(seq[0], seq[4], seq[1])
    plane_cap = plane_through(seq[1], seq[2], seq[3])
    quad_res = plane_quad.residual_at(seq[3])
    n1 = plane_quad.unit_normal()
    n2 = plane_cap.unit_normal()
    c = max(-1.0, min(1.0, _dot(n1, n2)))
    dihedral = math.degrees(math.acos(c))

    return FaceGeometryReport(
        labels=tuple(labels), points=pts, edge_lengths=lengths,
        interior_angles=angles, plane_quad=plane_quad, plane_cap=plane_cap,
        quad_coplanarity_residual=quad_res, dihedral_deg=dihedral)
