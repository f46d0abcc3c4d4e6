"""Roots, sphere projection, and the pentagonal-face metric report."""

import cmath
import math

import pytest

from fullerene_belyi import geometry
from fullerene_belyi.exact import GaussRat, UniPoly
from fullerene_belyi.geometry import (GeometryError, barrel_vertex_polynomial,
                                      barrel_vertices, face_geometry,
                                      inverse_stereographic, plane_through,
                                      poly_roots, residual_scale, SpherePoint)
from oracles import quartic_oracle_roots

# Frozen output of the exact-bisection oracle on Z^4+228Z^3+494Z^2-228Z+1
# (see oracles.quartic_oracle_roots, which recomputes them).  The two positive
# roots are the sixth powers of the inner radii; the negatives are -r^6 of
# the outer ones.
QUARTIC_ROOTS = (-225.807827419436, -2.58365039523806,
                 0.00442854444608118, 0.387049270227545)


def test_quartic_roots_against_bisection_oracle():
    oracle = quartic_oracle_roots()
    assert oracle == pytest.approx(sorted(QUARTIC_ROOTS), rel=1e-12)
    quartic = UniPoly.from_terms({4: 1, 3: 228, 2: 494, 1: -228, 0: 1})
    roots = poly_roots(quartic)
    assert all(abs(r.imag) < 1e-12 for r in roots)
    got = sorted(r.real for r in roots)
    assert got == pytest.approx(sorted(QUARTIC_ROOTS), rel=1e-10)
    product = 1.0
    for r in got:
        product *= r
    assert product == pytest.approx(1.0, abs=1e-9)


def test_simple_roots():
    assert poly_roots(UniPoly.from_terms({2: 1, 0: 1})) == pytest.approx(
        [1j, -1j])
    roots = poly_roots(UniPoly.from_terms({2: 1, 1: 22, 0: 125}))
    assert roots == pytest.approx([-11 + 2j, -11 - 2j])


def test_roots_requires_squarefree():
    with pytest.raises(ValueError):
        poly_roots(UniPoly.from_terms({2: 1, 1: -2, 0: 1}))


def test_roots_deterministic_ordering():
    p = UniPoly.from_terms({6: 1, 0: -1})
    first = poly_roots(p)
    second = poly_roots(p)
    assert first == second
    assert [abs(r) for r in first] == pytest.approx([1.0] * 6)


def test_barrel_root_residuals():
    v = barrel_vertex_polynomial()
    assert v == UniPoly.from_terms({24: 1, 18: 228, 12: 494, 6: -228, 0: 1})
    for z in barrel_vertices().points.values():
        value = 0j
        for c in reversed(v.coeffs):
            value = value * z + complex(c)
        assert abs(value) <= 1e-10 * residual_scale(v, z)


@pytest.fixture
def fresh_barrel():
    """Empty the barrel_vertices cache before and after the test, so a
    monkeypatched vertex polynomial is read and does not leak."""
    geometry.barrel_vertices.cache_clear()
    yield
    geometry.barrel_vertices.cache_clear()


SHAPE = r"not of the form w\^4 \+ s w\^3 \+ c w\^2 - s w \+ 1"
ROOTS = r"needs s > 0, c \+ 2 > 0 and s\^2 > 4\(c \+ 2\)"


@pytest.mark.parametrize("terms, message", [
    ({24: 1, 18: 228, 12: 494, 7: 1, 6: -228, 0: 1}, "polynomial in z\\^6"),
    ({24: 1, 0: GaussRat.of(0, 1)}, "non-real"),
    ({24: 1, 18: 228, 12: 494, 6: -228, 0: 100000}, SHAPE),
    ({24: 1, 18: -228, 12: 494, 6: 228, 0: 1}, ROOTS),
    ({24: 1, 18: 228, 12: 494, 6: -228, 0: 2}, SHAPE),
    ({24: 1, 18: 228, 12: 494, 6: -227, 0: 1}, SHAPE),
    ({24: 2, 18: 228, 12: 494, 6: -228, 0: 1}, SHAPE),
    ({18: 1, 12: 228, 6: 494, 0: 1}, SHAPE),
    ({24: 1, 12: 494, 0: 1}, ROOTS),
    ({24: 1, 18: 228, 12: -10, 6: -228, 0: 1}, ROOTS),
    # (w^2 + 2w - 1)^2: s^2 = 4(c + 2), a double pair of roots
    ({24: 1, 18: 4, 12: 2, 6: -4, 0: 1}, ROOTS),
    ({24: 1, 18: 1, 6: -1, 0: 1}, ROOTS),
], ids=["not-in-z6", "non-real", "complex-pair", "flipped-signs",
        "constant-not-one", "c1-not-minus-c3", "not-monic", "cubic",
        "s-zero", "c-plus-2-negative", "square", "complex-roots"])
def test_barrel_vertices_reject_mutated_polynomial(monkeypatch, fresh_barrel,
                                                   terms, message):
    monkeypatch.setattr(geometry, "barrel_vertex_polynomial",
                        lambda: UniPoly.from_terms(terms))
    with pytest.raises(GeometryError, match=message):
        barrel_vertices()


def test_barrel_vertices_need_no_root_finder(monkeypatch, fresh_barrel):
    # q's roots come in closed form from its shape, so the vertices are
    # placed without the general root finder
    def refuse(*args, **kwargs):
        raise AssertionError("poly_roots called")

    monkeypatch.setattr(geometry, "poly_roots", refuse)
    radii = barrel_vertices().radii
    assert radii == pytest.approx((0.405238, 0.853679, 1.171401, 2.467686),
                                  abs=1e-6)


def test_barrel_vertices_on_real_axis():
    verts = barrel_vertices()
    assert verts["A1"].imag == 0.0 and verts["A1"].real > 0
    assert verts["A7"].imag == 0.0 and verts["A7"].real > 0


def test_barrel_radii_against_quartic_oracle():
    # the bisection oracle and the general root finder, both independent
    # of the closed form
    q = UniPoly.from_terms({4: 1, 3: 228, 2: 494, 1: -228, 0: 1})
    got = barrel_vertices().radii
    assert len(got) == 4
    for roots in (quartic_oracle_roots(), poly_roots(q)):
        want = [abs(w) ** (1.0 / 6.0) for w in sorted(roots, key=abs)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12


def test_barrel_ring_radii():
    radii = barrel_vertices().radii
    printed = (0.405, 0.853, 1.171, 2.467)
    for got, want in zip(radii, printed):
        assert abs(got - want) <= 5e-3
    assert abs(radii[0] * radii[3] - 1.0) <= 1e-9
    assert abs(radii[1] * radii[2] - 1.0) <= 1e-9


def test_barrel_vertex_rotational_structure():
    verts = barrel_vertices()
    w = cmath.exp(1j * math.pi / 3)
    assert abs(verts["A2"] - w * verts["A1"]) <= 1e-9
    assert abs(verts["A8"] - w * verts["A7"]) <= 1e-9
    for k in range(13, 18):
        assert abs(verts[f"A{k + 1}"] - w * verts[f"A{k}"]) <= 1e-9
    flip = cmath.exp(1j * math.pi / 6)
    assert abs(verts["A19"] - flip / verts["A1"]) <= 1e-9
    assert abs(verts["A13"] - flip / verts["A7"]) <= 1e-9


# ---------------------------------------------------------------------------
# stereographic projection
# ---------------------------------------------------------------------------


def test_inverse_stereographic_origin():
    pt = inverse_stereographic(0j)
    assert (pt.x, pt.y, pt.z) == (0.0, 0.0, -1.0)


PRINTED_COORDS = {
    "A1": (0.696, 0.0, -0.717),
    "A2": (0.348, 0.602, -0.717),
    "A7": (0.987, 0.0, -0.156),
    "A8": (0.493, 0.855, -0.156),
    "A13": (0.855, 0.493, 0.156),
}


def test_pentagon_coordinates_match_table():
    verts = barrel_vertices()
    for label, want in PRINTED_COORDS.items():
        got = inverse_stereographic(verts[label])
        for g, w in zip(got.as_tuple(), want):
            assert abs(g - w) <= 5e-3, label


def test_all_projections_on_sphere():
    for z in barrel_vertices().points.values():
        assert inverse_stereographic(z).sphere_residual() <= 1e-12


# ---------------------------------------------------------------------------
# planes
# ---------------------------------------------------------------------------


def test_plane_through_cap():
    verts = barrel_vertices()
    pts = {lab: inverse_stereographic(verts[lab]) for lab in PRINTED_COORDS}
    plane = plane_through(pts["A7"], pts["A8"], pts["A13"])
    for got, want in zip((plane.p, plane.q, plane.r), (0.939, 0.542, -0.457)):
        assert abs(got - want) <= 2e-3


def test_plane_through_quad_holds_fourth_point():
    verts = barrel_vertices()
    pts = {lab: inverse_stereographic(verts[lab]) for lab in PRINTED_COORDS}
    plane = plane_through(pts["A1"], pts["A2"], pts["A7"])
    for got, want in zip((plane.p, plane.q, plane.r), (0.935, 0.540, -0.485)):
        assert abs(got - want) <= 2e-3
    assert plane.residual_at(pts["A8"]) <= 1e-3


def test_plane_rejects_collinear():
    with pytest.raises(GeometryError):
        plane_through(SpherePoint(0.1, 0, 0), SpherePoint(0.2, 0, 0),
                      SpherePoint(0.3, 0, 0))


# ---------------------------------------------------------------------------
# the face report
# ---------------------------------------------------------------------------

PRINTED_LENGTHS = (0.632, 0.599, 0.599, 0.632, 0.696)
PRINTED_ANGLES = {"A1": 103.3, "A7": 111.2, "A13": 110.8,
                  "A8": 111.2, "A2": 103.3}


def test_face_edge_lengths():
    report = face_geometry()
    assert report.labels == ("A1", "A7", "A13", "A8", "A2")
    for got, want in zip(report.edge_lengths, PRINTED_LENGTHS):
        assert abs(got - want) <= 5e-3


def test_face_axial_symmetry():
    report = face_geometry()
    lengths = report.edge_lengths
    assert abs(lengths[0] - lengths[3]) <= 1e-9   # |A1A7| = |A8A2|
    assert abs(lengths[1] - lengths[2]) <= 1e-9   # |A7A13| = |A13A8|
    angles = dict(report.angles())
    assert abs(angles["A1"] - angles["A2"]) <= 1e-9
    assert abs(angles["A7"] - angles["A8"]) <= 1e-9


def test_face_angles_truncate_to_printed_digits():
    # the reference table truncates decimals, so the honest comparison is
    # that each computed angle starts with the printed digits
    for label, angle in face_geometry().angles():
        assert math.floor(angle * 10) / 10 == PRINTED_ANGLES[label], label


def test_face_angle_sum_near_flat():
    total = sum(a for _, a in face_geometry().angles())
    assert abs(total - 540.0) <= 0.5


def test_face_planes_and_dihedral():
    report = face_geometry()
    assert report.quad_coplanarity_residual <= 1e-9
    assert abs(report.dihedral_deg - 1.36) <= 0.05
    n1 = report.plane_quad.unit_normal()
    n2 = report.plane_cap.unit_normal()
    dot = sum(a * b for a, b in zip(n1, n2))
    assert abs(dot - 0.9997) <= 5e-4


def test_face_geometry_unknown_label():
    with pytest.raises(GeometryError):
        face_geometry(("A1", "A7", "A13", "A8", "B9"))


@pytest.mark.parametrize("labels", [("A1", "A1", "A7", "A13", "A8"),
                                    ("A1", "A7", "A13", "A8", "A1")])
def test_face_geometry_repeated_label(labels):
    with pytest.raises(GeometryError, match="five distinct labels"):
        face_geometry(labels)


def test_face_geometry_deterministic():
    a = face_geometry()
    b = face_geometry()
    assert a.edge_lengths == b.edge_lengths
    assert a.interior_angles == b.interior_angles
    assert a.to_report() == b.to_report()
