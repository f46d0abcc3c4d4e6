"""Command-line surface.

Subcommands:

  facevector <p6>              face vector, dessin size, unknown/equation count
  passport <p6>                the branching passport of the p6-hexagon fullerene
  verify <preset|file>         certify a factored Belyi function, print passport
  derive <s>                   run the one-big-face derivation for face degree s
  compose <d12|d60|d72|schwarz>  build a preset by composition / check Schwarz
  geometry barrel [--svg PATH] metric report of the distinguished pentagon

Every command takes --format text|json and --output PATH.  JSON output is a
single self-describing document; text output is fixed-layout.  Exit status is
0 on success and 1 with a named error on any failed check.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .belyi import (BelyiFormatError, BelyiVerificationError, FactoredBelyi,
                    _product, face_vector, counting, fullerene_passport)
from .derive import Verdict, d6_solve, derive_case

# moebius, geometry and json are imported by the commands that use them,
# so that each command pays at start-up only for what it runs; the
# FaceGeometryReport of the SVG annotations is geometry's (annotations are
# not evaluated)

PRESETS = ("d6", "d12", "d60", "d72")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_preset(name: str) -> FactoredBelyi:
    if name == "d6":
        return d6_solve().belyi
    from .moebius import build_beta12, build_beta60, build_beta72
    if name == "d12":
        return build_beta12()
    if name == "d60":
        return build_beta60()
    if name == "d72":
        return build_beta72()
    raise KeyError(name)


def _round_floats(obj, digits: int = 12):
    # significant digits, so residuals of 1e-16 survive the trip to JSON
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _factors_str(factors) -> str:
    if not factors:
        return "1"
    return " * ".join(f"({f})^{e}" if e != 1 else f"({f})" for f, e in factors)


# ---------------------------------------------------------------------------
# command implementations: each returns (json document, text lines)
# ---------------------------------------------------------------------------


def cmd_facevector(p6: int):
    params = face_vector(p6)
    unknowns, equations, excess = counting(p6)
    doc = {
        "command": "facevector",
        "p6": p6,
        "vertices": params.f0,
        "edges": params.f1,
        "faces": params.f2,
        "pentagons": 12,
        "dessin_edges": params.n_dessin_edges,
        "realizable": params.realizable,
        "unknowns": unknowns,
        "equations": equations,
        "excess": excess,
    }
    lines = [
        f"p6 = {p6}: vertices {params.f0}, edges {params.f1}, "
        f"faces {params.f2} (12 pentagons, {p6} hexagon{'' if p6 == 1 else 's'})",
        f"dessin edges: {params.n_dessin_edges}",
        f"factored-form unknowns {unknowns}, equations {equations}, "
        f"excess {excess} (Moebius gauge)",
        "realizable: " + ("yes" if params.realizable else
                          "no (single-hexagon case, see `derive 6`)"),
    ]
    return doc, lines


def cmd_passport(p6: int):
    pp = fullerene_passport(p6)
    doc = {
        "command": "passport",
        "p6": p6,
        "black": list(pp.black),
        "white": list(pp.white),
        "faces": list(pp.faces),
        "degree": pp.degree,
        "display": str(pp),
    }
    return doc, [f"{pp}   degree {pp.degree}"]


def cmd_verify(target: str):
    if target in PRESETS:
        beta = load_preset(target)
        source = f"preset {target}"
    else:
        if not os.path.exists(target):
            raise FileNotFoundError(
                f"{target!r} is neither a preset ({', '.join(PRESETS)}) "
                "nor an existing file")
        with open(target, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BelyiFormatError(f"not a UTF-8 document: {exc.reason} at "
                                   f"byte offset {exc.start}") from exc
        beta = FactoredBelyi.from_text(text)
        source = target
    passport = beta.verify()
    doc = {
        "command": "verify",
        "source": source,
        "degree": beta.degree,
        "k": beta.k.to_token(),
        "zeros": [[str(f), e] for f, e in beta.zero_factors],
        "ones": [[str(f), e] for f, e in beta.one_factors],
        "poles": [[str(f), e] for f, e in beta.pole_factors],
        "infinity": [beta.infinity_side, beta.infinity_order],
        "passport": str(passport),
        "checks": {"identity": "ok", "squarefree_coprime": "ok",
                   "degree_balance": "ok"},
    }
    lines = [
        f"{source}: degree {beta.degree}, k = {beta.k}",
        f"zeros: {_factors_str(beta.zero_factors)}",
        f"ones:  {_factors_str(beta.one_factors)}",
        f"poles: {_factors_str(beta.pole_factors)}"
        + (f" ; infinity {beta.infinity_side}^{beta.infinity_order}"
           if beta.infinity_side != "none" else ""),
        "identity, squarefreeness, coprimality, degree balance: ok",
        f"passport: {passport}",
    ]
    return doc, lines


def cmd_derive(s: int):
    report = derive_case(s)
    doc = {"command": "derive", **report.to_report()}
    lines = [
        f"s = {s}: n = {report.n} edges, required degrees "
        f"V:{report.vertex_degree} M:{report.midpoint_degree} "
        f"P:{report.face_degree}",
        f"verdict: {report.verdict.value}",
    ]
    if report.verdict is Verdict.NO_SOLUTION_LEADING_COEFF:
        lines.append(
            f"ODE top coefficient (s-6)(s-5)(s+5)(s+6) = {report.leading_coeff}"
            " != 0: no monic P solves the ODE")
    if report.verdict is Verdict.SOLVED:
        lines += [f"P = {report.P}", f"V = {report.V}", f"M = {report.M}",
                  f"k = {report.k}  (V^3 = M^2 + k*P^5)"]
    if report.family:
        lines.append(f"family in free variables {', '.join(report.free_vars)}:")
        lines += [f"  {name} = {expr}" for name, expr in report.family.items()]
        lines.append(f"k = {report.k}")
    if report.trace is not None:
        lines.append("elimination steps:")
        lines += [f"  z^{st.label}: {st.variable} = {st.substitution}"
                  for st in report.trace.steps]
    lines += list(report.notes)
    if report.verdict is not Verdict.SOLVED:
        lines.append(
            "no dessin with one face of degree s among pentagons exists for "
            "s != 5; the s = 6 case rules out the C22 fullerene, so C22 is "
            "non-realizable")
    return doc, lines


def cmd_compose(what: str, write_path: str | None = None):
    if write_path and what == "schwarz":
        raise ValueError("--write applies to the d12/d60/d72 targets")
    from .moebius import schwarz_check, schwarz_forms
    if what == "schwarz":
        phi12, phi20, phi30 = schwarz_forms()
        # schwarz_check raises when the identity fails
        if not schwarz_check():
            raise BelyiVerificationError(
                "the degree-60 function after z -> -z differs from the Schwarz triple")
        doc = {
            "command": "compose",
            "target": "schwarz",
            "phi12": str(phi12),
            "phi20": str(phi20),
            "phi30": str(phi30),
            "identity": "phi20^3 - phi30^2 = 1728 * phi12^5",
            "matches_degree60": True,
        }
        lines = [
            f"phi12 = {phi12}",
            f"phi20 = {phi20}",
            f"phi30 = {phi30}",
            "phi20^3 - phi30^2 = 1728 * phi12^5: ok",
            "degree-60 function after z -> -z equals phi20^3/(1728 phi12^5): ok",
        ]
        return doc, lines
    if what not in ("d12", "d60", "d72"):
        raise KeyError(what)
    beta = load_preset(what)
    passport = beta.verify()
    # verify proved the factors monic and the zeros coprime to the poles,
    # so k * num/den is the map in lowest terms, of degree beta.degree
    num, den = _product(beta.zero_factors), _product(beta.pole_factors)
    doc = {
        "command": "compose",
        "target": what,
        "k": beta.k.to_token(),
        "numerator": num.to_tokens(),
        "denominator": den.to_tokens(),
        "degree": beta.degree,
        "passport": str(passport),
    }
    lines = [
        f"{what}: degree {beta.degree}",
        f"k   = {beta.k}",
        f"num = {num}",
        f"den = {den}",
        f"passport: {passport}",
    ]
    if write_path:
        _write_text(write_path, beta.to_text())
        doc["written"] = write_path
        lines.append(f"factored form written to {write_path}")
    return doc, lines


def cmd_geometry(svg_path: str | None):
    from .geometry import PENTAGON_CYCLE, barrel_vertices, face_geometry
    verts = barrel_vertices()
    report = face_geometry(PENTAGON_CYCLE)
    doc = {
        "command": "geometry",
        "target": "barrel",
        "ring_radii": list(verts.radii),
        "radii_products": [verts.radii[0] * verts.radii[3],
                           verts.radii[1] * verts.radii[2]],
        "face": report.to_report(),
    }
    r = verts.radii
    lines = [
        "vertex rings: r1 = %.6f, r2 = %.6f, r3 = %.6f, r4 = %.6f" % r,
        "reciprocal pairing: r1*r4 = %.12f, r2*r3 = %.12f"
        % (r[0] * r[3], r[1] * r[2]),
        "pentagon " + " ".join(report.labels) + ":",
    ]
    for lab in report.labels:
        pt = report.points[lab]
        lines.append("  %-4s X = %9.6f  Y = %9.6f  Z = %9.6f"
                     % (lab, pt.x, pt.y, pt.z))
    for a, b, length in report.edges():
        lines.append(f"  |{a}{b}| = %.6f" % length)
    for lab, ang in report.angles():
        lines.append(f"  angle at {lab} = %.4f deg" % ang)
    lines.append("  plane through %s %s %s (and %s): %.6f X + %.6f Y + %.6f Z = 1"
                 % (report.labels[0], report.labels[4], report.labels[1],
                    report.labels[3], report.plane_quad.p, report.plane_quad.q,
                    report.plane_quad.r))
    lines.append("  plane through %s %s %s: %.6f X + %.6f Y + %.6f Z = 1"
                 % (report.labels[1], report.labels[2], report.labels[3],
                    report.plane_cap.p, report.plane_cap.q, report.plane_cap.r))
    lines.append("  coplanarity residual of %s: %.3e"
                 % (report.labels[3], report.quad_coplanarity_residual))
    lines.append("  dihedral between the planes: %.4f deg" % report.dihedral_deg)
    if svg_path:
        emit_svg(report, svg_path)
        doc["svg"] = svg_path
        lines.append(f"flat-approximation SVG written to {svg_path}")
    return doc, lines


# ---------------------------------------------------------------------------
# SVG emitter
# ---------------------------------------------------------------------------


def flat_pentagon_layout(report: FaceGeometryReport) -> list[tuple[float, float]]:
    """Planar vertex chain from the reported edge lengths and interior
    angles.  Because the true face is not flat, the raw turtle walk misses
    closure by a small gap; the gap is distributed over the chain in
    proportion to traversed length (compass-traverse adjustment), after
    which the polygon closes exactly."""
    lengths = report.edge_lengths
    angles = report.interior_angles
    pts = [(0.0, 0.0)]
    heading = 0.0
    for i in range(5):
        x, y = pts[-1]
        pts.append((x + lengths[i] * math.cos(heading),
                    y + lengths[i] * math.sin(heading)))
        heading += math.pi - math.radians(angles[(i + 1) % 5])
    gap = (pts[5][0] - pts[0][0], pts[5][1] - pts[0][1])
    total = sum(lengths)
    walked = 0.0
    adjusted = [pts[0]]
    for i in range(1, 6):
        walked += lengths[i - 1]
        f = walked / total
        adjusted.append((pts[i][0] - f * gap[0], pts[i][1] - f * gap[1]))
    # adjusted[5] now coincides with adjusted[0]
    return adjusted[:5]


def render_svg(report: FaceGeometryReport) -> str:
    pts = flat_pentagon_layout(report)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    margin = 0.16
    width = max(xs) - min(xs) + 2 * margin
    height = max(ys) - min(ys) + 2 * margin
    scale = 640.0 / max(width, height)

    def to_canvas(p):
        # SVG y axis points down
        return ((p[0] - min(xs) + margin) * scale,
                (max(ys) - p[1] + margin) * scale)

    canvas = [to_canvas(p) for p in pts]
    centroid = (sum(c[0] for c in canvas) / 5.0, sum(c[1] for c in canvas) / 5.0)
    w = width * scale
    h = height * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w:.2f} {h:.2f}" '
        f'width="{w:.0f}" height="{h:.0f}">',
        "  <desc>Flat approximation of the pentagonal face "
        + " ".join(report.labels)
        + "; edge lengths and chord angles from the sphere, closed by a "
          "proportional traverse adjustment.</desc>",
        '  <polygon points="'
        + " ".join(f"{x:.6f},{y:.6f}" for x, y in canvas)
        + '" fill="#f3e8c8" stroke="#543" stroke-width="2"/>',
    ]
    for i in range(5):
        a = canvas[i]
        b = canvas[(i + 1) % 5]
        mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        # push the label slightly outward from the centroid
        dx, dy = mid[0] - centroid[0], mid[1] - centroid[1]
        nd = math.hypot(dx, dy) or 1.0
        lx, ly = mid[0] + 18 * dx / nd, mid[1] + 18 * dy / nd
        parts.append(
            f'  <text x="{lx:.1f}" y="{ly:.1f}" font-size="15" '
            f'text-anchor="middle">{report.edge_lengths[i]:.4f}</text>')
    for i, lab in enumerate(report.labels):
        x, y = canvas[i]
        dx, dy = x - centroid[0], y - centroid[1]
        nd = math.hypot(dx, dy) or 1.0
        parts.append(
            f'  <text x="{x + 34 * dx / nd:.1f}" y="{y + 34 * dy / nd:.1f}" '
            f'font-size="16" font-weight="bold" text-anchor="middle">{lab}</text>')
        parts.append(
            f'  <text x="{x - 40 * dx / nd:.1f}" y="{y - 40 * dy / nd:.1f}" '
            f'font-size="13" text-anchor="middle">'
            f'{report.interior_angles[i]:.2f}&#176;</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(report: FaceGeometryReport, path: str) -> None:
    _write_text(path, render_svg(report))


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullerene-belyi",
        description="Exact Belyi functions of the smallest fullerenes")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("facevector", help="face vector of the p6-hexagon fullerene")
    p.add_argument("p6", type=int)
    p.set_defaults(run=lambda a: cmd_facevector(a.p6))

    p = sub.add_parser("passport", help="branching passport of the fullerene")
    p.add_argument("p6", type=int)
    p.set_defaults(run=lambda a: cmd_passport(a.p6))

    p = sub.add_parser("verify", help="certify a factored Belyi function")
    p.add_argument("target", help="preset name (d6, d12, d60, d72) or file path")
    p.set_defaults(run=lambda a: cmd_verify(a.target))

    p = sub.add_parser("derive", help="one-big-face derivation for face degree s")
    p.add_argument("s", type=int)
    p.set_defaults(run=lambda a: cmd_derive(a.s))

    p = sub.add_parser("compose", help="build a composed preset or check Schwarz")
    p.add_argument("target", choices=("d12", "d60", "d72", "schwarz"))
    p.add_argument("--write", metavar="PATH",
                   help="also write the factored form to a belyi v1 file")
    p.set_defaults(run=lambda a: cmd_compose(a.target, a.write))

    p = sub.add_parser("geometry", help="metric report of the barrel pentagon")
    p.add_argument("target", choices=("barrel",))
    p.add_argument("--svg", metavar="PATH", help="also write the flat-face SVG")
    p.set_defaults(run=lambda a: cmd_geometry(a.svg))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, lines = args.run(args)
        if args.format == "json":
            import json
            text = json.dumps(_round_floats(doc), indent=2) + "\n"
        else:
            text = "\n".join(lines) + "\n"
        if args.output:
            _write_text(args.output, text)
        else:
            sys.stdout.write(text)
    # BelyiVerificationError and geometry's GeometryError are ValueErrors
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
