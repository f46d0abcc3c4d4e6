"""Command-line surface: reports, round-trips, determinism, SVG."""

import json
import math
import re
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from fullerene_belyi.belyi import MAX_PASSPORT_P6
from fullerene_belyi.cli import (COMMANDS, flat_pentagon_layout, main,
                                 read_command_line, render_svg)
from fullerene_belyi.exact import UniPoly, _int_string_limit
from fullerene_belyi.geometry import (FaceGeometryReport, Plane, SpherePoint,
                                      face_geometry)
from fullerene_belyi.multipoly import MultiPoly
from oracles import dense_document, exit_of, reader_agrees, reference_parser


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------


def test_facevector_text(capsys):
    code, out, err = run_cli(capsys, "facevector", "2")
    assert code == 0 and not err
    assert "vertices 24, edges 36, faces 14" in out
    assert "dessin edges: 72" in out
    assert "unknowns 76, equations 73, excess 3" in out


def test_facevector_flags_single_hexagon(capsys):
    code, out, _ = run_cli(capsys, "facevector", "1")
    assert code == 0
    assert "realizable: no" in out


def test_passport_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "passport", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["display"] == "(3^20 | 2^30 | 5^12)"
    assert doc["degree"] == 60


@pytest.mark.parametrize("p6", [10 ** 15, MAX_PASSPORT_P6 + 1])
def test_passport_rejects_huge_p6_before_allocating(capsys, p6):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "passport", str(p6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and not out
    assert err.startswith("error: ValueError: ")
    assert peak < 1 << 20
    # the face vector is O(1) and stays unbounded
    code, out, _ = run_cli(capsys, "facevector", str(p6))
    assert code == 0 and f"faces {12 + p6} " in out


def test_verify_preset(capsys):
    code, out, _ = run_cli(capsys, "verify", "d60")
    assert code == 0
    assert "passport: (3^20 | 2^30 | 5^12)" in out
    assert "ok" in out


def test_verify_rejects_exponent_bomb_before_any_product(capsys, tmp_path):
    path = tmp_path / "huge.belyi"
    path.write_text("belyi v1\nk 1\ninfinity pole 1000000000\n"
                    "zero 1000000000 0 1\none 1 1 1\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and not out
    assert err == ("error: DegreeImbalance: one side sums to 1, "
                   "zero side to 1000000000\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [["derive", "abc"], ["compose", "d13"], []],
                         ids=["derive-not-an-int", "compose-unknown-target",
                              "no-subcommand"])
def test_usage_errors_exit_2(argv):
    # argparse refuses a bad flag or argument before any command runs: exit
    # 2 with its usage message, not 1 with a named error
    code, out, err = exit_of(main, argv)
    assert code == 2 and not out and err.startswith("usage: fullerene-belyi")
    assert (code, out, err) == exit_of(reference_parser().parse_args, argv)


# ---------------------------------------------------------------------------
# the command-line reader against the reference parser
# ---------------------------------------------------------------------------

# the README's commands and the benchmark's (perfbench/checks.py), each run
# in text and json, bare and with --format
README_ARGV = [("facevector", "2"), ("passport", "0"), ("verify", "d60"),
               ("derive", "6"), ("compose", "d72", "--write", "barrel.belyi"),
               ("verify", "barrel.belyi"), ("compose", "schwarz"),
               ("geometry", "barrel", "--svg", "face.svg")]
BENCHMARK_ARGV = [("derive", "5"), ("verify", "d6"), ("compose", "d12"),
                  ("compose", "d60"),
                  ("compose", "d72", "--write", ".perfbench/barrel.belyi"),
                  ("verify", ".perfbench/barrel.belyi"),
                  ("geometry", "barrel", "--svg", ".perfbench/face.svg")]
PLAIN_ARGV = [[*fmt, *argv] for argv in README_ARGV + BENCHMARK_ARGV
              for fmt in ((), ("--format", "text"), ("--format", "json"))]
PLAIN_ARGV += [["--output", "report.txt", "--format", "json", "passport", "1"],
               ["--format", "json", "--output", "", "verify", ""],
               ["--output", "derive", "derive", "1"],
               ["geometry", "barrel", "--svg", ""]]
HELP_ARGV = [["-h"], ["--help"], *([sub, "--help"] for sub in COMMANDS),
             ["--format", "json", "derive", "-h"]]
# command lines the reader leaves to argparse, which refuses or accepts them
TRAPS = [
    ["--format", "yaml", "--format", "json", "derive", "6"],
    ["--format", "json", "--format", "json", "derive", "6"],
    ["--output", "a", "--output", "b", "derive", "1"],
    ["passport", "5" * 5000], ["derive", "1" * 5000],
    ["passport", "\u0666"], ["passport", "+6"], ["passport", " 6"],
    ["passport", "6_0"], ["derive", "-5"], ["derive", ""],
    ["--form", "json", "derive", "6"], ["--format=json", "derive", "6"],
    ["--"], ["--", "derive", "6"], ["derive", "--", "6"],
    ["derive", "6", "--format", "json"], ["derive", "6", "7"],
    ["compose", "--write", "x.belyi", "d72"], ["compose", "d72", "--wri", "x"],
    ["compose", "d72", "--write"], ["compose", "d72", "--write", "-x"],
    ["compose", "d72", "--write=x.belyi"], ["compose", "d72", "--svg", "x"],
    ["compose", "d72", "--write", "a", "--write", "b"],
    ["geometry", "barrel", "--write", "x"], ["geometry", "Barrel"],
    ["--output", "-", "derive", "1"], ["--format", "json"], ["derive"],
    ["deriv", "6"],
]


def argv_id(argv):
    text = " ".join(argv)
    return text if len(text) <= 40 else f"{text[:30]}...({len(text)} chars)"


@pytest.fixture
def in_scratch(tmp_path, monkeypatch):
    """A working directory holding the files the listed command lines
    read, with room for those they write."""
    d72 = (GOLDEN / "d72.belyi").read_bytes()
    (tmp_path / ".perfbench").mkdir()
    for path in ("barrel.belyi", ".perfbench/barrel.belyi"):
        (tmp_path / path).write_bytes(d72)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", PLAIN_ARGV + HELP_ARGV + TRAPS, ids=argv_id)
def test_reader_attributes_are_the_reference_parsers(argv):
    assert reader_agrees(argv) == (argv in PLAIN_ARGV)


@pytest.mark.parametrize("argv", PLAIN_ARGV + HELP_ARGV + TRAPS, ids=argv_id)
def test_exits_are_the_reference_parsers_byte_for_byte(in_scratch, argv):
    got = exit_of(main, argv)
    assert got == exit_of(reference_parser().parse_args, argv)
    if argv in HELP_ARGV:
        assert got[:1] == (0,) and got[1].startswith("usage: fullerene-belyi")


def test_a_plain_command_line_builds_no_parser(monkeypatch):
    monkeypatch.setattr("fullerene_belyi.cli.build_parser", None)
    for argv in (["--format", "json", "passport", "0"], ["facevector", "2"]):
        assert main(argv) == 0


def test_verify_unknown_preset_fails(capsys):
    code, out, err = run_cli(capsys, "verify", "d61")
    assert code == 1
    assert not out
    assert "error:" in err


def test_derive_1_report(capsys):
    code, out, _ = run_cli(capsys, "derive", "1")
    assert code == 0
    assert "NoSolutionLeadingCoeff" in out
    assert "840" in out
    assert "C22" in out and "non-realizable" in out


def test_derive_5_report(capsys):
    code, out, _ = run_cli(capsys, "derive", "5")
    assert code == 0
    assert "verdict: Solved" in out
    assert "P = z^11 - 11*z^6 - z" in out
    assert "k = 1728" in out
    assert "a1 = -1/121*a6^2" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, made", [
    (["derive", "6"], {"MultiPoly": 92, "UniPoly": 3}),
    (["verify", "d72"], {"UniPoly": 4}),
])
def test_each_report_polynomial_is_printed_once(capsys, monkeypatch, fmt, argv, made):
    """The text lines read the strings of the JSON document, so either
    format turns each report polynomial into a string once: derive 6's
    family, k, trace and P, V, M, and verify's factors."""
    counts = Counter()
    for cls in (MultiPoly, UniPoly):
        def counted(self, text=cls.__str__, name=cls.__name__):
            counts[name] += 1
            return text(self)
        monkeypatch.setattr(cls, "__str__", counted)
    assert main(["--format", fmt, *argv]) == 0
    capsys.readouterr()
    assert dict(counts) == made


def test_compose_d60_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "compose", "d60")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 60
    assert doc["passport"] == "(3^20 | 2^30 | 5^12)"
    assert doc["k"] == "1/1728"


def test_compose_schwarz(capsys):
    code, out, _ = run_cli(capsys, "compose", "schwarz")
    assert code == 0
    assert "1728" in out and "ok" in out


def test_geometry_text(capsys):
    code, out, _ = run_cli(capsys, "geometry", "barrel")
    assert code == 0
    assert "r1 = 0.405238" in out
    assert "|A1A7| = 0.632193" in out
    assert "dihedral between the planes: 1.3608 deg" in out


# ---------------------------------------------------------------------------
# files, round trips, determinism
# ---------------------------------------------------------------------------


def test_write_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "d60.belyi"
    code, out, _ = run_cli(capsys, "compose", "d60", "--write", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "passport: (3^20 | 2^30 | 5^12)" in out


def test_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.belyi"
    path.write_text("not a belyi file\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and "error:" in err


def test_verify_rejects_an_exponent_token_at_once(capsys, tmp_path):
    # Fraction("1e9999999") alone takes seconds; the grammar refuses it
    path = tmp_path / "exponent.belyi"
    path.write_text("belyi v1\nk 1/1728\ninfinity pole 5\nzero 3 5 1e9999999 1\n"
                    "one 2 -1 4 1\none 1 125 22 1\npole 1 0 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error: BelyiFormatError: ")


@pytest.mark.parametrize("document, argv, name, message", [
    ("belyi v1\nk\nzero 1 0 1\npole 1 1 1\n", None, "BelyiFormatError", None),
    ("belyi v1\nk 1\ninfinity pole\n", None, "BelyiFormatError", None),
    ("belyi v1\nk 1/0\n", None, "BelyiFormatError",
     "bad belyi line 'k 1/0': zero denominator in '1/0'"),
    ("belyi v1\nk 1e9999999\nzero 1 0 1\npole 1 1 1\n", None,
     "BelyiFormatError", None),
    # the d6 document with a stray k and infinity line in front of its own
    ("belyi v1\nk 99\ninfinity zero 3\nk 1/1728\ninfinity pole 5\nzero 3 5 10 1\n"
     "one 1 125 22 1\none 2 -1 4 1\npole 1 0 1\n", None, "BelyiFormatError",
     "bad belyi line 'k 1/1728': a second k line"),
    ("belyi v1\ninfinity zero 3\nk 1/1728\ninfinity pole 5\nzero 3 5 10 1\n"
     "one 1 125 22 1\none 2 -1 4 1\npole 1 0 1\n", None, "BelyiFormatError",
     "bad belyi line 'infinity pole 5': a second infinity line"),
    # 60 bytes whose sides balance: the packed width would grow with the
    # exponent, and the point count refuses it before any product
    ("belyi v1\nk 1\nzero 100000 0 1\npole 100000 1 1\none 100000 2 1\n",
     None, "IdentityFailed",
     "k*zeros - poles cannot factor as declared: 3 points over 0, 1 and "
     "infinity, a degree-100000 map has at least 100002 (Riemann-Hurwitz)"),
    # beta = -z(z - 3)/2: the identity holds, but the critical value 9/8
    # makes 5 points over 0, 1 and infinity
    ("belyi v1\nk -1/2\ninfinity pole 2\nzero 1 0 1\nzero 1 -3 1\n"
     "one 1 2 -3 1\n", None, "IdentityFailed",
     "not a Belyi map: 5 points over 0, 1 and infinity, a degree-2 Belyi map "
     "has exactly 4, so beta would have a critical value outside 0, 1 and "
     "infinity (Riemann-Hurwitz)"),
    # 2*z is squarefree but not monic: refused as the document is parsed
    ("belyi v1\nk 1\ninfinity pole 1\nzero 1 0 2\none 1 -1 2\n", None,
     "BelyiFormatError", "factor 2*z is not monic"),
    (b"belyi v1\nk 1\xff\n", None, "BelyiFormatError",
     "not a UTF-8 document: invalid start byte at byte offset 12"),
    # no factor: k*Z - Q = 2 - 1 is the declared empty product, but the
    # map is the constant 2
    ("belyi v1\nk 2\n", None, "DegreeImbalance",
     "every side sums to 0: a Belyi map has degree at least 1"),
    ("belyi v1\nk 1\nzero 0 0 1\n", None, "BelyiFormatError",
     "factor exponents must be positive"),
    (None, ["--output", "missing-dir/report.txt", "passport", "0"],
     "FileNotFoundError", None),
    (None, ["verify", "D6"], "FileNotFoundError",
     "'D6' is neither a preset (d6, d12, d60, d72) nor an existing file"),
    # dense factors of degree about 2,000: both faults are named before any
    # squarefree or pair certificate (a quadratic Euclid) runs
    (dense_document(2000, False), None, "DegreeImbalance",
     "pole side sums to 1999, zero side to 2000"),
    (dense_document(2000, True), None, "IdentityFailed",
     "k*zeros - poles does not factor as declared: got <degree 2000 "
     "polynomial, coefficients up to 5 bits>, declared <degree 2000 "
     "polynomial, coefficients up to 4 bits>"),
], ids=["bare-k", "bare-infinity", "k-divides-by-zero", "k-exponent-token",
        "second-k-line", "second-infinity-line", "exponent-bomb",
        "not-a-belyi-map", "not-monic", "not-utf-8", "constant", "zero-exponent",
        "output-dir-missing",
        "verify-no-such-preset-or-file", "dense-unbalanced",
        "dense-identity-fails"])
def test_bad_input_exits_1_with_named_error(tmp_path, cold_cli, document, argv,
                                             name, message):
    """A cold `python -S -W error` process exits 1 within 3 s and names the
    fault on stderr, with no traceback."""
    if document is not None:
        if isinstance(document, str):
            document = document.encode("utf-8")
        (tmp_path / "bad.belyi").write_bytes(document)
        argv = ["verify", "bad.belyi"]
    proc = cold_cli(*argv, cwd=tmp_path, timeout=3)
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == 1 and not proc.stdout
    assert err.startswith(f"error: {name}: ")
    assert "Traceback" not in err
    if message is not None:
        assert err == f"error: {name}: {message}\n"


D6_DOCUMENT = ("belyi v1\nk 1/1728\ninfinity pole 5\nzero 3 5 10 1\n"
               "one 1 125 22 1\none 2 -1 4 1\npole 1 0 1\n")


@pytest.mark.parametrize("k, one, name", [
    ("1/" + "7" * 4000, None, "IdentityFailed"),
    ("7" * 5000, None, "BelyiFormatError"),
    ("7" * 3000, "3" * 3000, "IdentityFailed"),
], ids=["k-4000-digit-denominator", "k-over-the-int-limit", "k-and-one-3000-digits"])
def test_oversized_documents_get_bounded_messages(capsys, tmp_path, k, one, name):
    limit = _int_string_limit()
    digits = max(len(run) for run in re.findall("[0-9]+", f"{k} {one}"))
    if (name == "BelyiFormatError") != (0 < limit < digits):
        pytest.skip(f"a {digits}-digit number meets an int-string limit of "
                    f"{limit or 'none'} differently from what the case expects")
    # the d6 document with k, and the first coefficient of the first one
    # factor, made thousands of digits long
    lines = D6_DOCUMENT.replace("k 1/1728", f"k {k}").splitlines()
    if one is not None:
        lines[4] = lines[4].replace("one 1 125 ", f"one 1 {one} ")
    path = tmp_path / "oversized.belyi"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith(f"error: {name}: ") and len(err.encode()) <= 512
    if name == "BelyiFormatError":
        assert err.endswith("a number of 5000 digits exceeds Python's "
                            f"int-string limit of {limit} digits\n")
    else:
        assert "polynomial, coefficients up to " in err


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--format", "json", "--output", str(path),
                           "facevector", "0")
    assert code == 0 and not out
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["vertices"] == 20


@pytest.mark.parametrize("argv", [
    ("facevector", "3"),
    ("--format", "json", "geometry", "barrel"),
])
def test_reports_are_deterministic(cold_cli, argv):
    # two cold processes under different hash seeds: no cached stage is
    # shared, and a set of strings may iterate in another order;
    # tests/test_golden.py pins the commands that have a golden copy
    first, second = (cold_cli(*argv, env={"PYTHONHASHSEED": seed})
                     for seed in ("0", "12345"))
    assert first.returncode == second.returncode == 0
    assert not first.stderr + second.stderr
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def parse_polygon_points(svg: str):
    match = re.search(r'<polygon points="([^"]+)"', svg)
    assert match, "no polygon in svg"
    pts = []
    for token in match.group(1).split():
        x, y = token.split(",")
        pts.append((float(x), float(y)))
    return pts


def turtle_walk(lengths, angles):
    """Independent re-walk of the annotated pentagon, with the same
    proportional closure adjustment, used as the layout oracle."""
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
    out = [pts[0]]
    for i in range(1, 6):
        walked += lengths[i - 1]
        out.append((pts[i][0] - walked / total * gap[0],
                    pts[i][1] - walked / total * gap[1]))
    return out


def test_svg_layout_closes():
    report = face_geometry()
    walked = turtle_walk(report.edge_lengths, report.interior_angles)
    scale = sum(report.edge_lengths)
    assert math.dist(walked[5], walked[0]) <= 1e-6 * scale
    # the library layout must agree with the oracle walk
    layout = flat_pentagon_layout(report)
    for ours, oracle in zip(layout, walked[:5]):
        assert math.dist(ours, oracle) <= 1e-9


def test_svg_annotations_and_geometry(tmp_path, capsys):
    path = tmp_path / "face.svg"
    code, out, _ = run_cli(capsys, "geometry", "barrel", "--svg", str(path))
    assert code == 0
    svg = path.read_text(encoding="utf-8")
    # the printed 3-digit reference values appear inside the labels
    for needle in ("0.696", "0.632", "0.599", "103.3", "111.2", "110.8"):
        assert needle in svg, needle
    pts = parse_polygon_points(svg)
    assert len(pts) == 5
    # edge lengths in the drawing have the annotated ratios
    drawn = [math.dist(pts[i], pts[(i + 1) % 5]) for i in range(5)]
    report = face_geometry()
    ratio = drawn[0] / report.edge_lengths[0]
    for d, length in zip(drawn, report.edge_lengths):
        assert d / length == pytest.approx(ratio, rel=2e-3)


def test_svg_regular_pentagon_case(tmp_path):
    pt = SpherePoint(0.0, 0.0, 1.0)
    report = FaceGeometryReport(
        labels=("P1", "P2", "P3", "P4", "P5"),
        points={f"P{i}": pt for i in range(1, 6)},
        edge_lengths=(1.0,) * 5,
        interior_angles=(108.0,) * 5,
        plane_quad=Plane(0, 0, 1), plane_cap=Plane(0, 0, 1),
        quad_coplanarity_residual=0.0, dihedral_deg=0.0)
    svg = render_svg(report)
    pts = parse_polygon_points(svg)
    drawn = [math.dist(pts[i], pts[(i + 1) % 5]) for i in range(5)]
    assert max(drawn) - min(drawn) <= 1e-6 * drawn[0]
    # interior angles of the drawn polygon are all 108 degrees
    for i in range(5):
        a, b, c = pts[(i - 1) % 5], pts[i], pts[(i + 1) % 5]
        u = (a[0] - b[0], a[1] - b[1])
        v = (c[0] - b[0], c[1] - b[1])
        cosang = ((u[0] * v[0] + u[1] * v[1])
                  / (math.hypot(*u) * math.hypot(*v)))
        assert math.degrees(math.acos(cosang)) == pytest.approx(108.0, abs=1e-6)


def test_svg_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "geometry", "barrel", "--svg",
                           "/nonexistent-dir/face.svg")
    assert code == 1 and "error:" in err
