"""The cold CLI commands the benchmark runs, and the check of each one's
output against the paper's facts.

Every check takes the command's standard output and format and returns
None when the output is right, otherwise a one-line reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK = ".perfbench"  # outputs of the commands, relative to ROOT
BELYI_FILE = f"{WORK}/barrel.belyi"
SVG_FILE = f"{WORK}/face.svg"

PASSPORTS = {
    "d6": "(3^2 | 2^2 1^2 | 5^1 1^1)",
    "d12": "(3^4 | 2^6 | 5^2 1^2)",
    "d60": "(3^20 | 2^30 | 5^12)",
    "d72": "(3^24 | 2^36 | 5^12 6^2)",
}
DERIVE6_VERDICT = "NoSolutionDegreeDeficit"
DERIVE6_K = "-125000/35937*a10^3 - 625/121*a9^2"
DERIVE5_P = "z^11 - 11*z^6 - z"
DERIVE5_K = "1728"
SCHWARZ_IDENTITY = "phi20^3 - phi30^2 = 1728 * phi12^5"
DIHEDRAL_DEG = 1.3608   # to 4 decimals
ANGLES_DEG = {"A1": 103.327, "A2": 103.327, "A7": 111.254, "A8": 111.254}


def _line(out: str, prefix: str) -> str | None:
    for ln in out.splitlines():
        ln = ln.strip()
        if ln.startswith(prefix):
            return ln[len(prefix):].strip()
    return None


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first_error(*errors) -> str | None:
    return next((e for e in errors if e), None)


def check_derive6(out: str, fmt: str) -> str | None:
    if fmt == "json":
        doc = json.loads(out)
        verdict, k = doc.get("verdict"), doc.get("k")
    else:
        verdict, k = _line(out, "verdict:"), _line(out, "k =")
    return _first_error(_expect(verdict, DERIVE6_VERDICT, "verdict"),
                        _expect(k, DERIVE6_K, "k"))


def check_derive5(out: str, fmt: str) -> str | None:
    if fmt == "json":
        doc = json.loads(out)
        p, k = doc.get("P"), doc.get("k")
    else:
        p = _line(out, "P =")
        k = (_line(out, "k =") or "").split("  (")[0]
    return _first_error(_expect(p, DERIVE5_P, "P"), _expect(k, DERIVE5_K, "k"))


def check_passport(preset: str) -> Callable[[str, str], str | None]:
    def check(out: str, fmt: str) -> str | None:
        got = json.loads(out).get("passport") if fmt == "json" else _line(out, "passport:")
        return _expect(got, PASSPORTS[preset], "passport")
    return check


def check_passport_c20(out: str, fmt: str) -> str | None:
    """`passport 0`: the C20 fullerene (dodecahedron) has the d60 passport."""
    if fmt == "json":
        doc = json.loads(out)
        got = (doc.get("display"), doc.get("degree"))
    else:
        display, _, degree = out.strip().partition("   degree ")
        got = (display, int(degree))
    return _expect(got, (PASSPORTS["d60"], 60), "passport")


def check_schwarz(out: str, fmt: str) -> str | None:
    if fmt == "json":
        doc = json.loads(out)
        ok = (doc.get("identity") == SCHWARZ_IDENTITY
              and doc.get("matches_degree60") is True)
    else:
        ok = (_line(out, SCHWARZ_IDENTITY + ":") == "ok"
              and (_line(out, "degree-60 function") or "").endswith(": ok"))
    return None if ok else "Schwarz check not reported ok"


def check_geometry(out: str, fmt: str) -> str | None:
    if fmt == "json":
        face = json.loads(out)["face"]
        dihedral = face["dihedral_degrees"]
        angles = {a["at"]: a["degrees"] for a in face["angles"]}
    else:
        dihedral = float(_line(out, "dihedral between the planes:").split()[0])
        angles = {lab: float(_line(out, f"angle at {lab} =").split()[0])
                  for lab in ANGLES_DEG}
    return _first_error(
        _expect(round(dihedral, 4), DIHEDRAL_DEG, "dihedral"),
        *(_expect(round(angles.get(lab, 0.0), 3), deg, f"angle at {lab}")
          for lab, deg in ANGLES_DEG.items()))


@dataclass(frozen=True)
class Command:
    """One CLI command; `name` is its stem in the `cli.<name>_s` metrics."""

    name: str
    args: tuple[str, ...]
    check: Callable[[str, str], str | None]
    writes: str | None = None    # the file it writes, relative to ROOT
    json_key: str | None = None  # the JSON key that names that file

    def argv(self, fmt: str) -> list[str]:
        return ["--format", fmt, *self.args]


DERIVE6 = Command("derive6", ("derive", "6"), check_derive6)
COMPOSE_D72 = Command("compose_d72", ("compose", "d72", "--write", BELYI_FILE),
                      check_passport("d72"), BELYI_FILE, "written")
GEOMETRY = Command("geometry", ("geometry", "barrel", "--svg", SVG_FILE),
                   check_geometry, SVG_FILE, "svg")
VERIFY_FILE = Command("verify_file", ("verify", BELYI_FILE), check_passport("d72"))
# `passport 0` does almost nothing after import; it is also the ninth
# command, so the median of a cycle falls inside one command's samples
# rather than in the gap between the cheaper and the dearer half.
BUILD = (
    Command("passport", ("passport", "0"), check_passport_c20),
    Command("derive5", ("derive", "5"), check_derive5),
    Command("verify_d6", ("verify", "d6"), check_passport("d6")),
    Command("compose_d12", ("compose", "d12"), check_passport("d12")),
    Command("compose_d60", ("compose", "d60"), check_passport("d60")),
    COMPOSE_D72,
    VERIFY_FILE,
    Command("schwarz", ("compose", "schwarz"), check_schwarz),
    GEOMETRY,
)


def written_path(cmd: Command) -> Path:
    return ROOT / cmd.writes


def read_written(cmd: Command) -> str | None:
    """The file `cmd` writes, as it is now; None if it writes none or the
    file is not there."""
    if not cmd.writes or not written_path(cmd).is_file():
        return None
    return written_path(cmd).read_text(encoding="utf-8")


def check_written(cmd: Command, fmt: str, out: str, written: str | None,
                  d72_text: str) -> str | None:
    """The file a command writes: its output names it, it is there (the
    caller removes it before the command runs, so it is this run's), and
    its content is right.  `compose d72 --write` must write the d72
    preset's `to_text`, byte for byte; the SVG must be whole."""
    if fmt == "json":
        named = json.loads(out).get(cmd.json_key) == cmd.writes
    else:
        named = f"written to {cmd.writes}" in out
    if not named:
        return f"output does not name {cmd.writes}"
    if written is None:
        return f"{cmd.writes} was not written"
    if cmd is COMPOSE_D72 and written != d72_text:
        return f"{cmd.writes} is not the d72 preset's to_text"
    if cmd is GEOMETRY and not (written.startswith("<svg")
                                and written.rstrip().endswith("</svg>")):
        return f"{cmd.writes} is not a whole SVG"
    return None


def check_output(cmd: Command, fmt: str, returncode: int, out: str, err: str,
                 written: str | None, d72_text: str) -> str | None:
    """The reason `cmd` failed, or None: a nonzero exit, a traceback, an
    output that contradicts the paper or a missing or wrong written file
    (`written` is that file's content, `d72_text` the d72 preset's)."""
    if returncode != 0:
        return f"exit {returncode}: {err.strip()[-200:]}"
    if "Traceback" in err:
        return "traceback on stderr"
    try:
        return _first_error(
            cmd.check(out, fmt),
            cmd.writes and check_written(cmd, fmt, out, written, d72_text))
    except (ValueError, KeyError, AttributeError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
