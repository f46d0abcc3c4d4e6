"""Start-up guard: what a bare package import and each README command load.

A bare `import fullerene_belyi` loads no submodule.  Each README command
(and `derive 5`) runs in a fresh interpreter, in a temporary directory
that takes the files it writes, once with --format text and once with
--format json, and must load none of its UNWANTED modules:

  - in text format, BASE, which no command needs, and fractions,
    decimal, numbers, enum and re, which the exact layer does not need
    (GaussRat and MultiPoly compute on ints);
  - in json format, BASE without json, and fractions, decimal and
    numbers: json.encoder itself imports re, and re imports enum.

`derive 6` must also load neither geometry nor moebius.  Run it on a
clean interpreter (no site, whose .pth files may preload some of these)
with the package on the path, from the repository root:

    PYTHONPATH=src python -S tests/startup_guard.py

It prints what it found and exits 1 if a check fails.
tests/test_package.py runs it the same way.
"""

import os
import subprocess
import sys
import tempfile

# argparse, with the gettext, locale and shutil it loads, is built only for
# --help and for refused command lines (cli.read_command_line)
BASE = ("dataclasses", "inspect", "typing", "pathlib", "json", "argparse",
        "gettext", "locale", "shutil")
EXACT = ("fractions", "decimal", "numbers")
UNWANTED = {
    "text": (*BASE, *EXACT, "enum", "re"),
    "json": (*(m for m in BASE if m != "json"), *EXACT),
}
DERIVE_6_UNWANTED = ("fullerene_belyi.geometry", "fullerene_belyi.moebius")

COMMANDS = (
    ("facevector", "2"),
    ("passport", "0"),
    ("verify", "d60"),
    ("derive", "6"),
    ("derive", "5"),
    ("compose", "d72", "--write", "barrel.belyi"),
    ("verify", "barrel.belyi"),
    ("compose", "schwarz"),
    ("geometry", "barrel", "--svg", "face.svg"),
)

# run in the child: the command's exit status, then every module of
# argv[1] (comma-separated) that it loaded
CHILD = """
import io, sys
from fullerene_belyi import cli
watched, argv = sys.argv[1].split(","), sys.argv[2:]
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    rc = cli.main(argv)
finally:
    sys.stdout = stdout
print(rc, *[m for m in watched if m in sys.modules])
"""


def loaded_by(argv: list[str], watched: tuple[str, ...], cwd: str) -> tuple[int, list[str]]:
    """(exit status, the watched modules loaded) of one command, run in a
    fresh `python -S` that finds the package this one imported."""
    import fullerene_belyi
    path = os.path.dirname(os.path.dirname(os.path.abspath(fullerene_belyi.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, ",".join(watched), *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})
    if proc.returncode != 0:
        return proc.returncode, [proc.stderr.strip()[-300:]]
    rc, *loaded = proc.stdout.split()
    return int(rc), loaded


def main() -> int:
    failures = []
    import fullerene_belyi  # noqa: F401
    submodules = sorted(m for m in sys.modules if m.startswith("fullerene_belyi."))
    if submodules:
        failures.append(f"import fullerene_belyi loaded {submodules}")

    with tempfile.TemporaryDirectory() as tmp:
        # the file `verify barrel.belyi` reads is written by the command
        # before it, in each format
        for fmt, unwanted in UNWANTED.items():
            for command in COMMANDS:
                argv = ["--format", fmt, *command]
                watched = unwanted + (DERIVE_6_UNWANTED if command == ("derive", "6") else ())
                rc, loaded = loaded_by(argv, watched, tmp)
                if rc != 0:
                    failures.append(f"{' '.join(argv)} exited {rc}: {loaded}")
                elif loaded:
                    failures.append(f"{' '.join(argv)} loaded {loaded}")

    for failure in failures:
        print(failure)
    if not failures:
        print(f"ok: Python {sys.version.split()[0]}, {len(COMMANDS)} commands "
              f"in {len(UNWANTED)} formats")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
