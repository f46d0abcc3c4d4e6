"""Start-up guard: what a bare package import and `derive 6` load.

The C22 proof (`derive 6`) needs none of the modules in UNWANTED; a bare
`import fullerene_belyi` loads no submodule.  Run it on a clean interpreter
(no site, whose .pth files may preload some of these) with the package on
the path, from the repository root:

    PYTHONPATH=src python -S tests/startup_guard.py

It prints what it found and exits 1 if a check fails.
tests/test_package.py runs it the same way.
"""

import io
import sys

# argparse, with the gettext, locale and shutil it loads, is built only for
# --help and for refused command lines (cli.read_command_line)
UNWANTED = ("dataclasses", "inspect", "typing", "pathlib", "json", "argparse",
            "gettext", "locale", "shutil", "fullerene_belyi.geometry",
            "fullerene_belyi.moebius")


def main() -> int:
    failures = []
    import fullerene_belyi  # noqa: F401
    submodules = sorted(m for m in sys.modules if m.startswith("fullerene_belyi."))
    if submodules:
        failures.append(f"import fullerene_belyi loaded {submodules}")

    from fullerene_belyi import cli
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        rc = cli.main(["derive", "6"])
    finally:
        sys.stdout = stdout
    if rc != 0:
        failures.append(f"derive 6 exited {rc}")
    loaded = [m for m in UNWANTED if m in sys.modules]
    if loaded:
        failures.append(f"derive 6 loaded {loaded}")

    for failure in failures:
        print(failure)
    if not failures:
        print(f"ok: Python {sys.version.split()[0]}, {len(sys.modules)} modules")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
