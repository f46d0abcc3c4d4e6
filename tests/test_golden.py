"""Byte-for-byte golden outputs of the exact-algebra README commands, each
run as a cold `python -S -W error` process (the `cold_cli` fixture), so
the outputs are those of a stdlib-only interpreter.

tests/golden/<command>_<arg>.<format> holds the standard output of
`fullerene-belyi --format <format> <command> <arg>`, d72.belyi the file
`compose d72 --write` writes, and verify_file.<format> the output of
`verify golden/d72.belyi` run from tests/.  `geometry` has no golden copy:
its floats come from the platform's libm.  It and the README commands
without one exit 0 with nothing on stderr.  The console script that
pyproject.toml declares is run as an installed one runs it.
"""

import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

COMMANDS = [("passport", "0"), ("facevector", "1"), ("derive", "5"),
            ("derive", "6"), ("verify", "d6"), ("compose", "d12"),
            ("compose", "d60"), ("compose", "d72"), ("compose", "schwarz")]


def golden(name):
    return (GOLDEN / name).read_bytes()


def succeeded(proc):
    return proc.returncode == 0 and not proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids="_".join)
def test_output_matches_golden(cold_cli, command, fmt):
    proc = cold_cli("--format", fmt, *command)
    assert succeeded(proc), proc.stderr
    assert proc.stdout == golden(f"{'_'.join(command)}.{fmt}")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_file_matches_golden(cold_cli, fmt):
    """`verify <file>` on the written d72 file, by a fixed relative path
    (the output names it)."""
    proc = cold_cli("--format", fmt, "verify", "golden/d72.belyi",
                    cwd=GOLDEN.parent)
    assert succeeded(proc), proc.stderr
    assert proc.stdout == golden(f"verify_file.{fmt}")


def test_written_d72_file_matches_golden(tmp_path, cold_cli):
    out = tmp_path / "barrel.belyi"
    assert succeeded(cold_cli("compose", "d72", "--write", str(out)))
    assert out.read_bytes() == golden("d72.belyi")
    assert succeeded(cold_cli("verify", str(out)))


@pytest.mark.parametrize("old, new, edited", [
    ("belyi v1\n", "belyi  v1\n", "belyi  v1\n"),
    ("228", "456/2", " -456/2 "),
], ids=["spaced-header", "228-unreduced"])
def test_respelled_d72_file_gives_the_same_report(tmp_path, cold_cli, old,
                                                   new, edited):
    """Two spaces in the header, or 228 written as 456/2, spell the same
    document: the report differs from the golden one only in the file
    name on its first line."""
    text = golden("d72.belyi").decode().replace(old, new)
    assert edited in text
    path = tmp_path / "respelled.belyi"
    path.write_text(text)
    proc = cold_cli("verify", str(path))
    assert succeeded(proc), proc.stderr
    assert (proc.stdout.splitlines(True)[1:]
            == golden("verify_file.text").splitlines(True)[1:])


@pytest.mark.parametrize("argv", [
    ("facevector", "2"),
    ("verify", "d60"),
    ("geometry", "barrel", "--svg", "face.svg"),
], ids=["facevector-2", "verify-d60", "geometry-barrel-svg"])
def test_command_without_golden_succeeds(tmp_path, cold_cli, argv):
    proc = cold_cli(*argv, cwd=tmp_path)
    assert succeeded(proc), proc.stderr
    assert proc.stdout


def console_script():
    """(name, module, function) of the one entry in pyproject.toml's
    [project.scripts], read as text (Python 3.10 has no tomllib)."""
    section = PYPROJECT.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
    entries = re.findall(r'^([\w-]+) = "([\w.]+):(\w+)"$',
                         section.split("\n[")[0], re.MULTILINE)
    assert len(entries) == 1, entries
    return entries[0]


def test_console_script_runs_the_cli(cold_python):
    """The entry point as the installed script calls it: sys.exit(main())
    with the command line in sys.argv."""
    name, module, function = console_script()
    assert name == "fullerene-belyi"
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    proc = cold_python("-c", script, "--format", "json", "derive", "6")
    assert succeeded(proc), proc.stderr
    assert proc.stdout == golden("derive_6.json")
    proc = cold_python("-c", script, "derive", "abc")
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith(b"usage: fullerene-belyi")
