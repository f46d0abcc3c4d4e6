"""Byte-for-byte golden outputs of the exact-algebra README commands.

tests/golden/<command>_<arg>.<format> holds the standard output of
`fullerene-belyi --format <format> <command> <arg>`, d72.belyi the file
`compose d72 --write` writes, and verify_file.<format> the output of
`verify golden/d72.belyi` run from tests/.  `geometry` is left out: its floats come from
the platform's libm.
"""

from pathlib import Path

import pytest

from fullerene_belyi.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = [("passport", "0"), ("facevector", "1"), ("derive", "5"),
            ("derive", "6"), ("verify", "d6"), ("compose", "d12"),
            ("compose", "d60"), ("compose", "d72"), ("compose", "schwarz")]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids="_".join)
def test_output_matches_golden(capsys, command, fmt):
    assert main(["--format", fmt, *command]) == 0
    expected = (GOLDEN / f"{'_'.join(command)}.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_file_matches_golden(capsys, monkeypatch, fmt):
    """`verify <file>` on the written d72 file, by a fixed relative path
    (the output names it)."""
    monkeypatch.chdir(GOLDEN.parent)
    assert main(["--format", fmt, "verify", "golden/d72.belyi"]) == 0
    expected = (GOLDEN / f"verify_file.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_written_d72_file_matches_golden(tmp_path, capsys):
    out = tmp_path / "barrel.belyi"
    assert main(["compose", "d72", "--write", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "d72.belyi").read_bytes()
