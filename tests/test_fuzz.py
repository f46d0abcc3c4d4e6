"""Fuzzing the two entry points of untrusted input: belyi v1 documents and
command lines.

Every mutated preset document either verifies, and is then tight, or raises
BelyiFormatError or BelyiVerificationError, and every command line ends in exit status 0 or 1,
or in argparse's SystemExit 0 (--help) or 2; nothing else escapes, and
that exit is the reference parser's (oracles.reference_parser), as are
the attributes of every command line cli.read_command_line accepts.  Token
mutations mostly break the grammar, so a second strategy mutates within
it: those documents all parse and reach verify, whose verdict must be the
reference's.  Each example is held to WALL_S of wall time.  The runs are
derandomized, so the same examples run every time."""

import contextlib
import io
import os
import time
from functools import cache
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fullerene_belyi import cli  # noqa: E402
from fullerene_belyi.belyi import (BelyiFormatError,  # noqa: E402
                                   BelyiVerificationError, FactoredBelyi,
                                   Passport)
from fullerene_belyi.exact import GaussRat  # noqa: E402
from oracles import (exit_of, is_tight, reader_agrees,  # noqa: E402
                     reference_parser, reference_verify)

# the wall-time bound of one example, in seconds
WALL_S = 2.0

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300)

GOLDEN = Path(__file__).parent / "golden"

# tokens a mutation writes: naturals past any degree or the int-string
# limit, a zero denominator, a Gaussian pair, a negative zero, the side
# and line tags, and the empty token
ALPHABET = ("9" * 40, "1" + "0" * 700, "7" * 5000, "1/0", "0,1", "-0",
            "zero", "one", "pole", "none", "infinity", "k", "")


def rare(draw):
    """True one time in eight."""
    return draw(st.integers(0, 7)) == 5


@cache
def preset_lines(name):
    return [line.split(" ") for line in cli.load_preset(name).to_text().splitlines()]


def index(draw, n):
    """An index below n, counted from either end: the draws favour small
    numbers, and this spreads them over both ends of a line."""
    at = draw(st.integers(0, n - 1))
    return n - 1 - at if draw(st.booleans()) else at


@st.composite
def mutated_documents(draw):
    """A preset's text after one to four token mutations: replace, delete,
    or insert a token of ALPHABET, anywhere; the header only now and then,
    since any change to it ends the parse."""
    lines = [list(line) for line in preset_lines(draw(st.sampled_from(cli.PRESETS)))]
    for _ in range(draw(st.integers(1, 4))):
        line = lines[0 if rare(draw) else 1 + index(draw, len(lines) - 1)]
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        token = draw(st.sampled_from(ALPHABET))
        if op == "insert" or not line:
            line.insert(index(draw, len(line) + 1), token)
        elif op == "replace":
            line[index(draw, len(line))] = token
        else:
            del line[index(draw, len(line))]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@FUZZ
@given(mutated_documents())
def test_mutated_preset_documents_verify_or_name_their_fault(text):
    start = time.perf_counter()
    try:
        beta = FactoredBelyi.from_text(text)
        beta.verify()
    except (BelyiFormatError, BelyiVerificationError):
        pass
    else:
        assert is_tight(beta)
    assert time.perf_counter() - start < WALL_S


SIDES = ("zero", "one", "pole")


@st.composite
def grammatical_documents(draw):
    """A preset's text after one to three mutations that keep it a belyi
    v1 document with monic factors, so that from_text accepts it: change
    one digit of a factor's coefficient other than the leading 1, change a
    factor's exponent by +-1 (never to 0), move a factor line to another
    side, negate k, or drop a factor line."""
    lines = [list(line) for line in preset_lines(draw(st.sampled_from(cli.PRESETS)))]
    for _ in range(draw(st.integers(1, 3))):
        factors = [line for line in lines if line[0] in SIDES]
        op = draw(st.sampled_from(("digit", "exponent", "move", "negate k", "drop")))
        if op == "negate k" or not factors:
            k = next(line for line in lines if line[0] == "k")
            k[1] = (-GaussRat.from_token(k[1])).to_token()
            continue
        line = draw(st.sampled_from(factors))
        if op == "digit":
            at = draw(st.integers(2, len(line) - 2))
            numerator = line[at].partition("/")[0]
            j = draw(st.sampled_from([j for j, ch in enumerate(numerator) if ch.isdigit()]))
            digit = draw(st.sampled_from([d for d in "0123456789" if d != numerator[j]]))
            line[at] = line[at][:j] + digit + line[at][j + 1:]
        elif op == "exponent":
            e = int(line[1])
            line[1] = str(e + 1 if e == 1 or draw(st.booleans()) else e - 1)
        elif op == "move":
            line[0] = draw(st.sampled_from([side for side in SIDES if side != line[0]]))
        else:
            lines.remove(line)
    return "\n".join(" ".join(line) for line in lines) + "\n"


def verdict(check, beta):
    """The passport, or the class of the BelyiVerificationError raised."""
    try:
        return check(beta)
    except BelyiVerificationError as exc:
        return type(exc)


@FUZZ
@given(grammatical_documents())
def test_grammatical_mutations_reach_verify_and_agree_with_the_reference(text):
    """Each document parses, and verify accepts it exactly when the
    reference does, with the same passport and only when it is tight, or
    raises the reference's class: the reference checks in verify's order,
    so a document with several faults gets the same class from both."""
    start = time.perf_counter()
    beta = FactoredBelyi.from_text(text)
    got = verdict(FactoredBelyi.verify, beta)
    assert time.perf_counter() - start < WALL_S
    want = verdict(reference_verify, beta)
    assert got == want
    assert not isinstance(got, Passport) or is_tight(beta)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory holding every path a fuzzed command line names: a copy
    of the d72 document, a file that is not one, and room for outputs."""
    root = tmp_path_factory.mktemp("argv")
    (root / "d72.belyi").write_bytes((GOLDEN / "d72.belyi").read_bytes())
    (root / "report.json").write_bytes((GOLDEN / "compose_d72.json").read_bytes())
    return root


# each subcommand's positional values, good and bad, and its output option
POSITIONAL = {
    "facevector": ("0", "1", "2", "-1", "1e3", "99999999999"),
    "passport": ("0", "1", "13", "-1", "x", "99999999999"),
    "derive": ("1", "5", "6", "13", "-1", "x"),
    "verify": (*cli.PRESETS, "d24"),
    "compose": ("d12", "d60", "d72", "schwarz", "d6"),
    "geometry": ("barrel", "x"),
}
OUTPUT_OPTION = {"compose": "--write", "geometry": "--svg"}


@st.composite
def command_lines(draw, scratch):
    """A command line: now and then a list of words drawn from everything a
    command line holds, else a subcommand with a positional value, global
    options, often the subcommand's output option (now and then another's),
    and now and then a stray word.  Values are good or bad, and a path
    exists, is missing, is a directory, or is not a belyi document.  Every
    path is inside scratch, and stray words can name a relative output
    path, so the command runs with scratch as its working directory."""
    paths = (str(scratch / "d72.belyi"), str(scratch / "report.json"),
             str(scratch / "missing" / "out"), str(scratch / "out.txt"), str(scratch))
    words = (*POSITIONAL, *(v for vs in POSITIONAL.values() for v in vs), *paths,
             "--format", "json", "text", "--output", "--write", "--svg", "--help",
             "-h", "--bogus", "")
    if rare(draw):
        return draw(st.lists(st.sampled_from(words), max_size=6))
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        option = draw(st.sampled_from(("--format", "--output")))
        values = ("json", "text", "yaml") if option == "--format" else paths
        argv += [option, draw(st.sampled_from(values))]
    sub = draw(st.sampled_from(sorted(POSITIONAL)))
    argv += [sub, draw(st.sampled_from(POSITIONAL[sub] + (paths if sub == "verify" else ())))]
    if draw(st.booleans()):
        option = "--svg" if rare(draw) else OUTPUT_OPTION.get(sub, "--write")
        argv += [option, draw(st.sampled_from(paths))]
    if rare(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(words)))
    return argv


@FUZZ
@given(data=st.data())
def test_random_command_lines_end_in_a_status(scratch, data):
    argv = data.draw(command_lines(scratch))
    start = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(scratch)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = ("exit", exc.code)
        finally:
            os.chdir(cwd)
    assert status in (0, 1, ("exit", 0), ("exit", 2)), argv
    assert time.perf_counter() - start < WALL_S


@FUZZ
@given(data=st.data())
def test_reader_attributes_on_random_command_lines(scratch, data):
    """Whenever cli.read_command_line accepts a command line, it sets
    what the reference parser sets (oracles.reader_agrees)."""
    reader_agrees(data.draw(command_lines(scratch)))


@FUZZ
@given(data=st.data())
def test_exits_on_random_command_lines_are_the_reference_parsers(scratch, data):
    """Whenever cli.main exits through SystemExit (help or a refusal), its
    code, stdout and stderr are the reference parser's, byte for byte, and
    it exits whenever the reference does."""
    argv = data.draw(command_lines(scratch))
    cwd = os.getcwd()
    os.chdir(scratch)
    try:
        assert exit_of(cli.main, argv) == exit_of(reference_parser().parse_args, argv)
    finally:
        os.chdir(cwd)
