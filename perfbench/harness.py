"""What the workloads and the traced run share: fresh interpreters, fresh
imports of the package, set-up, the closed loops and their operations."""

from __future__ import annotations

import importlib
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import corpus
from checks import ROOT, WORK

SRC = ROOT / "src"
PACKAGE = "fullerene_belyi"
MODULES = ("exact", "multipoly", "belyi", "derive", "moebius", "geometry", "cli")
CHILD_TIMEOUT_S = 150
FORMATS = ("text", "json")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children reuse warmed bytecode
    return env


ENV = child_env()


def run_python(args: list[str]) -> tuple[float, int, str, str]:
    """(wall seconds, exit code, stdout, stderr) of a fresh interpreter."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV,
                           capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, -1, "", f"timed out after {CHILD_TIMEOUT_S} s"
    return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


def run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    return run_python(["-m", f"{PACKAGE}.cli", *argv])


# The gauge of host speed: a fixed pure-Python loop, run after every
# operation for GAUGE_SHARE of the operation's time (once at least).
# Timings are reported at the host speed at which one loop takes
# REF_NOMINAL_S: each is multiplied by REF_NOMINAL_S over the median loop
# time of its run.  On a shared VM the speed of the same vCPU drifts by a
# third over minutes; the gauge moves with it, and nothing the package
# does changes the gauge.
REF_NOMINAL_S = 0.010
GAUGE_SHARE = 0.05


def ref_loop_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def gauge_after(seconds: float, gauge: list[float]) -> None:
    """Append gauge loops to `gauge` for GAUGE_SHARE of `seconds`."""
    budget = GAUGE_SHARE * seconds
    while True:
        gauge.append(ref_loop_once())
        budget -= gauge[-1]
        if budget <= 0:
            return


def scale(gauge: list[float]) -> float:
    """What a wall time is multiplied by to give it at the nominal host
    speed, from the gauge loops timed around it."""
    return REF_NOMINAL_S / statistics.median(gauge)


def ref_loop_s() -> float:
    """Median time of five gauge loops."""
    return statistics.median([ref_loop_once() for _ in range(5)])


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, the last one allowed,
    so that the gauge and the operations run on the same vCPU; a cold
    command that migrates between vCPUs varies twice as much."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_info() -> dict:
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

WARM = f"import {PACKAGE}.cli"
WARM_AND_D72 = (f"import sys, {PACKAGE}.cli, {PACKAGE}.moebius as m; "
                "sys.stdout.write(m.build_beta72().to_text())")


def setup_cold(script: str) -> str:
    """Warm the package's bytecode so every timed process starts alike;
    returns what `script` prints (`WARM_AND_D72`: the d72 preset's
    `to_text`, which `compose d72 --write` must write)."""
    (ROOT / WORK).mkdir(exist_ok=True)
    _, rc, out, err = run_python(["-c", script])
    if rc != 0:
        raise RuntimeError(f"cannot import {PACKAGE}: {err.strip()[-300:]}")
    return out


def import_fresh() -> dict:
    """Import the package anew, so its cached pipeline stages start empty;
    returns its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def preset_texts(mods: dict) -> dict[str, str]:
    moebius = mods["moebius"]
    return {"d6": mods["derive"].d6_solve().belyi.to_text(),
            "d12": moebius.build_beta12().to_text(),
            "d60": moebius.build_beta60().to_text(),
            "d72": moebius.build_beta72().to_text()}


@dataclass
class Library:
    """The freshly imported package, its preset texts and the certify
    corpus."""

    modules: dict
    texts: dict[str, str]
    docs: list[corpus.Doc]


def setup_certify(seed: int) -> Library:
    """Import, build the four presets and generate the corpus."""
    mods = import_fresh()
    texts = preset_texts(mods)
    return Library(mods, texts, corpus.generate(seed, texts))


def timed_setup(fn, repeats: int):
    """Run set-up `repeats` times, the gauge after each; (last result,
    median seconds at the nominal host speed, wall samples)."""
    samples, gauge = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = fn()
        samples.append(time.perf_counter() - t0)
        gauge_after(samples[-1], gauge)
    return state, statistics.median(samples) * scale(gauge), samples


# ---------------------------------------------------------------------------
# the closed loops and their operations
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    by_name: dict[str, list[float]] = field(default_factory=dict)
    gauge: list[float] = field(default_factory=list)
    elapsed: float = 0.0  # time in operations, without the gauge

    def add(self, name: str, seconds: float, failure: str | None) -> None:
        self.latencies.append(seconds)
        self.by_name.setdefault(name, []).append(seconds)
        if failure:
            self.failures.append(f"{name}: {failure}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def closed_loop(cycles, seconds: float, run_op) -> Tally:
    """Run whole cycles, one operation at a time and the gauge after each,
    until `seconds` pass."""
    tally = Tally()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for op in next(cycles):
            run_op(op, tally)
            gauge_after(tally.latencies[-1], tally.gauge)
    tally.elapsed = time.perf_counter() - t0 - sum(tally.gauge)
    return tally


def cold_op(d72_text: str):
    """Run one (command, format) pair in a fresh process and check it.  A
    file the command writes is removed first, so only this run can have
    written it.  The output and that file must also match the first run
    of the same pair byte for byte."""
    first: dict = {}

    def run_op(op, tally: Tally) -> None:
        cmd, fmt = op
        if cmd.writes:
            checks.written_path(cmd).unlink(missing_ok=True)
        secs, rc, out, err = run_cli(cmd.argv(fmt))
        written = checks.read_written(cmd)
        failure = checks.check_output(cmd, fmt, rc, out, err, written, d72_text)
        if failure is None and first.setdefault(op, (out, written)) != (out, written):
            failure = "output differs from its first repetition"
        tally.add(f"{cmd.name}/{fmt}", secs, failure)
    return run_op


def proof_cycles(seed: int):
    fmts = FORMATS if seed % 2 == 0 else FORMATS[::-1]
    while True:
        yield [(checks.DERIVE6, fmt) for fmt in fmts]


def build_cycles(seed: int):
    """Seeded shuffles of the eighteen (command, format) pairs; the file
    that `verify` reads is written by `compose d72` before it, in every
    cycle."""
    rng = random.Random(f"build-order:{seed}")
    pairs = [(cmd, fmt) for cmd in checks.BUILD for fmt in FORMATS]
    while True:
        order = pairs[:]
        rng.shuffle(order)
        names = [cmd.name for cmd, _ in order]
        w, v = names.index(checks.COMPOSE_D72.name), names.index(checks.VERIFY_FILE.name)
        if v < w:
            order[v], order[w] = order[w], order[v]
        yield order


def certify(belyi, doc: corpus.Doc) -> str | None:
    """Parse and verify one document; None when the verdict is the
    expected one (the preset's passport, or the named rejection)."""
    want = checks.PASSPORTS[doc.preset] if doc.expect == corpus.ACCEPT else doc.expect
    try:
        got = str(belyi.FactoredBelyi.from_text(doc.text).verify())
    except belyi.BelyiVerificationError as exc:
        got = type(exc).__name__
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        got = f"{type(exc).__name__}: {exc}"
    return None if got == want else f"got {got!r}, want {want!r}"


def certify_op(lib: Library):
    belyi = lib.modules["belyi"]

    def run_op(doc: corpus.Doc, tally: Tally) -> None:
        t0 = time.perf_counter()
        failure = certify(belyi, doc)
        tally.add(doc.name, time.perf_counter() - t0, failure)
    return run_op


def certify_cycles(lib: Library):
    while True:
        yield lib.docs
